// Figure 14 — ATB Mix-Comm with 128 KB payloads: above the concurrency
// threshold the throughput function's plan moves to event-polled RFP while
// the latency function stays on Direct-WriteIMM (optimization isolation).
//
//   bench_fig14_mixcomm_large [--out F] [--filter S] [--trace F]
#include "mixcomm.h"

int main(int argc, char** argv) {
  return hatbench::run_mixcomm(14, 128 << 10, argc, argv);
}
