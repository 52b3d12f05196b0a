// Figure 13 — ATB Mix-Comm with 512 B payloads: function-level hints keep
// the latency RPC on busy-polled Direct-WriteIMM while the throughput RPC
// follows its own plan, across client counts.
//
//   bench_fig13_mixcomm_small [--out F] [--filter S] [--trace F]
#include "mixcomm.h"

int main(int argc, char** argv) {
  return hatbench::run_mixcomm(13, 512, argc, argv);
}
