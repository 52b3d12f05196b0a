// Figure 16 — YCSB workload B (47.5/2.5/47.5/2.5, read-intensive) on
// HatKV with 128 clients; same six-system comparison as Fig. 15.
//
//   bench_fig16_ycsb_b [--out F] [--filter S]
#include "ycsb_bench.h"

int main(int argc, char** argv) {
  hatrpc::ycsb::WorkloadSpec spec = hatrpc::ycsb::WorkloadSpec::workload_b();
  spec.record_count = 2000;
  return hatbench::run_ycsb_figure("fig16", "Fig16_YCSB_B", spec, argc, argv);
}
