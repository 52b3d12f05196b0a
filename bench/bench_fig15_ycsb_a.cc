// Figure 15 — YCSB workload A (25/25/25/25 GET/PUT/MultiGET/MultiPUT) on
// HatKV with 128 clients: HatRPC-Function / HatRPC-Service vs the emulated
// AR-gRPC, HERD, Pilaf, and RFP, sharing one mdblite backend. Rows give
// per-operation counts over the span (throughput) and mean latency — the
// two panels of the figure.
//
//   bench_fig15_ycsb_a [--out F] [--filter S]
#include "ycsb_bench.h"

int main(int argc, char** argv) {
  hatrpc::ycsb::WorkloadSpec spec = hatrpc::ycsb::WorkloadSpec::workload_a();
  spec.record_count = 2000;
  return hatbench::run_ycsb_figure("fig15", "Fig15_YCSB_A", spec, argc, argv);
}
