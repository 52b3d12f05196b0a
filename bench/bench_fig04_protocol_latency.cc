// Figure 4 — RPC-like communication latency of the nine RDMA protocols
// (plus the hybrid baseline), for busy and event CQ polling, across the
// payload ladder. One row per (protocol, size, polling): `latency_ns` is
// the simulated mean over 64 timed calls.
//
//   bench_fig04_protocol_latency [--out F] [--filter S] [--trace F]
#include "common.h"

using namespace hatbench;

int main(int argc, char** argv) {
  Figure fig("fig04", argc, argv, {trace_flag()});
  for (auto kind : kFigureProtocols) {
    for (size_t bytes : latency_sizes()) {
      for (auto poll : {sim::PollMode::kBusy, sim::PollMode::kEvent}) {
        fig.add("Fig04/" + std::string(proto::to_string(kind)) + "/" +
                    std::to_string(bytes) + "B/" + poll_name(poll),
                [=](Json& row) {
                  BenchProbe probe;
                  row.put("latency_ns",
                          measure_latency(probe, kind, bytes, poll).count());
                  probe.report(row);
                });
      }
    }
  }
  return run_traced(fig);
}
