// Figure 11 — ATB latency benchmark with service-level hints: HatRPC
// (plan selected from perf_goal=latency, concurrency=1, payload_size=<n>)
// against Hybrid-EagerRNDV, Direct-Write-Send, RFP, and Direct-WriteIMM,
// across the payload ladder. Expected shape (§5.2): HatRPC tracks
// Direct-WriteIMM within a few percent and beats the others at all sizes.
//
//   bench_fig11_atb_latency [--out F] [--filter S] [--trace F]
#include "common.h"

using namespace hatbench;

namespace {

void latency_row(Json& row, proto::ProtocolKind kind, size_t bytes,
                 sim::PollMode poll) {
  BenchProbe probe;
  row.put("latency_ns", measure_latency(probe, kind, bytes, poll).count());
  probe.report(row);
}

}  // namespace

int main(int argc, char** argv) {
  Figure fig("fig11", argc, argv, {trace_flag()});
  for (size_t bytes : latency_sizes()) {
    fig.add("Fig11/HatRPC/" + std::to_string(bytes) + "B", [=](Json& row) {
      // Service-level hints: perf_goal=latency, concurrency=1, payload_size.
      const hint::Plan plan =
          hatrpc_plan(hint::PerfGoal::kLatency, 1, uint32_t(bytes));
      row.put("plan", std::string(proto::to_string(plan.protocol)));
      latency_row(row, plan.protocol, bytes, plan.client_poll);
    });
    for (auto [label, kind] : kAtbBaselines) {
      fig.add("Fig11/" + std::string(label) + "/" + std::to_string(bytes) +
                  "B",
              [=](Json& row) {
                latency_row(row, kind, bytes, sim::PollMode::kBusy);
              });
    }
  }
  return run_traced(fig);
}
