// Figure 12 — ATB aggregated throughput with service-level hints
// (perf_goal=throughput, payload_size, NUMA binding under-subscription):
// HatRPC re-derives its plan per client count (switching to RFP + event
// polling above the concurrency threshold 16 for large payloads, §5.2)
// against the four fixed baselines. Throughput is `calls` over
// `elapsed_ns`.
//
//   bench_fig12_atb_throughput [--out F] [--filter S] [--trace F]
#include "common.h"

using namespace hatbench;

namespace {

void throughput_row(Json& row, proto::ProtocolKind kind, size_t bytes,
                    int clients, sim::PollMode poll, bool numa_bind) {
  BenchProbe probe;
  measure_throughput(probe, kind, bytes, clients, poll,
                     throughput_iters(clients), numa_bind)
      .report(row);
  probe.report(row);
}

}  // namespace

int main(int argc, char** argv) {
  Figure fig("fig12", argc, argv, {trace_flag()});
  for (size_t bytes : {size_t(512), size_t(128 << 10)}) {
    for (int clients : client_counts()) {
      const std::string suffix =
          std::to_string(bytes) + "B/c" + std::to_string(clients);
      fig.add("Fig12/HatRPC/" + suffix, [=](Json& row) {
        const hint::Plan plan = hatrpc_plan(
            hint::PerfGoal::kThroughput, uint32_t(clients), uint32_t(bytes));
        row.put("plan", std::string(proto::to_string(plan.protocol)) + "+" +
                            poll_name(plan.client_poll));
        throughput_row(row, plan.protocol, bytes, clients, plan.client_poll,
                       plan.numa_bind);
      });
      for (auto [label, kind] : kAtbBaselines) {
        fig.add("Fig12/" + std::string(label) + "/" + suffix, [=](Json& row) {
          throughput_row(row, kind, bytes, clients, sim::PollMode::kBusy,
                         /*numa_bind=*/true);
        });
      }
    }
  }
  return run_traced(fig);
}
