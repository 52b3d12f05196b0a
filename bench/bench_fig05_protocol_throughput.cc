// Figure 5 — multi-client aggregate throughput of the RDMA protocols for
// 64 B, 512 B and 128 KB payloads under under-/full-/over-subscription,
// busy vs event polling. One row per point: the figure's y-axis is
// `calls` over the run's simulated span `elapsed_ns`.
//
//   bench_fig05_protocol_throughput [--out F] [--filter S] [--trace F]
//                                   [--window N]
#include "common.h"

using namespace hatbench;

int main(int argc, char** argv) {
  Figure fig("fig05", argc, argv,
             {trace_flag(), {"--window", &bench_window()}});
  if (bench_window() == 0) fig.usage_error("--window: must be at least 1");
  fig.report.config.put("window", bench_window());
  for (size_t bytes : {size_t(64), size_t(512), size_t(128 << 10)}) {
    for (auto kind : kFigureProtocols) {
      for (int clients : client_counts()) {
        for (auto poll : {sim::PollMode::kBusy, sim::PollMode::kEvent}) {
          fig.add("Fig05/" + std::to_string(bytes) + "B/" +
                      std::string(proto::to_string(kind)) + "/c" +
                      std::to_string(clients) + "/" + poll_name(poll),
                  [=](Json& row) {
                    // A window needs enough calls per client to fill it.
                    const int iters = std::max(throughput_iters(clients),
                                               int(2 * bench_window()));
                    BenchProbe probe;
                    row.put("clients", clients);
                    measure_throughput(probe, kind, bytes, clients, poll,
                                       iters, /*numa_bind=*/true)
                        .report(row);
                    probe.report(row);
                  });
        }
      }
    }
  }
  return run_traced(fig);
}
