// Figure 17 — TPC-H execution time per query on the 10-node cluster
// (1 coordinator + 9 workers): vanilla Thrift over IPoIB vs HatRPC-Service
// (service-granularity hints) vs HatRPC-Function (per-query payload/goal
// hints + NUMA binding). One row per (mode, query): `elapsed_ns` is the
// simulated query execution time. When every row ran, a summary block at
// the end prints total times and the per-query speedups the paper
// headlines (§5.5).
//
//   bench_fig17_tpch [--out F] [--filter S]
#include <cstdio>

#include "report.h"
#include "tpch/cluster.h"

namespace {

using namespace hatrpc;
using sim::Task;

constexpr double kScaleFactor = 0.05;
constexpr int kWorkers = 9;

constexpr tpch::TpchMode kModes[] = {tpch::TpchMode::kThriftIpoib,
                                     tpch::TpchMode::kHatService,
                                     tpch::TpchMode::kHatFunction};

/// Runs all 22 queries once per mode; memoized so each row just reads its
/// number (one cluster per mode, queries run back to back like
/// the paper's power run).
struct ModeRun {
  std::array<sim::Duration, 23> per_query{};
  sim::Duration total{};
};

const ModeRun& run_for(tpch::TpchMode mode) {
  static std::array<std::optional<ModeRun>, 3> cache;
  auto& slot = cache[static_cast<size_t>(mode)];
  if (slot) return *slot;
  ModeRun run;
  sim::Simulator sim;
  tpch::TpchCluster cluster(sim, kWorkers,
                            tpch::DbgenConfig{.scale_factor = kScaleFactor},
                            mode);
  sim.spawn([](tpch::TpchCluster& cluster, ModeRun& run) -> Task<void> {
    for (int q = 1; q <= 22; ++q) {
      co_await cluster.run_query(q);
      run.per_query[size_t(q)] = cluster.last_elapsed();
      run.total += cluster.last_elapsed();
    }
    cluster.stop();
  }(cluster, run));
  sim.run();
  slot = run;
  return *slot;
}

void print_summary() {
  const ModeRun& ipoib = run_for(tpch::TpchMode::kThriftIpoib);
  const ModeRun& svc = run_for(tpch::TpchMode::kHatService);
  const ModeRun& fn = run_for(tpch::TpchMode::kHatFunction);
  std::printf("\n=== Fig 17 summary (SF %.3f, %d workers) ===\n",
              kScaleFactor, kWorkers);
  std::printf("%-5s %12s %14s %15s %9s %9s\n", "query", "IPoIB(ms)",
              "HatSvc(ms)", "HatFn(ms)", "svc_x", "fn_x");
  double best_fn = 0, best_svc = 0;
  int best_fn_q = 0, best_svc_q = 0;
  for (int q = 1; q <= 22; ++q) {
    double a = sim::to_seconds(ipoib.per_query[size_t(q)]) * 1e3;
    double b = sim::to_seconds(svc.per_query[size_t(q)]) * 1e3;
    double c = sim::to_seconds(fn.per_query[size_t(q)]) * 1e3;
    double sx = b > 0 ? a / b : 0, fx = c > 0 ? a / c : 0;
    if (sx > best_svc) best_svc = sx, best_svc_q = q;
    if (fx > best_fn) best_fn = fx, best_fn_q = q;
    std::printf("Q%-4d %12.3f %14.3f %15.3f %8.2fx %8.2fx\n", q, a, b, c,
                sx, fx);
  }
  double ta = sim::to_seconds(ipoib.total) * 1e3;
  double tb = sim::to_seconds(svc.total) * 1e3;
  double tc = sim::to_seconds(fn.total) * 1e3;
  std::printf("%-5s %12.3f %14.3f %15.3f %8.2fx %8.2fx\n", "total", ta, tb,
              tc, ta / tb, ta / tc);
  std::printf("best per-query speedup: HatRPC-Service %.2fx (Q%d), "
              "HatRPC-Function %.2fx (Q%d)\n",
              best_svc, best_svc_q, best_fn, best_fn_q);
  std::printf("paper shapes: total 1.27x / up-to 1.51x for -Function; "
              "total 1.08x / up-to 1.21x for -Service\n");
}

}  // namespace

int main(int argc, char** argv) {
  hatbench::Figure fig("fig17", argc, argv);
  size_t ran = 0;
  for (auto mode : kModes) {
    for (int q = 1; q <= 22; ++q) {
      fig.add("Fig17/" + std::string(tpch::to_string(mode)) + "/Q" +
                  std::to_string(q),
              [mode, q, &ran](hatbench::Json& row) {
                ++ran;
                row.put("elapsed_ns",
                        run_for(mode).per_query[size_t(q)].count());
              });
    }
  }
  const size_t rows = fig.rows.size();
  const int status = fig.run();
  if (ran == rows) print_summary();
  return status;
}
