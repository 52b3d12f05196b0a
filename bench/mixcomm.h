// Shared implementation of the ATB Mix-Comm benchmark (Figs. 13 and 14):
// every client issues a 50/50 random mix of a latency-hinted RPC and a
// throughput-hinted RPC (checksum server work scaling with payload, §5.3).
// HatRPC resolves a separate plan per function (optimization isolation:
// two channels per client); the baselines push both RPC types through one
// fixed protocol. Each row reports the latency calls' mean
// (`latency_fn_mean_ns`, and their percentiles as p50/p95/p99_ns) and the
// throughput calls' count over the run's span (`throughput_fn_calls` over
// `elapsed_ns`).
#pragma once

#include "common.h"

namespace hatbench {

/// Runs one Mix-Comm point and adds its fields to `row`.
inline void measure_mixcomm(Json& row, size_t bytes, int clients,
                            std::optional<proto::ProtocolKind> fixed) {
  const int iters = clients >= 128 ? 10 : 30;
  Testbed bed;
  hint::Plan lat_plan = hatrpc_plan(hint::PerfGoal::kLatency,
                                    uint32_t(clients), uint32_t(bytes));
  hint::Plan thr_plan = hatrpc_plan(hint::PerfGoal::kThroughput,
                                    uint32_t(clients), uint32_t(bytes));

  auto make = [&](verbs::Node* cn, const hint::Plan& plan) {
    proto::ChannelConfig cfg;
    cfg.max_msg = std::max<uint32_t>(64 << 10, uint32_t(bytes) * 2);
    if (fixed) {
      cfg.client_poll = sim::PollMode::kBusy;
      cfg.server_poll = sim::PollMode::kBusy;
      return proto::make_channel(*fixed, *cn, *bed.server,
                                 checksum_handler(*bed.server), cfg);
    }
    cfg.client_poll = plan.client_poll;
    cfg.server_poll = plan.server_poll;
    bool numa = plan.numa_bind && clients <= 16;
    cfg.client_numa_local = numa;
    cfg.server_numa_local = numa;
    return proto::make_channel(plan.protocol, *cn, *bed.server,
                               checksum_handler(*bed.server), cfg);
  };

  struct ClientChannels {
    std::unique_ptr<proto::RpcChannel> lat;
    std::unique_ptr<proto::RpcChannel> thr;  // == lat for baselines
  };
  // Like HatConnection, channels are shared when two functions resolve to
  // the same plan (same protocol + polling).
  bool plans_equal = lat_plan.protocol == thr_plan.protocol &&
                     lat_plan.client_poll == thr_plan.client_poll &&
                     lat_plan.server_poll == thr_plan.server_poll;
  std::vector<ClientChannels> chans;
  for (int c = 0; c < clients; ++c) {
    ClientChannels cc;
    cc.lat = make(bed.client_node(c), lat_plan);
    cc.thr = (fixed || plans_equal) ? nullptr
                                    : make(bed.client_node(c), thr_plan);
    chans.push_back(std::move(cc));
  }

  struct Totals {
    sim::Duration lat_total{};
    uint64_t lat_calls = 0;
    uint64_t thr_calls = 0;
    BenchProbe probe;
  } totals;

  sim::WaitGroup wg(bed.sim);
  wg.add(size_t(clients));
  for (int c = 0; c < clients; ++c) {
    bed.sim.spawn([](Testbed& bed, ClientChannels& cc, size_t bytes,
                     int iters, int seed, Totals& totals,
                     sim::WaitGroup& wg) -> Task<void> {
      sim::Rng rng(uint64_t(seed) * 7919 + 17);
      proto::Buffer payload(bytes);
      proto::RpcChannel& thr_ch = cc.thr ? *cc.thr : *cc.lat;
      for (int i = 0; i < iters; ++i) {
        fill_payload(payload, uint64_t(seed), uint64_t(i));
        const bool lat_fn = rng.chance(0.5);
        sim::Time t0 = bed.sim.now();
        auto r = co_await (lat_fn ? *cc.lat : thr_ch)
                     .call(payload, uint32_t(bytes));
        if (!echoed(r.value(), payload))
          ++totals.probe.echo_mismatches;
        if (lat_fn) {
          totals.lat_total += bed.sim.now() - t0;
          totals.probe.hist.record(bed.sim.now() - t0);
          ++totals.lat_calls;
        } else {
          ++totals.thr_calls;
        }
      }
      wg.done();
    }(bed, chans[size_t(c)], bytes, iters, c, totals, wg));
  }
  sim::Time end{};
  bed.sim.spawn([](Testbed& bed, sim::WaitGroup& wg, sim::Time& end,
                   std::vector<ClientChannels>& chans) -> Task<void> {
    co_await wg.wait();
    end = bed.sim.now();
    for (auto& cc : chans) {
      cc.lat->shutdown();
      if (cc.thr) cc.thr->shutdown();
    }
  }(bed, wg, end, chans));
  bed.sim.run();
  totals.probe.finish(bed, uint64_t(clients) * uint64_t(iters),
                      "mix/" + std::to_string(bytes) + "B/c" +
                          std::to_string(clients));

  row.put("latency_fn_calls", totals.lat_calls)
      .put("latency_fn_mean_ns",
           totals.lat_calls
               ? (totals.lat_total / int64_t(totals.lat_calls)).count()
               : 0)
      .put("throughput_fn_calls", totals.thr_calls)
      .put("elapsed_ns", end.count());
  totals.probe.report(row);
}

/// Mix-Comm figure `number` at `bytes` per call: the HatRPC series and the
/// fixed baselines, at every client count.
inline int run_mixcomm(int number, size_t bytes, int argc, char** argv) {
  const std::string fig = std::to_string(number);
  Figure figure("fig" + fig, argc, argv, {trace_flag()});
  for (int clients : client_counts()) {
    figure.add("Fig" + fig + "/HatRPC/c" + std::to_string(clients),
               [=](Json& row) {
                 measure_mixcomm(row, bytes, clients, std::nullopt);
               });
  }
  for (auto [label, kind] : kAtbBaselines) {
    for (int clients : client_counts()) {
      figure.add("Fig" + fig + "/" + label + "/c" + std::to_string(clients),
                 [=](Json& row) {
                   measure_mixcomm(row, bytes, clients, kind);
                 });
    }
  }
  return run_traced(figure);
}

}  // namespace hatbench
