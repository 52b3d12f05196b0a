// Cross-stack integration & figure-shape regression tests: the key
// qualitative results the benchmarks report, pinned at reduced scale so
// regressions in the cost model or protocol engine fail fast here:
//   * busy polling collapses under over-subscription (Fig 5);
//   * the hint-selected plan tracks the best baseline (Figs 11/12);
//   * function-level isolation keeps a latency RPC fast next to bulk
//     traffic (Figs 13/14);
//   * full determinism of a multi-client end-to-end scenario.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "hint/selection.h"

namespace hatrpc {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

proto::Handler work_handler(verbs::Node& server) {
  return [&server](proto::View req) -> Task<proto::Buffer> {
    co_await server.cpu().compute(1us +
                                  sim::transfer_time(req.size(), 20.0));
    co_return proto::Buffer(req.begin(), req.end());
  };
}

struct ThroughputRun {
  double mops;
  uint64_t events;
};

ThroughputRun run_many_clients(proto::ProtocolKind kind, size_t bytes,
                               int clients, PollMode poll) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server = fabric.add_node();
  std::vector<verbs::Node*> cnodes;
  for (int i = 0; i < 9; ++i) cnodes.push_back(fabric.add_node());
  proto::ChannelConfig cfg;
  cfg.client_poll = poll;
  cfg.server_poll = poll;
  cfg.max_msg = std::max<uint32_t>(64 << 10, uint32_t(bytes) * 2);
  std::vector<std::unique_ptr<proto::RpcChannel>> chans;
  sim::WaitGroup wg(sim);
  wg.add(size_t(clients));
  for (int c = 0; c < clients; ++c) {
    chans.push_back(proto::make_channel(kind, *cnodes[size_t(c) % 9],
                                        *server, work_handler(*server),
                                        cfg));
    sim.spawn([](proto::RpcChannel& ch, size_t bytes,
                 sim::WaitGroup& wg) -> Task<void> {
      proto::Buffer payload(bytes, std::byte{0x1});
      for (int i = 0; i < 12; ++i)
        (co_await ch.call(payload, uint32_t(bytes))).value();
      wg.done();
    }(*chans.back(), bytes, wg));
  }
  sim::Time end{};
  sim.spawn([](Simulator& sim, sim::WaitGroup& wg, sim::Time& end,
               std::vector<std::unique_ptr<proto::RpcChannel>>& chans)
                -> Task<void> {
    co_await wg.wait();
    end = sim.now();
    for (auto& ch : chans) ch->shutdown();
  }(sim, wg, end, chans));
  sim.run();
  double secs = sim::to_seconds(end);
  return {double(clients) * 12 / secs / 1e6, sim.events_processed()};
}

TEST(FigureShapes, BusyPollingCollapsesUnderOversubscription) {
  // Fig 5 @512B: at 128 clients event polling must clearly beat busy
  // polling; at 8 clients busy must win.
  ThroughputRun busy_s = run_many_clients(
      proto::ProtocolKind::kDirectWriteImm, 512, 8, PollMode::kBusy);
  ThroughputRun event_s = run_many_clients(
      proto::ProtocolKind::kDirectWriteImm, 512, 8, PollMode::kEvent);
  EXPECT_GT(busy_s.mops, event_s.mops);
  ThroughputRun busy_l = run_many_clients(
      proto::ProtocolKind::kDirectWriteImm, 512, 128, PollMode::kBusy);
  ThroughputRun event_l = run_many_clients(
      proto::ProtocolKind::kDirectWriteImm, 512, 128, PollMode::kEvent);
  EXPECT_GT(event_l.mops, busy_l.mops * 1.5);
}

TEST(FigureShapes, HintSelectedPlanTracksBestBaseline) {
  // Figs 11/12: the plan the Figure-6 map derives must be within 3% of the
  // best fixed baseline at sampled (payload, clients) points.
  const proto::ProtocolKind baselines[] = {
      proto::ProtocolKind::kHybridEagerRndv,
      proto::ProtocolKind::kDirectWriteSend,
      proto::ProtocolKind::kRfp,
      proto::ProtocolKind::kDirectWriteImm,
  };
  for (auto [bytes, clients] : {std::pair<size_t, int>{512, 8},
                                {512, 96},
                                {131072, 8}}) {
    hint::Plan plan = hint::select_plan_raw(
        hint::PerfGoal::kThroughput, uint32_t(clients), uint32_t(bytes),
        false, hint::SelectionParams{});
    double hat =
        run_many_clients(plan.protocol, bytes, clients, plan.client_poll)
            .mops;
    for (auto kind : baselines) {
      double base =
          run_many_clients(kind, bytes, clients, PollMode::kBusy).mops;
      EXPECT_GE(hat, base * 0.97)
          << bytes << "B x" << clients << " vs " << proto::to_string(kind);
    }
  }
}

TEST(FigureShapes, FunctionIsolationProtectsLatencyRpc) {
  // Figs 13/14 mechanism: with per-function plans, a latency RPC running
  // beside bulk 128KB traffic on the same connection stays close to its
  // unloaded latency (its own busy-polled channel), while pushing both
  // through one event-polled bulk plan inflates it.
  auto run_mix = [](bool isolated) {
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* server = fabric.add_node();
    verbs::Node* cnode = fabric.add_node();
    proto::ChannelConfig lat_cfg;
    lat_cfg.client_poll = PollMode::kBusy;
    lat_cfg.server_poll = PollMode::kBusy;
    proto::ChannelConfig bulk_cfg;
    bulk_cfg.client_poll = PollMode::kEvent;
    bulk_cfg.server_poll = PollMode::kEvent;
    bulk_cfg.max_msg = 512 << 10;
    auto bulk = proto::make_channel(proto::ProtocolKind::kDirectWriteImm,
                                    *cnode, *server, work_handler(*server),
                                    bulk_cfg);
    auto lat = isolated
                   ? proto::make_channel(proto::ProtocolKind::kDirectWriteImm,
                                         *cnode, *server,
                                         work_handler(*server), lat_cfg)
                   : nullptr;
    sim::Duration lat_total{};
    int lat_calls = 0;
    bool bulk_done = false;
    bool lat_done = false;
    sim.spawn([](proto::RpcChannel& ch, bool& done) -> Task<void> {
      proto::Buffer big(128 << 10, std::byte{0x2});
      for (int i = 0; i < 20; ++i) (co_await ch.call(big, 128 << 10)).value();
      done = true;
    }(*bulk, bulk_done));
    sim.spawn([](Simulator& sim, proto::RpcChannel& ch,
                 sim::Duration& total, int& calls, bool& bulk_done,
                 bool& lat_done) -> Task<void> {
      proto::Buffer small(256, std::byte{0x3});
      while (!bulk_done) {
        sim::Time t0 = sim.now();
        (co_await ch.call(small, 256)).value();
        total += sim.now() - t0;
        ++calls;
      }
      lat_done = true;
    }(sim, isolated ? *lat : *bulk, lat_total, lat_calls, bulk_done,
      lat_done));
    // Teardown waits for the latency loop's last call too: shutting the
    // channels down under it would flush that call.
    sim.spawn([](Simulator& sim, bool& bulk_done, bool& lat_done,
                 proto::RpcChannel* a, proto::RpcChannel* b) -> Task<void> {
      while (!bulk_done || !lat_done) co_await sim.sleep(50us);
      a->shutdown();
      if (b) b->shutdown();
    }(sim, bulk_done, lat_done, bulk.get(), lat.get()));
    sim.run();
    return lat_total / std::max(lat_calls, 1);
  };
  sim::Duration isolated = run_mix(true);
  sim::Duration shared = run_mix(false);
  EXPECT_LT(isolated, shared);
}

TEST(Integration, EndToEndScenarioIsDeterministic) {
  auto run_once = []() {
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* sn = fabric.add_node();
    hint::ServiceHints h;
    h.function("Work").add(hint::Side::kShared, hint::Key::kPayloadSize,
                           hint::parse_value(hint::Key::kPayloadSize,
                                             "2048"));
    core::HatServer server(*sn, h, {});
    server.dispatcher().register_method(
        "Work",
        [sn](core::View req, thrift::TMemoryBuffer& out) -> Task<void> {
          co_await sn->cpu().compute(700ns);
          out.write(req.data(), req.size());
        });
    std::vector<std::unique_ptr<core::HatConnection>> conns;
    sim::WaitGroup wg(sim);
    wg.add(12);
    for (int c = 0; c < 12; ++c) {
      conns.push_back(
          std::make_unique<core::HatConnection>(*fabric.add_node(), server));
      sim.spawn([](core::HatConnection& conn, sim::WaitGroup& wg)
                    -> Task<void> {
        core::Buffer payload(2048, std::byte{0x6});
        for (int i = 0; i < 10; ++i) co_await conn.call_raw("Work", payload);
        wg.done();
      }(*conns.back(), wg));
    }
    sim::Time end{};
    sim.spawn([](Simulator& sim, sim::WaitGroup& wg, sim::Time& end,
                 core::HatServer& server) -> Task<void> {
      co_await wg.wait();
      end = sim.now();
      server.stop();
    }(sim, wg, end, server));
    sim.run();
    return std::pair(end, sim.events_processed());
  };
  auto [t1, e1] = run_once();
  auto [t2, e2] = run_once();
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(e1, e2);
  EXPECT_GT(e1, 1000u);
}

}  // namespace
}  // namespace hatrpc
