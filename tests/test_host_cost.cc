// Host cost per call, pinned. A steady-state ATB Ping (generated stub,
// Direct-WriteIMM, busy polling, 512 B) allocates a fixed number of
// coroutine frames (and pooled shared blocks, which come from the same
// arena) and processes a fixed number of events; both counts are
// deterministic. The event count is the model's (every event is a
// modelled step), so it must not move when the simulator's host cost is
// cut. The frame count is that host cost: a step that completes with at
// most one timer is an awaiter and allocates no frame (DESIGN.md §12).
// FrameArena counts requests even where it passes them through (ASan), so
// the pin holds under sanitizers too.
#include <gtest/gtest.h>

#include <string>

#include "atb_gen.h"
#include "core/engine.h"
#include "sim/arena.h"

namespace hatrpc {
namespace {

using sim::Task;
using namespace std::chrono_literals;

class EchoAtb : public atb::AtbIf {
 public:
  explicit EchoAtb(verbs::Node& node) : node_(node) {}
  Task<std::string> Ping(const std::string& payload) override {
    co_await node_.cpu().compute(1us +
                                 sim::transfer_time(payload.size(), 20.0));
    co_return payload;
  }
  Task<std::string> Stream(const std::string& payload) override {
    co_return payload;
  }

 private:
  verbs::Node& node_;
};

struct PerCall {
  uint64_t frames = 0;
  uint64_t events = 0;
};

PerCall ping_cost(int warm, int timed) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server_node = fabric.add_node();
  core::HatServer server(*server_node, atb::Atb_hints(), {});
  EchoAtb handler(*server_node);
  atb::register_Atb(server.dispatcher(), handler);
  core::HatConnection conn(*fabric.add_node(), server);
  const hint::Plan& plan = conn.plan_for("Ping");
  EXPECT_EQ(plan.protocol, proto::ProtocolKind::kDirectWriteImm);
  EXPECT_EQ(plan.client_poll, sim::PollMode::kBusy);
  PerCall out;
  sim.spawn([](sim::Simulator& sim, core::HatConnection& conn, int warm,
               int timed, PerCall& out) -> Task<void> {
    atb::AtbClient stub(conn);
    const std::string payload(512, 'p');
    for (int i = 0; i < warm; ++i)
      EXPECT_EQ(co_await stub.Ping(payload), payload);
    const uint64_t frames0 = sim::FrameArena::instance().stats().allocs;
    const uint64_t events0 = sim.events_processed();
    for (int i = 0; i < timed; ++i)
      EXPECT_EQ(co_await stub.Ping(payload), payload);
    out.frames = sim::FrameArena::instance().stats().allocs - frames0;
    out.events = sim.events_processed() - events0;
    conn.close();
  }(sim, conn, warm, timed, out));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  return out;
}

TEST(HostCost, SteadyStatePingFramesAndEventsPerCall) {
  constexpr int kCalls = 64;
  const PerCall c = ping_cost(8, kCalls);
  // Every steady-state call costs the same, so the totals divide evenly.
  EXPECT_EQ(c.frames % kCalls, 0u);
  EXPECT_EQ(c.events % kCalls, 0u);
  EXPECT_EQ(c.frames / kCalls, 22u);
  EXPECT_EQ(c.events / kCalls, 22u);
}

}  // namespace
}  // namespace hatrpc
