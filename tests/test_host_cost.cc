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
//
// HostCost.EveryKindFramesAndEventsPer64Calls pins the same two counts for
// raw make_channel echo calls of every protocol kind at 512 B and 128 KiB
// (window 1, busy polling), so a change that adds a frame to any one
// protocol's call or serve path shows up by name.
#include <gtest/gtest.h>

#include <string>

#include "atb_gen.h"
#include "core/engine.h"
#include "proto/channel.h"
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
  EXPECT_EQ(c.frames / kCalls, 21u);
  EXPECT_EQ(c.events / kCalls, 21u);
}

/// Frames and events over `timed` echo calls of `bytes` on a fresh `kind`
/// channel (window 1, busy polling), after `warm` untimed calls.
PerCall echo_cost(proto::ProtocolKind kind, size_t bytes, int warm,
                  int timed) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* client = fabric.add_node();
  verbs::Node* server = fabric.add_node();
  proto::Handler echo = [server](proto::View req) -> Task<proto::Buffer> {
    co_await server->cpu().compute(1us +
                                   sim::transfer_time(req.size(), 20.0));
    co_return proto::Buffer(req.begin(), req.end());
  };
  auto ch = proto::make_channel(
      kind, *client, *server, echo,
      proto::ChannelConfig{}.with_poll(sim::PollMode::kBusy).with_window(1));
  PerCall out;
  sim.spawn([](sim::Simulator& sim, proto::RpcChannel& ch, size_t bytes,
               int warm, int timed, PerCall& out) -> Task<void> {
    const proto::Buffer req(bytes, std::byte{'p'});
    const auto hint = static_cast<uint32_t>(bytes);
    for (int i = 0; i < warm; ++i)
      EXPECT_EQ((co_await ch.call(req, hint)).value(), req);
    const uint64_t frames0 = sim::FrameArena::instance().stats().allocs;
    const uint64_t events0 = sim.events_processed();
    for (int i = 0; i < timed; ++i)
      EXPECT_EQ((co_await ch.call(req, hint)).value(), req);
    out.frames = sim::FrameArena::instance().stats().allocs - frames0;
    out.events = sim.events_processed() - events0;
    ch.shutdown();
  }(sim, *ch, bytes, warm, timed, out));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  return out;
}

TEST(HostCost, EveryKindFramesAndEventsPer64Calls) {
  using K = proto::ProtocolKind;
  struct Pin {
    K kind;
    size_t bytes;
    uint64_t frames;  // over 64 calls
    uint64_t events;
  };
  const Pin pins[] = {
      {K::kEagerSendRecv, 512, 1088, 1472},
      {K::kEagerSendRecv, 128 << 10, 19520, 50496},
      {K::kDirectWriteSend, 512, 1408, 1600},
      {K::kDirectWriteSend, 128 << 10, 1408, 5696},
      {K::kChainedWriteSend, 512, 1536, 1728},
      {K::kChainedWriteSend, 128 << 10, 1536, 5824},
      {K::kWriteRndv, 512, 2432, 3136},
      {K::kWriteRndv, 128 << 10, 2432, 7104},
      {K::kReadRndv, 512, 2048, 3008},
      {K::kReadRndv, 128 << 10, 2048, 6976},
      {K::kDirectWriteImm, 512, 1024, 1088},
      {K::kDirectWriteImm, 128 << 10, 1024, 5056},
      {K::kPilaf, 512, 1920, 3328},
      {K::kPilaf, 128 << 10, 5120, 14464},
      {K::kFarm, 512, 1600, 2624},
      {K::kFarm, 128 << 10, 4800, 13760},
      {K::kRfp, 512, 1020, 1412},
      {K::kRfp, 128 << 10, 1290, 7125},
      {K::kHerd, 512, 896, 1152},
      {K::kHerd, 128 << 10, 10112, 27712},
      {K::kHybridEagerRndv, 512, 1216, 1472},
      {K::kHybridEagerRndv, 128 << 10, 2560, 7104},
      {K::kArGrpc, 512, 1216, 1472},
      {K::kArGrpc, 128 << 10, 2176, 6976},
  };
  for (const Pin& pin : pins) {
    const PerCall c = echo_cost(pin.kind, pin.bytes, 8, 64);
    EXPECT_EQ(c.frames, pin.frames)
        << proto::to_string(pin.kind) << " " << pin.bytes << " B";
    EXPECT_EQ(c.events, pin.events)
        << proto::to_string(pin.kind) << " " << pin.bytes << " B";
  }
}

}  // namespace
}  // namespace hatrpc
