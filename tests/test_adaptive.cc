// Adaptive hints (ROADMAP item 4): the runtime controller that re-selects
// protocol, polling, and window from live counters. Covers the controller's
// hysteresis dead band and cooldown (no flapping at the 4 KB boundary), the
// epoch-swap protocol (in-flight windowed calls drain on the old plan, all
// succeed), live window resizing as a concurrency bound, the leased
// receive path (in-place delivery + slot repost), and the determinism
// oracle: a frozen controller drives its channel bit-identically to the
// static twin it wraps.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "hint/adaptive.h"
#include "hint/selection.h"
#include "proto/channel.h"
#include "sim/sync.h"
#include "verbs/verbs.h"

namespace hatrpc::hint {
namespace {

using proto::Buffer;
using proto::ChannelConfig;
using proto::Handler;
using proto::ProtocolKind;
using proto::View;
using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

Handler echo_handler(verbs::Node& server) {
  return [&server](View req) -> Task<Buffer> {
    co_await server.cpu().compute(200ns);
    co_return Buffer(req.begin(), req.end());
  };
}

/// A small-message eager prior, the static plan most tests start from.
Plan eager_prior(uint32_t payload = 512) {
  Plan p;
  p.protocol = ProtocolKind::kEagerSendRecv;
  p.client_poll = PollMode::kBusy;
  p.server_poll = PollMode::kBusy;
  p.expected_payload = payload;
  return p;
}

/// Controller params tuned for tests: decide quickly, no cooldown unless
/// the test sets one.
AdaptiveParams fast_params() {
  AdaptiveParams p;
  p.alpha = 0.5;
  p.min_samples = 2;
  p.cooldown = 0us;
  return p;
}

obs::CallSample sample(uint64_t bytes, uint32_t inflight = 1,
                       bool stalled = false) {
  return {bytes, bytes, stalled, inflight};
}

// ---------------------------------------------------------------------------
// AdaptiveController decision logic (no channel).
// ---------------------------------------------------------------------------

TEST(AdaptiveController, HysteresisDeadBandHoldsThePlanAtTheBoundary) {
  Simulator sim;
  AdaptiveParams p = fast_params();
  p.hysteresis = 0.25;  // dead band: 3072..5120 around the 4 KB switch
  AdaptiveController ctrl(sim, eager_prior(), p);

  // Payloads wandering WITHIN the band never flip the latched regime.
  for (uint64_t b : {4000u, 4300u, 3900u, 4500u, 3800u, 5000u, 3200u}) {
    ctrl.observe(sample(b));
    EXPECT_EQ(ctrl.maybe_replan(), std::nullopt) << b;
  }
  EXPECT_FALSE(ctrl.payload_large());
  EXPECT_EQ(ctrl.switches(), 0u);

  // Leaving the band on the far side flips it exactly once.
  std::optional<Plan> adopted;
  for (int i = 0; i < 8 && !adopted; ++i) {
    ctrl.observe(sample(64 << 10));
    adopted = ctrl.maybe_replan();
  }
  ASSERT_TRUE(adopted.has_value());
  EXPECT_TRUE(ctrl.payload_large());
  EXPECT_EQ(adopted->protocol, ProtocolKind::kWriteRndv);
  EXPECT_EQ(ctrl.switches(), 1u);
}

TEST(AdaptiveController, CooldownBoundsSwitchesUnderOscillation) {
  Simulator sim;
  AdaptiveParams p = fast_params();
  p.cooldown = std::chrono::milliseconds(10);
  AdaptiveController ctrl(sim, eager_prior(), p);

  // A workload oscillating hard across the 4 KB switch every few calls
  // would re-plan every interval without the cooldown; with it, at most
  // one adoption per cooldown period.
  uint64_t flips = 0;
  for (int round = 0; round < 40; ++round) {
    const uint64_t bytes = (round % 2) ? (64u << 10) : 64u;
    for (int i = 0; i < 4; ++i) ctrl.observe(sample(bytes));
    if (ctrl.maybe_replan()) ++flips;
    sim.run_until(sim.now() + std::chrono::microseconds(100));
  }
  // 40 rounds * 100us = 4ms of virtual time < one 10ms cooldown: after the
  // first adoption the controller must hold still.
  EXPECT_EQ(flips, 1u);
  EXPECT_EQ(ctrl.switches(), 1u);
}

TEST(AdaptiveController, PollingFollowsObservedConcurrency) {
  Simulator sim;
  AdaptiveParams p = fast_params();
  AdaptiveController ctrl(sim, eager_prior(), p);
  EXPECT_EQ(ctrl.subscription(), Subscription::kUnder);

  // Observed concurrency far over the 28-core budget: both sides drop to
  // event polling.
  std::optional<Plan> adopted;
  for (int i = 0; i < 16 && !adopted; ++i) {
    ctrl.observe(sample(512, /*inflight=*/160));
    adopted = ctrl.maybe_replan();
  }
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(ctrl.subscription(), Subscription::kOver);
  EXPECT_EQ(adopted->client_poll, PollMode::kEvent);
  EXPECT_EQ(adopted->server_poll, PollMode::kEvent);

  // Back under 16: busy polling returns.
  adopted.reset();
  for (int i = 0; i < 32 && !adopted; ++i) {
    ctrl.observe(sample(512, /*inflight=*/1));
    adopted = ctrl.maybe_replan();
  }
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(adopted->client_poll, PollMode::kBusy);
}

TEST(AdaptiveController, WindowGrowsOnStallsAndShrinksWhenIdle) {
  Simulator sim;
  AdaptiveParams p = fast_params();
  Plan prior = eager_prior();
  prior.window = 4;
  AdaptiveController ctrl(sim, prior, p);

  // Every call stalled on a full window: the window doubles.
  std::optional<Plan> adopted;
  for (int i = 0; i < 4 && !adopted; ++i) {
    ctrl.observe(sample(512, 8, /*stalled=*/true));
    adopted = ctrl.maybe_replan();
  }
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(adopted->window, 8u);

  // No stalls and in-flight well under half the window: it halves.
  adopted.reset();
  for (int i = 0; i < 64 && !adopted; ++i) {
    ctrl.observe(sample(512, 1, false));
    adopted = ctrl.maybe_replan();
  }
  ASSERT_TRUE(adopted.has_value());
  EXPECT_LT(adopted->window, 8u);
}

TEST(AdaptiveController, FrozenControllerNeverAdopts) {
  Simulator sim;
  AdaptiveController ctrl(sim, eager_prior(), fast_params());
  ctrl.freeze();
  for (int i = 0; i < 32; ++i) {
    ctrl.observe(sample(256 << 10, 200, true));
    EXPECT_EQ(ctrl.maybe_replan(), std::nullopt);
  }
  EXPECT_EQ(ctrl.switches(), 0u);
  // Observation still works frozen (the ablation observes, never acts).
  EXPECT_GT(ctrl.footprint().payload_ewma(), 0.0);
}

// ---------------------------------------------------------------------------
// AdaptiveChannel: live reconfigure and epoch swaps.
// ---------------------------------------------------------------------------

TEST(AdaptiveChannel, PayloadShiftSwapsEpochToRendezvousAndAllCallsSucceed) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  ChannelConfig cfg = ChannelConfig{}.with_window(4);
  auto ch = make_adaptive_channel(*cl, *sv, echo_handler(*sv), cfg,
                                  eager_prior(), fast_params());
  int failures = 0;
  sim::WaitGroup wg(sim);
  // Four lanes so the swap happens with calls in flight on the old epoch.
  for (int t = 0; t < 4; ++t) {
    wg.add();
    sim.spawn([](AdaptiveChannel& ch, int t, int& failures,
                 sim::WaitGroup& wg) -> Task<void> {
      for (int i = 0; i < 24; ++i) {
        // Phase shift at i==8: small -> large payloads.
        const size_t bytes = i < 8 ? 512 : (32u << 10) + 128 * t;
        Buffer req(bytes, std::byte(0x5a + t));
        auto r = co_await ch.call(req, uint32_t(bytes));
        if (!r || *r != req) ++failures;
      }
      wg.done();
    }(*ch, t, failures, wg));
  }
  sim.spawn([](sim::WaitGroup& wg, AdaptiveChannel& ch) -> Task<void> {
    co_await wg.wait();
    ch.shutdown();
  }(wg, *ch));
  sim.run();

  EXPECT_EQ(failures, 0);
  EXPECT_GE(ch->epoch(), 1u) << "payload shift should have rebuilt";
  EXPECT_EQ(ch->kind(), ProtocolKind::kWriteRndv);
  EXPECT_GE(cl->counters().get(obs::Ctr::kEpochSwaps), 1u);
  EXPECT_GE(cl->counters().get(obs::Ctr::kPlanSwitches), 1u);
}

TEST(AdaptiveChannel, ResizeWindowBoundsConcurrencyWithoutRebuilding) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  ChannelConfig cfg = ChannelConfig{}.with_window(8);
  int live = 0, peak = 0;
  Handler gauge = [&](View req) -> Task<Buffer> {
    ++live;
    if (live > peak) peak = live;
    co_await sv->cpu().compute(2us);
    --live;
    co_return Buffer(req.begin(), req.end());
  };
  auto ch = proto::make_channel(ProtocolKind::kEagerSendRecv, *cl, *sv,
                                gauge, cfg);
  EXPECT_FALSE(ch->resize_window(16)) << "beyond allocation needs a rebuild";
  EXPECT_TRUE(ch->resize_window(2));
  sim::WaitGroup wg(sim);
  for (int t = 0; t < 8; ++t) {
    wg.add();
    sim.spawn([](proto::RpcChannel& ch, sim::WaitGroup& wg) -> Task<void> {
      Buffer req(256, std::byte{0x11});
      for (int i = 0; i < 4; ++i) (co_await ch.call(req, 256)).value();
      wg.done();
    }(*ch, wg));
  }
  sim.spawn([](sim::WaitGroup& wg, proto::RpcChannel& ch) -> Task<void> {
    co_await wg.wait();
    ch.shutdown();
  }(wg, *ch));
  sim.run();
  EXPECT_LE(peak, 2) << "shrunk window must bound in-flight calls";

  // Re-grow within the allocation: the withheld slots come back.
  EXPECT_TRUE(ch->resize_window(8));
}

// ---------------------------------------------------------------------------
// Determinism oracle: frozen adaptive == static twin, bit for bit.
// ---------------------------------------------------------------------------

struct RunResult {
  std::string dump;
  sim::Time end{};
};

template <class MakeChannel>
RunResult run_phased(MakeChannel make) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  auto ch = make(sim, *cl, *sv);
  sim.spawn([](proto::RpcChannel& ch) -> Task<void> {
    for (int i = 0; i < 48; ++i) {
      const size_t bytes = (i / 8) % 2 ? 24000 : 512;  // phase shifts
      Buffer req(bytes, std::byte{0x3c});
      auto r = co_await ch.call(req, uint32_t(bytes));
      r.value();
    }
    ch.shutdown();
  }(*ch));
  sim.run();
  return {fabric.obs().counters.dump(), sim.now()};
}

TEST(AdaptiveChannel, FrozenRunIsBitIdenticalToTheStaticTwin) {
  ChannelConfig cfg = ChannelConfig{}.with_window(4);
  Plan prior = eager_prior();
  RunResult fixed = run_phased(
      [&](Simulator&, verbs::Node& cl, verbs::Node& sv) {
        return proto::make_channel(prior.protocol, cl, sv, echo_handler(sv),
                                   cfg);
      });
  RunResult frozen = run_phased(
      [&](Simulator&, verbs::Node& cl, verbs::Node& sv) {
        auto ch = make_adaptive_channel(cl, sv, echo_handler(sv), cfg, prior,
                                        fast_params());
        ch->freeze();
        return ch;
      });
  RunResult live = run_phased(
      [&](Simulator&, verbs::Node& cl, verbs::Node& sv) {
        return make_adaptive_channel(cl, sv, echo_handler(sv), cfg, prior,
                                     fast_params());
      });
  EXPECT_EQ(frozen.dump, fixed.dump);
  EXPECT_EQ(frozen.end, fixed.end);
  // Sanity: the UNfrozen controller actually diverges on this workload.
  EXPECT_NE(live.dump, fixed.dump);
}

// ---------------------------------------------------------------------------
// Lent Direct replies through the adaptive wrapper.
// ---------------------------------------------------------------------------

TEST(LeasedReceive, LentDirectReplyPassesThroughAndSurvivesSlotReuse) {
  // A Direct reply is lent from its response slot without holding it; the
  // adaptive wrapper passes the loan through, so a reply kept across the
  // next call (which reuses the slot) still reads its own bytes.
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  Plan prior = eager_prior();
  prior.protocol = ProtocolKind::kDirectWriteImm;
  auto ch = make_adaptive_channel(*cl, *sv, echo_handler(*sv), {}, prior,
                                  fast_params());
  ch->freeze();
  std::string first, second;
  sim.spawn([](proto::RpcChannel& ch, std::string& first,
               std::string& second) -> Task<void> {
    auto r1 = co_await ch.call_leased(proto::to_buffer("first"), 64);
    proto::LeasedReply kept = std::move(*r1);
    auto r2 = co_await ch.call_leased(proto::to_buffer("second"), 64);
    first = std::string(proto::as_string(kept.bytes()));
    second = std::string(proto::as_string(r2->bytes()));
    ch.shutdown();
  }(*ch, first, second));
  sim.run();
  EXPECT_EQ(first, "first");
  EXPECT_EQ(second, "second");
  EXPECT_EQ(sim.live_tasks(), 0u);
}

}  // namespace
}  // namespace hatrpc::hint
