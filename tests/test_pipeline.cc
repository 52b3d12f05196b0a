// Windowed (pipelined) channel tests: N in-flight calls per channel with
// slot-tagged completion routing. Covers every protocol's windowed path
// (no slot cross-talk, also under shuffled same-instant schedules with
// RaceCheck on), an abort with the window full, window stalls, the
// fault-injected chaos harness
// composed with ReliableChannel (same-seed determinism), the SRQ-backed
// thrift server, and the headline speedup: a filled window beats the
// one-outstanding-call channel by pipelining wire, NIC, and handler time.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "all_protocols.h"
#include "proto/channel.h"
#include "proto/reliable.h"
#include "sim/sync.h"
#include "thrift/rdma.h"
#include "trace_counts.h"

namespace hatrpc {
namespace {

using proto::Buffer;
using proto::ChannelConfig;
using proto::kAllProtocols;
using proto::ProtocolKind;
using proto::View;
using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

struct Bed {
  Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
};

proto::Handler echo_handler() {
  return [](View req) -> Task<Buffer> {
    co_return Buffer(req.begin(), req.end());
  };
}

/// Unique payload per (lane, iteration): length and bytes both vary, so a
/// response routed to the wrong slot cannot pass the comparison.
Buffer lane_payload(uint32_t lane, int i) {
  Buffer b(24 + 8 * lane + size_t(i), std::byte(0x30 + lane * 7 + i));
  b[0] = std::byte(lane);
  b[1] = std::byte(i);
  return b;
}

/// Drives `lanes` concurrent lanes of `iters` echo calls each over one
/// channel and verifies every response matches its own request.
void drive_echo(Bed& bed, proto::RpcChannel& ch, uint32_t lanes, int iters) {
  sim::WaitGroup wg(bed.sim);
  wg.add(lanes);
  for (uint32_t l = 0; l < lanes; ++l) {
    bed.sim.spawn([](proto::RpcChannel& ch, uint32_t lane, int iters,
                     sim::WaitGroup& wg) -> Task<void> {
      for (int i = 0; i < iters; ++i) {
        Buffer req = lane_payload(lane, i);
        auto r = co_await ch.call(req, uint32_t(req.size()));
        EXPECT_TRUE(r.ok()) << "lane " << lane << " call " << i;
        if (r.ok()) {
          EXPECT_EQ(*r, req) << "slot cross-talk: lane " << lane
                             << " call " << i;
        }
      }
      wg.done();
    }(ch, l, iters, wg));
  }
  bed.sim.spawn([](Bed& bed, sim::WaitGroup& wg,
                   proto::RpcChannel& ch) -> Task<void> {
    co_await wg.wait();
    ch.shutdown();
  }(bed, wg, ch));
  bed.sim.run();
  EXPECT_EQ(bed.sim.live_tasks(), 0u);
}

class WindowedProtocol : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(WindowedProtocol, Window8EchoNoCrossTalk) {
  Bed bed;
  bed.fabric.obs().tracer.enable();
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kBusy).with_max_msg(8 << 10).with_window(8);
  auto ch = proto::make_channel(GetParam(), *bed.cl, *bed.sv, echo_handler(),
                                cfg);
  drive_echo(bed, *ch, /*lanes=*/8, /*iters=*/4);
  const obs::TraceCounts trace(bed.fabric.obs().tracer);
  EXPECT_EQ(trace["call/" + std::string(proto::to_string(GetParam()))], 32u);
}

std::string kind_name(const ::testing::TestParamInfo<ProtocolKind>& info) {
  std::string name(proto::to_string(info.param));
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, WindowedProtocol,
    ::testing::Values(ProtocolKind::kEagerSendRecv,
                      ProtocolKind::kDirectWriteSend,
                      ProtocolKind::kChainedWriteSend,
                      ProtocolKind::kWriteRndv, ProtocolKind::kReadRndv,
                      ProtocolKind::kDirectWriteImm, ProtocolKind::kPilaf,
                      ProtocolKind::kFarm, ProtocolKind::kRfp,
                      ProtocolKind::kHerd, ProtocolKind::kHybridEagerRndv),
    kind_name);

class WindowedTeardown : public ::testing::TestWithParam<ProtocolKind> {};

/// Four calls in flight on a window of 4 when the channel is aborted: each
/// fails with a typed RpcError, a later call fails without waiting, no task
/// stays parked, and every posted WQE retires with a completion. Payloads
/// alternate across the rendezvous threshold so both halves of a hybrid
/// have calls in flight.
TEST_P(WindowedTeardown, AbortFailsEveryInFlightCall) {
  Bed bed;
  bed.fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kBusy).with_max_msg(8 << 10).with_window(4);
  // A handler slower than the abort keeps every call in flight through it.
  proto::Handler slow = [&bed](View req) -> Task<Buffer> {
    co_await bed.sim.sleep(100us);
    co_return Buffer(req.begin(), req.end());
  };
  auto ch = proto::make_channel(GetParam(), *bed.cl, *bed.sv, slow, cfg);
  std::vector<proto::RpcErrc> errors;
  sim::WaitGroup wg(bed.sim);
  wg.add(4);
  for (uint32_t l = 0; l < 4; ++l) {
    bed.sim.spawn([](proto::RpcChannel& ch, Buffer req,
                     std::vector<proto::RpcErrc>& errors,
                     sim::WaitGroup& wg) -> Task<void> {
      proto::CallResult r = co_await ch.call(req, uint32_t(req.size()));
      EXPECT_FALSE(r.ok()) << "an in-flight call outlived the abort";
      if (!r.ok()) errors.push_back(r.error().errc());
      wg.done();
    }(*ch, Buffer(l % 2 ? 6000 : 64, std::byte(l)), errors, wg));
  }
  bed.sim.spawn([](Bed& bed, proto::RpcChannel& ch,
                   sim::WaitGroup& wg) -> Task<void> {
    co_await bed.sim.sleep(20us);
    ch.abort();
    co_await wg.wait();
    const sim::Time t0 = bed.sim.now();
    const Buffer req(64, std::byte{7});
    proto::CallResult late = co_await ch.call(req, 64);
    EXPECT_FALSE(late.ok()) << "a call on an aborted channel succeeded";
    EXPECT_EQ(bed.sim.now(), t0) << "a call on an aborted channel waited";
  }(bed, *ch, wg));
  bed.sim.run();
  EXPECT_EQ(errors.size(), 4u);
  EXPECT_EQ(bed.sim.live_tasks(), 0u);
  verbs::AuditReport audit = bed.fabric.audit();
  EXPECT_TRUE(audit.clean()) << audit.str();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowedTeardown,
                         ::testing::ValuesIn(kAllProtocols), kind_name);

class WindowedTiebreak : public ::testing::TestWithParam<ProtocolKind> {};

/// Four concurrent echo lanes on a window of 4, with same-instant events
/// shuffled by tiebreak seeds 0-3 and RaceCheck throwing at the first
/// unordered access: each caller must get its own echo back.
TEST_P(WindowedTiebreak, EachCallerGetsItsOwnEcho) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("tiebreak seed " + std::to_string(seed));
    Bed bed;
    bed.sim.racecheck().set_mode(sim::RaceCheck::Mode::kAbort);
    bed.sim.set_tiebreak_seed(seed);
    ChannelConfig cfg;
    cfg.with_poll(PollMode::kBusy).with_max_msg(8 << 10).with_window(4);
    auto ch = proto::make_channel(GetParam(), *bed.cl, *bed.sv,
                                  echo_handler(), cfg);
    drive_echo(bed, *ch, /*lanes=*/4, /*iters=*/4);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowedTiebreak,
                         ::testing::ValuesIn(kAllProtocols), kind_name);

TEST(Pipeline, EventPolledWindowedImm) {
  // The slot-tagged imm path through the event poller (interrupt pickup).
  Bed bed;
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kEvent).with_max_msg(4 << 10).with_window(4);
  auto ch = proto::make_channel(ProtocolKind::kDirectWriteImm, *bed.cl,
                                *bed.sv, echo_handler(), cfg);
  drive_echo(bed, *ch, 4, 4);
}

TEST(Pipeline, WindowStallsAreCounted) {
  // 4 lanes over a window of 2: at least two acquisitions must block.
  Bed bed;
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kBusy).with_max_msg(4 << 10).with_window(2);
  auto ch = proto::make_channel(ProtocolKind::kDirectWriteImm, *bed.cl,
                                *bed.sv, echo_handler(), cfg);
  drive_echo(bed, *ch, 4, 2);
  EXPECT_GT(bed.cl->counters().get(obs::Ctr::kWindowStalls), 0u);
  EXPECT_GT(bed.fabric.obs().counters.channel(0).get(obs::Ctr::kWindowStalls),
            0u);
}

TEST(Pipeline, WindowOneCountsNoStalls) {
  Bed bed;
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kBusy).with_max_msg(4 << 10).with_window(1);
  auto ch = proto::make_channel(ProtocolKind::kDirectWriteImm, *bed.cl,
                                *bed.sv, echo_handler(), cfg);
  drive_echo(bed, *ch, 1, 4);
  EXPECT_EQ(bed.cl->counters().get(obs::Ctr::kWindowStalls), 0u);
}

/// The chaos harness: window=8 ReliableChannel over a lossy, jittery wire.
/// Returns the deterministic counter dump so callers can compare runs.
std::string chaos_run() {
  Bed bed;
  auto plan = std::make_unique<verbs::FaultPlan>(123);
  plan->profile.drop = 0.05;
  plan->profile.delay = 0.10;
  bed.fabric.set_fault_plan(std::move(plan));
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kBusy).with_max_msg(8 << 10).with_window(8);
  auto ch = proto::make_reliable_channel(ProtocolKind::kDirectWriteImm,
                                         *bed.cl, *bed.sv, echo_handler(),
                                         cfg);
  drive_echo(bed, *ch, /*lanes=*/8, /*iters=*/4);
  return bed.fabric.obs().counters.dump();
}

TEST(Pipeline, ReliableWindowedSurvivesFaults) {
  // drive_echo asserts all 32 calls complete with matching payloads even
  // though ~5% of transmissions drop and ~10% see extra queueing delay.
  chaos_run();
}

TEST(Pipeline, ChaosRunsAreSeedDeterministic) {
  EXPECT_EQ(chaos_run(), chaos_run());
}

TEST(Pipeline, WindowedThroughputBeatsSerialByFourTimes) {
  // The acceptance bar: window=16 over Direct-WriteIMM at 64B with a 1us
  // handler must finish the same call count >= 4x faster in virtual time,
  // with fewer doorbells per call (batch-drained CQs + coalesced posts).
  struct Out {
    sim::Duration elapsed{};
    double doorbells_per_call = 0;
  };
  auto run = [](uint32_t window) {
    Bed bed;
    ChannelConfig cfg;
    cfg.with_poll(PollMode::kBusy).with_max_msg(4096).with_window(window);
    proto::Handler handler = [&bed](View req) -> Task<Buffer> {
      co_await bed.sv->cpu().compute(1us);
      co_return Buffer(req.begin(), req.end());
    };
    auto ch = proto::make_channel(ProtocolKind::kDirectWriteImm, *bed.cl,
                                  *bed.sv, handler, cfg);
    constexpr int kCalls = 64;
    sim::WaitGroup wg(bed.sim);
    wg.add(window);
    for (uint32_t l = 0; l < window; ++l) {
      bed.sim.spawn([](Bed& bed, proto::RpcChannel& ch, int iters,
                       sim::WaitGroup& wg) -> Task<void> {
        Buffer payload(64, std::byte{0x5a});
        for (int i = 0; i < iters; ++i)
          (co_await ch.call(payload, 64)).value();
        wg.done();
      }(bed, *ch, kCalls / int(window), wg));
    }
    Out out;
    bed.sim.spawn([](Bed& bed, sim::WaitGroup& wg, proto::RpcChannel& ch,
                     Out& out) -> Task<void> {
      co_await wg.wait();
      out.elapsed = bed.sim.now();
      ch.shutdown();
    }(bed, wg, *ch, out));
    bed.sim.run();
    uint64_t dbs = bed.cl->counters().get(obs::Ctr::kDoorbells) +
                   bed.sv->counters().get(obs::Ctr::kDoorbells);
    out.doorbells_per_call = double(dbs) / kCalls;
    return out;
  };
  Out serial = run(1);
  Out windowed = run(16);
  EXPECT_GE(serial.elapsed.count(), 4 * windowed.elapsed.count())
      << "serial " << serial.elapsed.count() << "ns vs windowed "
      << windowed.elapsed.count() << "ns";
  EXPECT_LT(windowed.doorbells_per_call, serial.doorbells_per_call);
}

TEST(Pipeline, ServerSrqFeedsWindowedChannels) {
  // TServerRdma with an SRQ: the accepted WriteIMM channel drains the
  // shared pool instead of per-connection recv rings, and keeps it
  // replenished (posts grow past the initial depth).
  Bed bed;
  thrift::TServerRdma server(*bed.sv, echo_handler(),
                             thrift::TServerRdma::Options{.srq_depth = 32});
  ASSERT_NE(server.shard(0).srq, nullptr);
  EXPECT_EQ(bed.sv->counters().get(obs::Ctr::kSrqPosts), 32u);
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kBusy).with_max_msg(4 << 10).with_window(8);
  drive_echo(bed, server.accept(*bed.cl, ProtocolKind::kDirectWriteImm, cfg),
             8, 4);
  server.stop();
  bed.sim.run();
  // Initial depth + one repost per consumed request.
  EXPECT_GT(bed.sv->counters().get(obs::Ctr::kSrqPosts), 32u);
}

}  // namespace
}  // namespace hatrpc
