// Tests for the observability layer (src/obs): exact per-call verbs-op
// footprints observed through the counter registry for the protocol kinds
// whose steady state is deterministic, byte-identical counter dumps for
// same-seed chaos runs, histogram percentile extraction, and the Chrome
// about:tracing JSON export.
//
// The exact counts pin the §3 cost-model arguments: Direct-WriteIMM is the
// 2-doorbell / zero-copy floor, chaining halves doorbells but not WQEs,
// eager pays 4x payload in staging copies, and the rendezvous/read-based
// designs pay fixed extra control ops.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "all_protocols.h"
#include "proto/channel.h"
#include "proto/reliable.h"
#include "trace_counts.h"
#include "verbs/fault.h"

namespace hatrpc::proto {
namespace {

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

/// Steady-state per-call footprint: one warm-up call, then `calls` measured
/// calls; returns the counter delta summed over every channel scope (hybrid
/// kinds register one scope per sub-channel) plus the trace events that
/// start while the measured calls run (one `wqe/<opcode>` span per WQE).
struct Footprint {
  obs::CounterSet ctrs;   // channel-scope counter delta over `calls`
  obs::TraceCounts trace;  // trace events over `calls`
  int calls = 0;

  /// Exact per-call value; fails the test if the total isn't an exact
  /// multiple (i.e. the protocol is not in a per-call steady state).
  uint64_t per_call(obs::Ctr c) const {
    EXPECT_EQ(ctrs.get(c) % uint64_t(calls), 0u) << obs::to_string(c);
    return ctrs.get(c) / uint64_t(calls);
  }
};

Footprint measure(ProtocolKind kind, size_t bytes, int calls = 4) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  fabric.obs().tracer.enable();
  ChannelConfig cfg;
  cfg.with_max_msg(1 << 20);
  auto ch = make_channel(kind, *cl, *sv, echo_handler(*sv), cfg);
  Footprint f;
  f.calls = calls;
  sim::Time from, to;
  sim.spawn([](verbs::Fabric& fabric, RpcChannel& ch, size_t bytes,
               int calls, Footprint& f, sim::Time& from,
               sim::Time& to) -> Task<void> {
    obs::Counters& ctrs = fabric.obs().counters;
    auto channel_sum = [&ctrs] {
      obs::CounterSet sum;
      for (uint32_t c = 0; c < ctrs.channel_count(); ++c)
        for (size_t i = 0; i < sum.v.size(); ++i)
          sum.v[i] += ctrs.channel(c).v[i];
      return sum;
    };
    Buffer payload(bytes, std::byte{0x7e});
    (co_await ch.call(payload, uint32_t(bytes))).value();  // warm-up
    obs::CounterSet base = channel_sum();
    from = fabric.simulator().now();
    for (int i = 0; i < calls; ++i)
      (co_await ch.call(payload, uint32_t(bytes))).value();
    f.ctrs = channel_sum().delta_since(base);
    to = fabric.simulator().now();
    ch.shutdown();
  }(fabric, *ch, bytes, calls, f, from, to));
  sim.run();
  // A WQE's span closes when it completes; by now every one has.
  f.trace = obs::TraceCounts(fabric.obs().tracer, from, to);
  return f;
}

// ---------------------------------------------------------------------------
// Exact per-call op counts (doorbells / WQEs / copies / READs) per protocol.
// ---------------------------------------------------------------------------

TEST(OpCounts, DirectWriteImmIsTwoDoorbellsZeroCopy) {
  Footprint f = measure(ProtocolKind::kDirectWriteImm, 512);
  EXPECT_EQ(f.per_call(obs::Ctr::kDoorbells), 2u);  // one WRITE_IMM per side
  EXPECT_EQ(f.per_call(obs::Ctr::kWqesPosted), 2u);
  EXPECT_EQ(f.per_call(obs::Ctr::kCopyBytes), 0u);  // true zero-copy
}

TEST(OpCounts, DirectWriteSendPaysFourDoorbells) {
  Footprint f = measure(ProtocolKind::kDirectWriteSend, 512);
  EXPECT_EQ(f.per_call(obs::Ctr::kDoorbells), 4u);  // WRITE + SEND per side
  EXPECT_EQ(f.per_call(obs::Ctr::kWqesPosted), 4u);
}

TEST(OpCounts, ChainedWriteSendHalvesDoorbellsNotWqes) {
  Footprint f = measure(ProtocolKind::kChainedWriteSend, 512);
  EXPECT_EQ(f.per_call(obs::Ctr::kDoorbells), 2u);  // one chain per side
  EXPECT_EQ(f.per_call(obs::Ctr::kWqesPosted), 4u);
}

TEST(OpCounts, EagerPaysFourPayloadCopiesPerEcho) {
  constexpr size_t kLen = 512;
  Footprint f = measure(ProtocolKind::kEagerSendRecv, kLen);
  EXPECT_EQ(f.per_call(obs::Ctr::kDoorbells), 2u);  // one SEND per side
  // Copy in + copy out, in each direction: 4x the payload per echo.
  EXPECT_EQ(f.per_call(obs::Ctr::kCopyBytes), 4 * kLen);
}

TEST(OpCounts, WriteRendezvousCostsSixDoorbells) {
  Footprint f = measure(ProtocolKind::kWriteRndv, 8192);
  // RTS + CTS + WRITE_IMM, each direction, each its own doorbell.
  EXPECT_EQ(f.per_call(obs::Ctr::kDoorbells), 6u);
  EXPECT_EQ(f.trace["wqe/send"], uint64_t(f.calls) * 4);
  EXPECT_EQ(f.trace["wqe/write_imm"], uint64_t(f.calls) * 2);
}

TEST(OpCounts, ReadRendezvousCostsFiveDoorbells) {
  Footprint f = measure(ProtocolKind::kReadRndv, 8192);
  // RTS each way + completion notify + one READ per side.
  EXPECT_EQ(f.per_call(obs::Ctr::kDoorbells), 5u);
  EXPECT_EQ(f.trace["wqe/read"], uint64_t(f.calls) * 2);
}

TEST(OpCounts, PilafIsThreeReadsOneWritePerCall) {
  Footprint f = measure(ProtocolKind::kPilaf, 512);
  // 2 metadata READs + 1 payload READ (retries excluded), 1 request WRITE.
  EXPECT_EQ(f.trace["wqe/read"] - f.trace["read-retry"], uint64_t(f.calls) * 3);
  EXPECT_EQ(f.trace["wqe/write"], uint64_t(f.calls));
}

TEST(OpCounts, FarmIsTwoReadsPerCall) {
  Footprint f = measure(ProtocolKind::kFarm, 512);
  EXPECT_EQ(f.trace["wqe/read"] - f.trace["read-retry"], uint64_t(f.calls) * 2);
}

TEST(OpCounts, HybridSmallTakesEagerPathLargeTakesRendezvous) {
  Footprint small = measure(ProtocolKind::kHybridEagerRndv, 512);
  EXPECT_EQ(small.per_call(obs::Ctr::kDoorbells), 2u);  // eager footprint
  EXPECT_EQ(small.trace["wqe/write_imm"], 0u);
  Footprint large = measure(ProtocolKind::kHybridEagerRndv, 8192);
  EXPECT_EQ(large.per_call(obs::Ctr::kDoorbells), 6u);  // Write-RNDV
  EXPECT_EQ(large.trace["wqe/write_imm"], uint64_t(large.calls) * 2);
}

TEST(OpCounts, DmaBytesScaleWithPayloadOnlyForZeroCopy) {
  Footprint a = measure(ProtocolKind::kDirectWriteImm, 512);
  Footprint b = measure(ProtocolKind::kDirectWriteImm, 4096);
  // Zero-copy: DMA grows with the payload, staging copies stay at zero.
  EXPECT_GT(b.per_call(obs::Ctr::kDmaBytes), a.per_call(obs::Ctr::kDmaBytes));
  EXPECT_GE(a.per_call(obs::Ctr::kDmaBytes), 2 * 512u);  // both directions
  EXPECT_EQ(b.per_call(obs::Ctr::kCopyBytes), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: same seed => byte-identical counter dump, even under chaos.
// ---------------------------------------------------------------------------

std::string chaos_counter_dump(uint64_t seed) {
  Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  RetryPolicy pol;
  pol.timeout = 500us;
  pol.jitter_seed = seed * 2654435761ULL + 1;
  auto ch = make_reliable_channel(ProtocolKind::kEagerSendRecv, *cl, *sv,
                                  echo_handler(*sv), ChannelConfig{}, pol);
  auto plan = std::make_unique<verbs::FaultPlan>(seed);
  plan->profile.drop = 0.05;
  plan->profile.corrupt = 0.03;
  plan->profile.duplicate = 0.05;
  plan->profile.delay = 0.10;
  plan->fail_qp_at(1, sim::Time(200us));
  fabric.set_fault_plan(std::move(plan));
  sim.spawn([](Simulator& sim, ReliableChannel& ch) -> Task<void> {
    for (int i = 0; i < 16; ++i) {
      Buffer payload(64 + size_t(i) * 8, std::byte{0x42});
      (void)co_await ch.call(payload);  // errors are part of the dump
      co_await sim.sleep(20us);
    }
    ch.abort();
  }(sim, *ch));
  sim.run();
  return fabric.obs().counters.dump();
}

TEST(Determinism, SameSeedSameCounterDumpUnderFaults) {
  std::string a = chaos_counter_dump(7);
  std::string b = chaos_counter_dump(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical
  // The dump must show real reliability work, not just clean traffic.
  EXPECT_NE(a.find("retransmits="), std::string::npos);
}

TEST(Determinism, DumpIsStableTextFormat) {
  obs::Counters c;
  c.node(0).add(obs::Ctr::kDoorbells, 3);
  c.node(1);  // registered but all-zero: line with no counters
  uint32_t ch = c.register_channel();
  c.channel(ch).add(obs::Ctr::kCopyBytes, 128);
  EXPECT_EQ(c.dump(), "node/0: doorbells=3\nnode/1:\nchannel/0: copy_bytes=128\n");
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesAreExact) {
  obs::Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.record_ns(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min_ns(), 1u);
  EXPECT_EQ(h.max_ns(), 10u);
  EXPECT_EQ(h.percentile_ns(0.50), 5u);  // values < 16 land in exact buckets
  EXPECT_EQ(h.percentile_ns(0.999), 10u);
}

TEST(Histogram, LargeValuesBoundedRelativeError) {
  obs::Histogram h;
  constexpr uint64_t kV = 123456789;
  h.record_ns(kV);
  uint64_t p99 = h.percentile_ns(0.99);
  EXPECT_GE(p99, kV);                       // conservative upper edge...
  EXPECT_LE(p99, kV + kV / 16 + 1);         // ...within one sub-bucket
  EXPECT_EQ(h.percentile_ns(0.5), kV);      // clamped to observed max
}

TEST(Histogram, SummaryIsDeterministicText) {
  obs::Histogram h;
  h.record(sim::Duration(1000));
  h.record(sim::Duration(2000));
  EXPECT_EQ(h.summary(), h.summary());
  EXPECT_NE(h.summary().find("count=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer: Chrome trace-event JSON shape.
// ---------------------------------------------------------------------------

TEST(Tracer, ExportsWellFormedChromeTraceJson) {
  obs::Tracer t;
  t.enable();
  t.set_process_name(0, "server");
  t.complete("call/Direct-WriteIMM", "rpc", sim::Time(1500ns), 2750ns, 0, 3);
  t.instant("retry", "rpc", sim::Time(5000ns), 1, 3);
  std::ostringstream os;
  t.write_json(os);
  std::string j = os.str();
  EXPECT_EQ(j.front(), '{');
  EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  // Virtual ns rendered as fixed-point microseconds (1500ns -> 1.500).
  EXPECT_NE(j.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(j.find("\"dur\":2.750"), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"call/Direct-WriteIMM\""), std::string::npos);
}

TEST(Tracer, AbsorbOffsetsPids) {
  obs::Tracer scenario;
  scenario.enable();
  scenario.complete("span", "rpc", sim::Time(0ns), 100ns, /*pid=*/2, 0);
  scenario.set_process_name(0, "server");
  obs::Tracer sink;
  sink.absorb(scenario, /*pid_base=*/10);
  std::ostringstream os;
  sink.write_json(os);
  EXPECT_NE(os.str().find("\"pid\":12"), std::string::npos);
  EXPECT_NE(os.str().find("\"pid\":10"), std::string::npos);
}

TEST(Tracer, ChannelsEmitSpansKeyedToVirtualTime) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  fabric.obs().tracer.enable();
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  auto ch = make_channel(ProtocolKind::kDirectWriteImm, *cl, *sv,
                         echo_handler(*sv), ChannelConfig{});
  sim.spawn([](RpcChannel& ch) -> Task<void> {
    Buffer payload(256, std::byte{0x1});
    for (int i = 0; i < 3; ++i)
      (co_await ch.call(payload, 256)).value();
    ch.shutdown();
  }(*ch));
  sim.run();
  std::ostringstream os;
  fabric.obs().tracer.write_json(os);
  std::string j = os.str();
  EXPECT_NE(j.find("call/Direct-WriteIMM"), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"rpc\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"verbs\""), std::string::npos);
  EXPECT_GT(fabric.obs().tracer.event_count(), 6u);  // >=1 span per call+op
}

TEST(Tracer, DisabledTracerRecordsNothingFromChannels) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  auto ch = make_channel(ProtocolKind::kDirectWriteImm, *cl, *sv,
                         echo_handler(*sv), ChannelConfig{});
  sim.spawn([](RpcChannel& ch) -> Task<void> {
    Buffer payload(256, std::byte{0x1});
    (co_await ch.call(payload, 256)).value();
    ch.shutdown();
  }(*ch));
  sim.run();
  EXPECT_EQ(fabric.obs().tracer.event_count(), 0u);
}

/// What one traced-or-not echo run leaves behind: its end time, its counter
/// dump, and (traced) its events by name plus the WQEs every node posted.
struct EchoRun {
  sim::Time end{};
  std::string dump;
  obs::TraceCounts trace;
  uint64_t wqes_posted = 0;
};

/// `window` callers each make three `bytes` echo calls on one `kind`
/// channel polled with `poll` on both sides.
EchoRun echo_run(ProtocolKind kind, uint32_t window, size_t bytes,
                 PollMode poll, bool traced) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  if (traced) fabric.obs().tracer.enable();
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  auto ch = make_channel(kind, *cl, *sv, echo_handler(*sv),
                         ChannelConfig{}.with_poll(poll).with_window(window));
  uint32_t live = window;
  for (uint32_t c = 0; c < window; ++c)
    sim.spawn([](RpcChannel& ch, size_t bytes, uint32_t& live) -> Task<void> {
      Buffer payload(bytes, std::byte{0x5a});
      for (int i = 0; i < 3; ++i)
        (co_await ch.call(payload, uint32_t(bytes))).value();
      if (--live == 0) ch.shutdown();
    }(*ch, bytes, live));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  return {sim.now(), fabric.obs().counters.dump(),
          obs::TraceCounts(fabric.obs().tracer),
          fabric.obs().counters.node_total(obs::Ctr::kWqesPosted)};
}

TEST(Tracer, TracingChangesNoRunAndSpansEveryWqe) {
  // The per-opcode footprint tests read `wqe/*` spans in place of counters
  // of their own; that holds only if tracing leaves the run untouched and
  // the fabric closes one span per WQE posted.
  for (ProtocolKind kind : kAllProtocols)
    for (uint32_t window : {1u, 4u})
      for (size_t bytes : {size_t{64}, size_t{16} << 10})
        for (PollMode poll : {PollMode::kBusy, PollMode::kEvent}) {
          SCOPED_TRACE(std::string(to_string(kind)) + " window " +
                       std::to_string(window) + " " + std::to_string(bytes) +
                       "B " + (poll == PollMode::kBusy ? "busy" : "event"));
          const EchoRun off = echo_run(kind, window, bytes, poll, false);
          const EchoRun on = echo_run(kind, window, bytes, poll, true);
          EXPECT_EQ(on.end, off.end);
          EXPECT_EQ(on.dump, off.dump);
          EXPECT_GT(on.wqes_posted, 0u);
          EXPECT_EQ(on.trace.with_prefix("wqe/"), on.wqes_posted);
          EXPECT_EQ(on.trace["call/" + std::string(to_string(kind))],
                    uint64_t{window} * 3);
        }
}

// ---------------------------------------------------------------------------
// Result<Buffer, RpcError>: the unified call() surface.
// ---------------------------------------------------------------------------

TEST(CallResult, ValueThrowsTheStoredError) {
  CallResult r(RpcError(RpcErrc::kTimeout, "deadline"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().errc(), RpcErrc::kTimeout);
  EXPECT_THROW((void)std::move(r).value(), RpcError);
}

TEST(CallResult, OkResultDereferences) {
  CallResult r(to_buffer("hi"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(as_string(*r), "hi");
  EXPECT_EQ(std::move(r).value().size(), 2u);
}

TEST(CallResult, FailedCallsAreCountedPerChannelAndNode) {
  // A hybrid forwards each call to an inner channel (the eager one is
  // channel 0 here), which counts the failure; the node counts it once.
  for (ProtocolKind kind :
       {ProtocolKind::kEagerSendRecv, ProtocolKind::kHybridEagerRndv,
        ProtocolKind::kArGrpc}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* cl = fabric.add_node();
    verbs::Node* sv = fabric.add_node();
    auto ch =
        make_channel(kind, *cl, *sv, echo_handler(*sv), ChannelConfig{});
    sim.spawn([](RpcChannel& ch) -> Task<void> {
      Buffer payload(64, std::byte{0x9});
      (co_await ch.call(payload, 64)).value();
      ch.abort();  // subsequent call must fail with a typed error
      CallResult r = co_await ch.call(payload, 64);
      EXPECT_FALSE(r.ok());
    }(*ch));
    sim.run();
    EXPECT_EQ(fabric.obs().counters.channel(0).get(obs::Ctr::kFailedCalls),
              1u);
    EXPECT_EQ(
        fabric.obs().counters.node(cl->id()).get(obs::Ctr::kFailedCalls), 1u);
  }
}

}  // namespace
}  // namespace hatrpc::proto
