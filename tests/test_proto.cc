// Tests for the RDMA protocol engine: functional round-trip correctness for
// every protocol across payload sizes (parameterized sweep), per-protocol
// verbs-operation footprints (WQEs by opcode and READ retries, counted from
// the run's trace), latency orderings the paper's Fig. 4 analysis relies
// on, memory-registration accounting (the server node's mr_bytes), and
// clean shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "all_protocols.h"
#include "trace_counts.h"
#include "proto/base.h"
#include "proto/channel.h"
#include "proto/eager_pipe.h"
#include "proto/hybrid.h"
#include "proto/wire.h"
#include "sim/rng.h"

namespace hatrpc::proto {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

/// Echo handler that upper-cases the payload so tests prove bytes really
/// travelled through the server (and charges a small per-byte compute).
Handler make_upcase_handler(verbs::Node& server) {
  return [&server](View req) -> Task<Buffer> {
    co_await server.cpu().compute(200ns + sim::Duration(req.size() / 16));
    Buffer out(req.begin(), req.end());
    for (auto& b : out) {
      char c = static_cast<char>(b);
      if (c >= 'a' && c <= 'z') b = static_cast<std::byte>(c - 32);
    }
    co_return out;
  };
}

struct RpcResult {
  std::string response;
  sim::Time elapsed{};
  obs::TraceCounts trace;  // the run's spans and instants by name
  uint64_t server_mr_bytes = 0;  // registered at the server node
  size_t leaked_tasks = 0;
};

/// The span name of one returned call on a `kind` channel.
std::string call_span(ProtocolKind kind) {
  return "call/" + std::string(to_string(kind));
}

RpcResult run_rpc(ProtocolKind kind, const std::string& payload,
                  ChannelConfig cfg, int repeats = 1) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* client = fabric.add_node();
  verbs::Node* server = fabric.add_node();
  fabric.obs().tracer.enable();
  auto ch = make_channel(kind, *client, *server,
                         make_upcase_handler(*server), cfg);
  RpcResult result;
  sim.spawn([](Simulator& sim, RpcChannel& ch, const std::string& payload,
               int repeats, RpcResult& result) -> Task<void> {
    for (int i = 0; i < repeats; ++i) {
      Buffer resp = (co_await ch.call(
          to_buffer(payload), static_cast<uint32_t>(payload.size()))).value();
      result.response = as_string(resp);
    }
    result.elapsed = sim.now();
    ch.shutdown();
  }(sim, *ch, payload, repeats, result));
  sim.run();
  result.trace = obs::TraceCounts(fabric.obs().tracer);
  result.server_mr_bytes = server->counters().get(obs::Ctr::kMrBytes);
  result.leaked_tasks = sim.live_tasks();
  return result;
}

std::string payload_of(size_t n) {
  std::string s(n, 'x');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>('a' + i % 26);
  return s;
}

std::string upcased(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](char c) { return c >= 'a' && c <= 'z' ? c - 32 : c; });
  return s;
}

// ---------------------------------------------------------------------------
// Property sweep: every protocol echoes correctly for every payload size and
// both polling disciplines, and its server loop shuts down cleanly.
// ---------------------------------------------------------------------------
class ProtocolRoundTrip
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, size_t, int>> {
};

TEST_P(ProtocolRoundTrip, EchoesAcrossSizesAndPolling) {
  auto [kind, size, poll] = GetParam();
  ChannelConfig cfg;
  cfg.client_poll = poll == 0 ? PollMode::kBusy : PollMode::kEvent;
  cfg.server_poll = cfg.client_poll;
  cfg.max_msg = 1 << 20;
  std::string payload = payload_of(size);
  RpcResult r = run_rpc(kind, payload, cfg, /*repeats=*/2);
  EXPECT_EQ(r.response, upcased(payload)) << to_string(kind);
  EXPECT_EQ(r.trace[call_span(kind)], 2u);
  EXPECT_EQ(r.leaked_tasks, 0u) << "server loop leaked for "
                                << to_string(kind);
  EXPECT_GT(r.elapsed, 0ns);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolRoundTrip,
    ::testing::Combine(::testing::ValuesIn(kAllProtocols),
                       ::testing::Values<size_t>(0, 1, 17, 512, 4096, 5000,
                                                 65536, 262144),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      std::string name(to_string(std::get<0>(info.param)));
      std::erase(name, '-');
      return name + "_" + std::to_string(std::get<1>(info.param)) + "B_" +
             (std::get<2>(info.param) == 0 ? "busy" : "event");
    });

// ---------------------------------------------------------------------------
// Per-protocol verbs footprints.
// ---------------------------------------------------------------------------

TEST(ProtocolFootprint, DirectWriteImmUsesOneWqePerDirection) {
  RpcResult r = run_rpc(ProtocolKind::kDirectWriteImm, payload_of(512), {});
  EXPECT_EQ(r.trace["wqe/write_imm"], 2u);  // request + response
  EXPECT_EQ(r.trace["wqe/send"], 0u);
  EXPECT_EQ(r.trace["wqe/write"], 0u);
  EXPECT_EQ(r.trace["wqe/read"], 0u);
}

TEST(ProtocolFootprint, DirectWriteSendUsesWritePlusSend) {
  RpcResult r = run_rpc(ProtocolKind::kDirectWriteSend, payload_of(512), {});
  EXPECT_EQ(r.trace["wqe/write"], 2u);
  EXPECT_EQ(r.trace["wqe/send"], 2u);
  EXPECT_EQ(r.trace["wqe/write_imm"], 0u);
}

TEST(ProtocolFootprint, PilafIssuesAtLeastThreeReads) {
  RpcResult r = run_rpc(ProtocolKind::kPilaf, payload_of(512), {});
  EXPECT_GE(r.trace["wqe/read"], 3u);  // 2 metadata + 1 payload (+ retries)
  EXPECT_EQ(r.trace["wqe/read"] - r.trace["read-retry"], 3u);
}

TEST(ProtocolFootprint, FarmIssuesAtLeastTwoReads) {
  RpcResult r = run_rpc(ProtocolKind::kFarm, payload_of(512), {});
  EXPECT_GE(r.trace["wqe/read"], 2u);
  EXPECT_EQ(r.trace["wqe/read"] - r.trace["read-retry"], 2u);
}

TEST(ProtocolFootprint, SlowRepliesRetryOnlyTheReadinessProbe) {
  // A 64 KiB echo keeps the handler busy past the first probe READ, so the
  // probe repeats (one read-retry instant each) and the other READs stay
  // exact: Pilaf's 3 per call, FaRM's 2.
  for (auto [kind, reads] : {std::pair{ProtocolKind::kPilaf, 3u},
                             std::pair{ProtocolKind::kFarm, 2u}}) {
    RpcResult r = run_rpc(kind, payload_of(65536), {}, 4);
    EXPECT_GT(r.trace["read-retry"], 0u) << to_string(kind);
    EXPECT_EQ(r.trace["wqe/read"] - r.trace["read-retry"], 4u * reads)
        << to_string(kind);
  }
}

TEST(ProtocolFootprint, RfpFetchesWithSingleSizedRead) {
  // Repeat enough calls for the adaptive fetch delay to converge; the
  // steady state is one sized READ per call (plus the request WRITE).
  RpcResult r = run_rpc(ProtocolKind::kRfp, payload_of(512), {}, 20);
  EXPECT_EQ(r.trace["wqe/write"], 20u);  // one request write per call
  double reads_per_call =
      double(r.trace["wqe/read"] - r.trace["read-retry"]) / 20.0;
  EXPECT_LT(reads_per_call, 1.6);  // ~1 sized fetch (+ rare slow-path pair)
}

TEST(ProtocolFootprint, RfpUndersizedHintPaysASecondRead) {
  // Call with a tiny hint so the first fetch misses part of the payload.
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* client = fabric.add_node();
  verbs::Node* server = fabric.add_node();
  fabric.obs().tracer.enable();
  auto ch = make_channel(ProtocolKind::kRfp, *client, *server,
                         make_upcase_handler(*server), {});
  std::string payload = payload_of(8192);
  std::string got;
  sim.spawn([](RpcChannel& ch, const std::string& payload,
               std::string& got) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      Buffer resp =
          (co_await ch.call(to_buffer(payload), /*hint=*/128)).value();
      got = as_string(resp);
    }
    ch.shutdown();
  }(*ch, payload, got));
  sim.run();
  EXPECT_EQ(got, upcased(payload));
  const obs::TraceCounts s(fabric.obs().tracer);
  // Each call needs more than the single sized fetch (tail or slow path).
  EXPECT_GE(s["wqe/read"] - s["read-retry"], 10u);
}

TEST(ProtocolFootprint, HerdRespondsWithSend) {
  RpcResult r = run_rpc(ProtocolKind::kHerd, payload_of(512), {});
  EXPECT_EQ(r.trace["wqe/write"], 1u);  // request
  EXPECT_GE(r.trace["wqe/send"], 1u);   // response via SEND
  EXPECT_EQ(r.trace["wqe/read"], 0u);
}

TEST(ProtocolFootprint, EagerSegmentsLargeMessages) {
  RpcResult r = run_rpc(ProtocolKind::kEagerSendRecv, payload_of(65536), {});
  // 64 KB over 4 KB slots, each fragment with its header: at least 17
  // segments each way.
  static_assert(kEagerSlot == 4096);
  EXPECT_GE(r.trace["wqe/send"], 34u);
}

TEST(ProtocolFootprint, RendezvousExchangesControlMessages) {
  RpcResult w = run_rpc(ProtocolKind::kWriteRndv, payload_of(8192), {});
  EXPECT_GE(w.trace["wqe/send"], 4u);       // RTS/CTS each way
  EXPECT_EQ(w.trace["wqe/write_imm"], 2u);  // payload each way
  RpcResult rr = run_rpc(ProtocolKind::kReadRndv, payload_of(8192), {});
  EXPECT_EQ(rr.trace["wqe/read"], 2u);  // server reads req, client reads resp
}

TEST(ProtocolFootprint, HybridSwitchesAtThreshold) {
  ChannelConfig cfg;
  cfg.rndv_threshold = 4096;
  RpcResult small = run_rpc(ProtocolKind::kHybridEagerRndv, payload_of(512),
                            cfg);
  EXPECT_EQ(small.trace["wqe/write_imm"], 0u);  // eager path only
  RpcResult large = run_rpc(ProtocolKind::kHybridEagerRndv, payload_of(8192),
                            cfg);
  EXPECT_EQ(large.trace["wqe/write_imm"], 2u);  // Write-RNDV path
}

TEST(ProtocolFootprint, ArGrpcUsesReadRendezvousAboveThreshold) {
  RpcResult large = run_rpc(ProtocolKind::kArGrpc, payload_of(8192), {});
  EXPECT_EQ(large.trace["wqe/read"], 2u);
}

// ---------------------------------------------------------------------------
// Memory accounting: the scaling trade-off of §4.3.
// ---------------------------------------------------------------------------

TEST(ProtocolMemory, DirectProtocolsPinMaxMsgPerConnection) {
  ChannelConfig cfg;
  cfg.max_msg = 256 << 10;
  RpcResult direct = run_rpc(ProtocolKind::kDirectWriteImm, "x", cfg);
  RpcResult eager = run_rpc(ProtocolKind::kEagerSendRecv, "x", cfg);
  EXPECT_GE(direct.server_mr_bytes, size_t{2} * cfg.max_msg);
  // Eager pins only the slot rings: far less server memory per connection.
  EXPECT_LT(eager.server_mr_bytes, direct.server_mr_bytes / 2);
}

// ---------------------------------------------------------------------------
// Latency orderings behind Fig. 4.
// ---------------------------------------------------------------------------

sim::Time latency_of(ProtocolKind k, size_t bytes, PollMode poll) {
  ChannelConfig cfg;
  cfg.client_poll = poll;
  cfg.server_poll = poll;
  cfg.max_msg = 1 << 20;
  // Median-free single-shot in deterministic virtual time: repeat 8 times
  // and divide, to amortize any warm-up effect.
  RpcResult r = run_rpc(k, payload_of(bytes), cfg, 8);
  return r.elapsed / 8;
}

TEST(ProtocolLatency, BusyBeatsEventForEveryProtocol) {
  for (ProtocolKind k : kAllProtocols) {
    EXPECT_LT(latency_of(k, 512, PollMode::kBusy),
              latency_of(k, 512, PollMode::kEvent))
        << to_string(k);
  }
}

TEST(ProtocolLatency, DirectWriteImmIsBestForSmallMessages) {
  sim::Time best = latency_of(ProtocolKind::kDirectWriteImm, 512,
                              PollMode::kBusy);
  for (ProtocolKind k : kAllProtocols) {
    if (k == ProtocolKind::kDirectWriteImm) continue;
    EXPECT_LE(best, latency_of(k, 512, PollMode::kBusy)) << to_string(k);
  }
}

TEST(ProtocolLatency, ChainedBeatsUnchainedWriteSend) {
  EXPECT_LT(latency_of(ProtocolKind::kChainedWriteSend, 512, PollMode::kBusy),
            latency_of(ProtocolKind::kDirectWriteSend, 512, PollMode::kBusy));
}

TEST(ProtocolLatency, RfpBeatsPilafAndFarm) {
  sim::Time rfp = latency_of(ProtocolKind::kRfp, 512, PollMode::kBusy);
  EXPECT_LT(rfp, latency_of(ProtocolKind::kPilaf, 512, PollMode::kBusy));
  EXPECT_LT(rfp, latency_of(ProtocolKind::kFarm, 512, PollMode::kBusy));
}

TEST(ProtocolLatency, EagerCopiesHurtLargeMessages) {
  // At 256 KB the eager slot copies and per-segment bookkeeping must lose
  // to the zero-copy rendezvous path.
  EXPECT_GT(latency_of(ProtocolKind::kEagerSendRecv, 262144, PollMode::kBusy),
            latency_of(ProtocolKind::kWriteRndv, 262144, PollMode::kBusy));
}

TEST(ProtocolLatency, RendezvousControlRttHurtsSmallMessages) {
  EXPECT_GT(latency_of(ProtocolKind::kWriteRndv, 64, PollMode::kBusy),
            latency_of(ProtocolKind::kEagerSendRecv, 64, PollMode::kBusy));
}

// ---------------------------------------------------------------------------
// Sequencing and isolation.
// ---------------------------------------------------------------------------

TEST(ProtocolSequencing, ManySequentialCallsStayCorrect) {
  for (ProtocolKind k :
       {ProtocolKind::kDirectWriteImm, ProtocolKind::kRfp,
        ProtocolKind::kEagerSendRecv, ProtocolKind::kHybridEagerRndv}) {
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* client = fabric.add_node();
    verbs::Node* server = fabric.add_node();
    fabric.obs().tracer.enable();
    auto ch = make_channel(k, *client, *server, make_upcase_handler(*server),
                           {});
    int mismatches = -1;
    sim.spawn([](RpcChannel& ch, int& mismatches) -> Task<void> {
      mismatches = 0;
      for (int i = 0; i < 50; ++i) {
        std::string payload = "call-" + std::to_string(i) + "-" +
                              payload_of(17 * (i % 9));
        Buffer resp = (co_await ch.call(
            to_buffer(payload), static_cast<uint32_t>(payload.size()))).value();
        if (as_string(resp) != upcased(payload)) ++mismatches;
      }
      ch.shutdown();
    }(*ch, mismatches));
    sim.run();
    EXPECT_EQ(mismatches, 0) << to_string(k);
    EXPECT_EQ(obs::TraceCounts(fabric.obs().tracer)[call_span(k)], 50u)
        << to_string(k);
  }
}

TEST(ProtocolSequencing, TwoChannelsOnOneServerAreIndependent) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* c1 = fabric.add_node();
  verbs::Node* c2 = fabric.add_node();
  verbs::Node* server = fabric.add_node();
  auto ch1 = make_channel(ProtocolKind::kDirectWriteImm, *c1, *server,
                          make_upcase_handler(*server), {});
  auto ch2 = make_channel(ProtocolKind::kRfp, *c2, *server,
                          make_upcase_handler(*server), {});
  std::string g1, g2;
  auto client = [](RpcChannel& ch, std::string msg,
                   std::string& got) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      Buffer resp = (co_await ch.call(
          to_buffer(msg), static_cast<uint32_t>(msg.size()))).value();
      got = as_string(resp);
    }
    ch.shutdown();
  };
  sim.spawn(client(*ch1, "alpha-channel", g1));
  sim.spawn(client(*ch2, "beta-channel", g2));
  sim.run();
  EXPECT_EQ(g1, "ALPHA-CHANNEL");
  EXPECT_EQ(g2, "BETA-CHANNEL");
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(ProtocolLimits, OversizedDirectReplyFailsOnlyThatCall) {
  // A response past max_msg fails its own call with a length_error, on
  // every protocol that bounds replies by max_msg; the simulation and the
  // channel carry on. Replies that travel an eager pipe (Eager-SendRecv,
  // HERD, and the hybrids' eager half) are not bounded by max_msg and
  // arrive whole.
  for (ProtocolKind kind : kAllProtocols) {
    const bool delivers = kind == ProtocolKind::kEagerSendRecv ||
                          kind == ProtocolKind::kHerd ||
                          kind == ProtocolKind::kHybridEagerRndv ||
                          kind == ProtocolKind::kArGrpc;
    const char* error =
        is_direct(kind) ? "direct protocol: response exceeds the pre-known "
                          "buffer"
        : kind == ProtocolKind::kWriteRndv || kind == ProtocolKind::kReadRndv
            ? "rendezvous: response exceeds payload pool"
            : "bypass protocol: response exceeds slot";
    for (uint32_t window : {1u, 4u}) {
      SCOPED_TRACE(std::string(to_string(kind)) + " window " +
                   std::to_string(window));
      Simulator sim;
      verbs::Fabric fabric(sim);
      verbs::Node* client = fabric.add_node();
      verbs::Node* server = fabric.add_node();
      fabric.obs().tracer.enable();
      Handler handler = [](View req) -> Task<Buffer> {
        if (as_string(req) == "big") co_return Buffer(16384, std::byte{'x'});
        co_return Buffer(req.begin(), req.end());
      };
      auto ch = make_channel(
          kind, *client, *server, handler,
          ChannelConfig{}.with_max_msg(8192).with_window(window));
      std::string big, after;
      sim.spawn([](RpcChannel& ch, std::string& big,
                   std::string& after) -> Task<void> {
        try {
          CallResult r = co_await ch.call(to_buffer("big"));
          big = r ? std::to_string(r->size()) + " bytes" : "rpc error";
        } catch (const std::length_error& e) {
          big = e.what();
        }
        after = as_string((co_await ch.call(to_buffer("small"))).value());
        ch.shutdown();
      }(*ch, big, after));
      // Bounded, so a client that never hears back fails instead of hangs.
      EXPECT_NO_THROW(sim.run_until(sim::Time(100ms)));
      EXPECT_EQ(big, delivers ? "16384 bytes" : error);
      EXPECT_EQ(after, "small");
      // A call that throws out of call() closes no span, so only the calls
      // that returned are counted.
      EXPECT_EQ(obs::TraceCounts(fabric.obs().tracer)[call_span(kind)],
                delivers ? 2u : 1u);
      EXPECT_EQ(sim.live_tasks(), 0u);
    }
  }
}

TEST(ProtocolLimits, RfpFirstFetchWithoutAHintStaysInsideItsSlot) {
  // With no size hint RFP's first fetch guesses one eager slot (4 KiB), but
  // never more than max_msg: a READ of [export header | guess] must land
  // inside the call's read stride. VerbsCheck's sge rule reports a READ that
  // overruns it.
  for (uint32_t window : {1u, 4u}) {
    for (uint32_t max_msg : {1024u, 4096u}) {
      SCOPED_TRACE("window " + std::to_string(window) + " max_msg " +
                   std::to_string(max_msg));
      Simulator sim;
      verbs::Fabric fabric(sim);
      fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
      verbs::Node* client = fabric.add_node();
      verbs::Node* server = fabric.add_node();
      auto ch = make_channel(
          ProtocolKind::kRfp, *client, *server, make_upcase_handler(*server),
          ChannelConfig{}.with_max_msg(max_msg).with_window(window));
      int echoed = 0, live = int(window);
      for (uint32_t lane = 0; lane < window; ++lane)
        sim.spawn([](RpcChannel& ch, uint32_t lane, int& echoed,
                     int& live) -> Task<void> {
          for (uint32_t i = 0; i < 3; ++i) {
            const std::string req = payload_of(100 + lane * 10 + i);
            CallResult r = co_await ch.call(to_buffer(req));
            if (r && as_string(*r) == upcased(req)) ++echoed;
          }
          if (--live == 0) ch.shutdown();
        }(*ch, lane, echoed, live));
      EXPECT_NO_THROW(sim.run_until(sim::Time(100ms)));
      EXPECT_EQ(echoed, int(3 * window));
      EXPECT_EQ(fabric.check().reports().size(), 0u);
      EXPECT_EQ(sim.live_tasks(), 0u);
    }
  }
}

TEST(ProtocolSequencing, ConcurrentCallersOnAWindowOneChannelGetTheirOwnEcho) {
  // A window-1 channel has one slot: two callers sharing it take turns, and
  // each gets the echo of its own request back.
  for (ProtocolKind kind : kAllProtocols) {
    for (size_t bytes : {size_t(64), size_t(16384)}) {
      SCOPED_TRACE(std::string(to_string(kind)) + " " +
                   std::to_string(bytes) + " B");
      Simulator sim;
      verbs::Fabric fabric(sim);
      verbs::Node* client = fabric.add_node();
      verbs::Node* server = fabric.add_node();
      auto ch = make_channel(kind, *client, *server,
                             make_upcase_handler(*server), ChannelConfig{});
      int echoed = 0, live = 2;
      for (uint32_t lane = 0; lane < 2; ++lane)
        sim.spawn([](RpcChannel& ch, uint32_t lane, size_t bytes, int& echoed,
                     int& live) -> Task<void> {
          for (uint32_t i = 0; i < 4; ++i) {
            std::string req(bytes, '\0');
            for (size_t k = 0; k < bytes; ++k)
              req[k] = static_cast<char>('a' + (k + lane * 13 + i * 3) % 26);
            CallResult r = co_await ch.call(to_buffer(req), uint32_t(bytes));
            if (r && as_string(*r) == upcased(req)) ++echoed;
          }
          if (--live == 0) ch.shutdown();
        }(*ch, lane, bytes, echoed, live));
      // Bounded, so callers that steal each other's replies fail, not hang.
      EXPECT_NO_THROW(sim.run_until(sim::Time(100ms)));
      EXPECT_EQ(echoed, 8);
      EXPECT_EQ(sim.live_tasks(), 0u);
    }
  }
}

// ---- Golden pins of every staged path: each protocol at windows 1 and 4,
// echoing 64 B and 16 KiB payloads. Any change to a path's virtual time or
// counters moves the run's end time or the hash of its counter dump.

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  ProtocolKind kind;
  uint32_t window;
  size_t bytes;
  int64_t end_ns;
  uint64_t dump_fnv;
};

/// `window` lanes, each echoing three distinct `bytes`-byte payloads, with
/// both sides polling in `poll` mode and placed NUMA-local or -remote.
Golden run_golden(ProtocolKind kind, uint32_t window, size_t bytes,
                  PollMode poll = PollMode::kBusy, bool numa_local = true) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* client = fabric.add_node();
  verbs::Node* server = fabric.add_node();
  auto ch = make_channel(kind, *client, *server, make_upcase_handler(*server),
                         ChannelConfig{}
                             .with_window(window)
                             .with_poll(poll)
                             .with_numa(numa_local, numa_local));
  int mismatches = 0, live = int(window);
  for (uint32_t lane = 0; lane < window; ++lane)
    sim.spawn([](RpcChannel& ch, uint32_t lane, size_t bytes,
                 int& mismatches, int& live) -> Task<void> {
      for (uint32_t i = 0; i < 3; ++i) {
        std::string req(bytes, '\0');
        for (size_t k = 0; k < bytes; ++k)
          req[k] = static_cast<char>('a' + (k * 7 + lane * 5 + i) % 26);
        std::string want = req;
        for (char& c : want) c = static_cast<char>(c - 32);
        CallResult r = co_await ch.call(to_buffer(req), uint32_t(bytes));
        if (!r || as_string(*r) != want) ++mismatches;
      }
      if (--live == 0) ch.shutdown();
    }(*ch, lane, bytes, mismatches, live));
  sim.run();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(sim.live_tasks(), 0u);
  return {kind, window, bytes, sim.now().count(),
          fnv1a(fabric.obs().counters.dump())};
}

// Only a deliberate change to a staged path's costs may regenerate these.
constexpr Golden kPinned[] = {
    {ProtocolKind::kEagerSendRecv, 1, 64, 9732, 0x3a935fce38c71376ull},
    {ProtocolKind::kEagerSendRecv, 1, 16384, 37452, 0xe436b2c88d6476d9ull},
    {ProtocolKind::kEagerSendRecv, 4, 64, 11400, 0xacf0f41a3df8a9a0ull},
    {ProtocolKind::kEagerSendRecv, 4, 16384, 59115, 0x62fbb9942910b2e3ull},
    {ProtocolKind::kDirectWriteSend, 1, 64, 7710, 0xb6e6965f4836a466ull},
    {ProtocolKind::kDirectWriteSend, 1, 16384, 17130, 0x3d2bcbc45023e882ull},
    {ProtocolKind::kDirectWriteSend, 4, 64, 8790, 0x10a0dbdb64af719aull},
    {ProtocolKind::kDirectWriteSend, 4, 16384, 41970, 0xb4898b30a9b2454full},
    {ProtocolKind::kChainedWriteSend, 1, 64, 7350, 0x901f288f590deec6ull},
    {ProtocolKind::kChainedWriteSend, 1, 16384, 17610, 0xfd58d74866d5e6e2ull},
    {ProtocolKind::kChainedWriteSend, 4, 64, 8430, 0x0795545765305f76ull},
    {ProtocolKind::kChainedWriteSend, 4, 16384, 42450, 0x5f5c801784cc3cb9ull},
    {ProtocolKind::kWriteRndv, 1, 64, 17268, 0x76703724ff97ef87ull},
    {ProtocolKind::kWriteRndv, 1, 16384, 28200, 0x22f63451f23fe69bull},
    {ProtocolKind::kWriteRndv, 4, 64, 20508, 0x2c7b7e5c0048fd58ull},
    {ProtocolKind::kWriteRndv, 4, 16384, 35156, 0xee1f92d047bbcb8bull},
    {ProtocolKind::kReadRndv, 1, 64, 18770, 0x11a932cdee99189cull},
    {ProtocolKind::kReadRndv, 1, 16384, 29702, 0xe3bca61b7ca30e46ull},
    {ProtocolKind::kReadRndv, 4, 64, 21002, 0xa1cf6e4650d16ea5ull},
    {ProtocolKind::kReadRndv, 4, 16384, 41468, 0x7759ee2a013c7c04ull},
    {ProtocolKind::kDirectWriteImm, 1, 64, 6180, 0x3d111fccbc7e684cull},
    {ProtocolKind::kDirectWriteImm, 1, 16384, 17112, 0xb28878c0bfb95e5bull},
    {ProtocolKind::kDirectWriteImm, 4, 64, 7260, 0xe1d3593ec8750e78ull},
    {ProtocolKind::kDirectWriteImm, 4, 16384, 21072, 0x4cfe47540f927a46ull},
    {ProtocolKind::kPilaf, 1, 64, 17676, 0x87900c966d3e6058ull},
    {ProtocolKind::kPilaf, 1, 16384, 36057, 0x866fe478ad27b208ull},
    {ProtocolKind::kPilaf, 4, 64, 19296, 0xe881694fb3fda424ull},
    {ProtocolKind::kPilaf, 4, 16384, 47038, 0x5093a7ff5d56f1f4ull},
    {ProtocolKind::kFarm, 1, 64, 12051, 0x678f874dfdb7c8e1ull},
    {ProtocolKind::kFarm, 1, 16384, 30438, 0x7568af5e62e3c46bull},
    {ProtocolKind::kFarm, 4, 64, 13131, 0xc8cbf1d1f9021b0cull},
    {ProtocolKind::kFarm, 4, 16384, 37859, 0xc01a78077ab1ef28ull},
    {ProtocolKind::kRfp, 1, 64, 6426, 0xc3bd6a1bcf5b3baeull},
    {ProtocolKind::kRfp, 1, 16384, 30977, 0x496949f0f63f561eull},
    {ProtocolKind::kRfp, 4, 64, 6966, 0xf42f0c2ae67fd802ull},
    {ProtocolKind::kRfp, 4, 16384, 47515, 0xbc102b51ad6f05cdull},
    {ProtocolKind::kHerd, 1, 64, 7536, 0x6877156ad0826570ull},
    {ProtocolKind::kHerd, 1, 16384, 26871, 0x96a1eab5a3e41977ull},
    {ProtocolKind::kHerd, 4, 64, 9204, 0xff7f77661de1c2c9ull},
    {ProtocolKind::kHerd, 4, 16384, 55587, 0xf38e55b70a266644ull},
    {ProtocolKind::kHybridEagerRndv, 1, 64, 9732, 0xaef37cb175c5e659ull},
    {ProtocolKind::kHybridEagerRndv, 1, 16384, 28200, 0xc9924de34584a242ull},
    {ProtocolKind::kHybridEagerRndv, 4, 64, 11400, 0x9c16fabe7af698adull},
    {ProtocolKind::kHybridEagerRndv, 4, 16384, 35156, 0x5212fe88b4a38faaull},
    {ProtocolKind::kArGrpc, 1, 64, 9732, 0xaef37cb175c5e659ull},
    {ProtocolKind::kArGrpc, 1, 16384, 29702, 0x510f400447b1e455ull},
    {ProtocolKind::kArGrpc, 4, 64, 11400, 0x9c16fabe7af698adull},
    {ProtocolKind::kArGrpc, 4, 16384, 41468, 0x0392f7ea4968c905ull},
};

TEST(StagedGolden, EveryKindWindowAndPayloadIsPinned) {
  ASSERT_EQ(std::size(kPinned), std::size(kAllProtocols) * 2 * 2);
  for (const Golden& want : kPinned) {
    SCOPED_TRACE(std::string(to_string(want.kind)) + " window " +
                 std::to_string(want.window) + " " +
                 std::to_string(want.bytes) + " B");
    const Golden got = run_golden(want.kind, want.window, want.bytes);
    EXPECT_EQ(got.end_ns, want.end_ns);
    EXPECT_EQ(got.dump_fnv, want.dump_fnv);
  }
}

// The same grid with client and server polling in event mode, which takes
// the interrupt-driven branches (WRITE_WITH_IMM bypass requests, CQ waits
// charged an interrupt pickup) that the busy pins above never reach.
constexpr Golden kEventPinned[] = {
    {ProtocolKind::kEagerSendRecv, 1, 64, 27432, 0x3a935fce38c71376ull},
    {ProtocolKind::kEagerSendRecv, 1, 16384, 50472, 0xe436b2c88d6476d9ull},
    {ProtocolKind::kEagerSendRecv, 4, 64, 46060, 0xf22848541a72bc18ull},
    {ProtocolKind::kEagerSendRecv, 4, 16384, 82815, 0x2b133e254b724327ull},
    {ProtocolKind::kDirectWriteSend, 1, 64, 25410, 0xb6e6965f4836a466ull},
    {ProtocolKind::kDirectWriteSend, 1, 16384, 34830, 0x3d2bcbc45023e882ull},
    {ProtocolKind::kDirectWriteSend, 4, 64, 26490, 0x10a0dbdb64af719aull},
    {ProtocolKind::kDirectWriteSend, 4, 16384, 59670, 0xb4898b30a9b2454full},
    {ProtocolKind::kChainedWriteSend, 1, 64, 25050, 0x901f288f590deec6ull},
    {ProtocolKind::kChainedWriteSend, 1, 16384, 35310, 0xfd58d74866d5e6e2ull},
    {ProtocolKind::kChainedWriteSend, 4, 64, 26130, 0x0795545765305f76ull},
    {ProtocolKind::kChainedWriteSend, 4, 16384, 60150, 0x5f5c801784cc3cb9ull},
    {ProtocolKind::kWriteRndv, 1, 64, 70368, 0x76703724ff97ef87ull},
    {ProtocolKind::kWriteRndv, 1, 16384, 81300, 0x22f63451f23fe69bull},
    {ProtocolKind::kWriteRndv, 4, 64, 73608, 0x2c7b7e5c0048fd58ull},
    {ProtocolKind::kWriteRndv, 4, 16384, 87420, 0x220006b9706c930aull},
    {ProtocolKind::kReadRndv, 1, 64, 59770, 0x11a932cdee99189cull},
    {ProtocolKind::kReadRndv, 1, 16384, 70702, 0xe3bca61b7ca30e46ull},
    {ProtocolKind::kReadRndv, 4, 64, 62302, 0xa1cf6e4650d16ea5ull},
    {ProtocolKind::kReadRndv, 4, 16384, 91054, 0x1a1b67d36624ea63ull},
    {ProtocolKind::kDirectWriteImm, 1, 64, 23880, 0x3d111fccbc7e684cull},
    {ProtocolKind::kDirectWriteImm, 1, 16384, 34812, 0xb28878c0bfb95e5bull},
    {ProtocolKind::kDirectWriteImm, 4, 64, 24960, 0xe1d3593ec8750e78ull},
    {ProtocolKind::kDirectWriteImm, 4, 16384, 39372, 0x1c28481500c6c81aull},
    {ProtocolKind::kPilaf, 1, 64, 58704, 0x825c0dfc45f2bad4ull},
    {ProtocolKind::kPilaf, 1, 16384, 80307, 0xab3c0e13d6cd7051ull},
    {ProtocolKind::kPilaf, 4, 64, 60864, 0xaa428be3dd84f0e9ull},
    {ProtocolKind::kPilaf, 4, 16384, 91246, 0x28cb8b05c030c7e8ull},
    {ProtocolKind::kFarm, 1, 64, 44232, 0x184b83c2bea622c8ull},
    {ProtocolKind::kFarm, 1, 16384, 65838, 0x664bda38e06d12c2ull},
    {ProtocolKind::kFarm, 4, 64, 45852, 0xa1ba7c5ed9b31da3ull},
    {ProtocolKind::kFarm, 4, 16384, 76238, 0x8e5a891c6a8eda60ull},
    {ProtocolKind::kRfp, 1, 64, 41832, 0x471af2d2adabfdfaull},
    {ProtocolKind::kRfp, 1, 16384, 61952, 0x66c16170b1e52b93ull},
    {ProtocolKind::kRfp, 4, 64, 36694, 0x68daa34bae6511bcull},
    {ProtocolKind::kRfp, 4, 16384, 83978, 0xe87dd59c5096404bull},
    {ProtocolKind::kHerd, 1, 64, 25656, 0x90d3b4c8f17215fdull},
    {ProtocolKind::kHerd, 1, 16384, 42651, 0xcf559e7f178cf36eull},
    {ProtocolKind::kHerd, 4, 64, 45648, 0xb8148c70ca75bc65ull},
    {ProtocolKind::kHerd, 4, 16384, 80327, 0x4870dd8329837b31ull},
    {ProtocolKind::kHybridEagerRndv, 1, 64, 27432, 0xaef37cb175c5e659ull},
    {ProtocolKind::kHybridEagerRndv, 1, 16384, 81300, 0xc9924de34584a242ull},
    {ProtocolKind::kHybridEagerRndv, 4, 64, 46060, 0x323af1c29b1a8315ull},
    {ProtocolKind::kHybridEagerRndv, 4, 16384, 87420, 0x4983c0811e32240bull},
    {ProtocolKind::kArGrpc, 1, 64, 27432, 0xaef37cb175c5e659ull},
    {ProtocolKind::kArGrpc, 1, 16384, 70702, 0x510f400447b1e455ull},
    {ProtocolKind::kArGrpc, 4, 64, 46060, 0x323af1c29b1a8315ull},
    {ProtocolKind::kArGrpc, 4, 16384, 91054, 0xbfdd9fa2d89ddb98ull},
};

TEST(StagedGolden, EveryKindWindowAndPayloadIsPinnedInEventMode) {
  ASSERT_EQ(std::size(kEventPinned), std::size(kAllProtocols) * 2 * 2);
  for (const Golden& want : kEventPinned) {
    SCOPED_TRACE(std::string(to_string(want.kind)) + " window " +
                 std::to_string(want.window) + " " +
                 std::to_string(want.bytes) + " B");
    const Golden got =
        run_golden(want.kind, want.window, want.bytes, PollMode::kEvent);
    EXPECT_EQ(got.end_ns, want.end_ns);
    EXPECT_EQ(got.dump_fnv, want.dump_fnv);
  }
}

// The 16 KiB busy grid with both sides NUMA-remote: every doorbell pays
// the remote-socket penalty and every software copy the remote bandwidth.
constexpr Golden kNumaRemotePinned[] = {
    {ProtocolKind::kEagerSendRecv, 1, 16384, 45492, 0xe436b2c88d6476d9ull},
    {ProtocolKind::kEagerSendRecv, 4, 16384, 77151, 0x62fbb9942910b2e3ull},
    {ProtocolKind::kDirectWriteSend, 1, 16384, 18210, 0x3d2bcbc45023e882ull},
    {ProtocolKind::kDirectWriteSend, 4, 16384, 43050, 0xb4898b30a9b2454full},
    {ProtocolKind::kChainedWriteSend, 1, 16384, 18690, 0xfd58d74866d5e6e2ull},
    {ProtocolKind::kChainedWriteSend, 4, 16384, 43530, 0x5f5c801784cc3cb9ull},
    {ProtocolKind::kWriteRndv, 1, 16384, 31440, 0x22f63451f23fe69bull},
    {ProtocolKind::kWriteRndv, 4, 16384, 38036, 0x75cd139af7d8b937ull},
    {ProtocolKind::kReadRndv, 1, 16384, 32402, 0xe3bca61b7ca30e46ull},
    {ProtocolKind::kReadRndv, 4, 16384, 46030, 0xea13935eeeb83859ull},
    {ProtocolKind::kDirectWriteImm, 1, 16384, 18192, 0xb28878c0bfb95e5bull},
    {ProtocolKind::kDirectWriteImm, 4, 16384, 22152, 0x4cfe47540f927a46ull},
    {ProtocolKind::kPilaf, 1, 16384, 38757, 0x866fe478ad27b208ull},
    {ProtocolKind::kPilaf, 4, 16384, 47438, 0x56aa4f3ae145b07full},
    {ProtocolKind::kFarm, 1, 16384, 32598, 0x7568af5e62e3c46bull},
    {ProtocolKind::kFarm, 4, 16384, 40801, 0x707da2e0c2b9ed85ull},
    {ProtocolKind::kRfp, 1, 16384, 33137, 0x496949f0f63f561eull},
    {ProtocolKind::kRfp, 4, 16384, 54074, 0xa7978caf773efd0bull},
    {ProtocolKind::kHerd, 1, 16384, 31431, 0x96a1eab5a3e41977ull},
    {ProtocolKind::kHerd, 4, 16384, 72463, 0xf38e55b70a266644ull},
    {ProtocolKind::kHybridEagerRndv, 1, 16384, 31440, 0xc9924de34584a242ull},
    {ProtocolKind::kHybridEagerRndv, 4, 16384, 38036, 0x471aa434316dc59aull},
    {ProtocolKind::kArGrpc, 1, 16384, 32402, 0x510f400447b1e455ull},
    {ProtocolKind::kArGrpc, 4, 16384, 46030, 0x30d7ffb91c2a4a72ull},
};

TEST(StagedGolden, NumaRemoteKindsAndWindowsArePinned) {
  ASSERT_EQ(std::size(kNumaRemotePinned), std::size(kAllProtocols) * 2);
  for (const Golden& want : kNumaRemotePinned) {
    SCOPED_TRACE(std::string(to_string(want.kind)) + " window " +
                 std::to_string(want.window));
    const Golden got = run_golden(want.kind, want.window, want.bytes,
                                  PollMode::kBusy, /*numa_local=*/false);
    EXPECT_EQ(got.end_ns, want.end_ns);
    EXPECT_EQ(got.dump_fnv, want.dump_fnv);
  }
}

// ---- EagerPipe reassembly: fragment sizes come off the wire, so a
// fragment shorter than its header or one that overruns the declared total
// fails the receive instead of being copied.

/// Posts each of `frags` as a raw SEND into a fresh EagerPipe's receive
/// ring, then runs one recv(). Returns what it gave and its last_status().
std::pair<std::optional<Buffer>, verbs::WcStatus> recv_raw_fragments(
    const std::vector<Buffer>& frags) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* a = fabric.add_node();
  verbs::Node* b = fabric.add_node();
  verbs::Endpoint src = verbs::make_endpoint(*a, PollMode::kBusy);
  verbs::Endpoint dst = verbs::make_endpoint(*b, PollMode::kBusy);
  verbs::connect(src, dst);
  EagerPipe pipe(src, dst, ChannelConfig{}, nullptr);
  verbs::MemoryRegion* mr = a->pd().alloc_mr(4096);
  std::pair<std::optional<Buffer>, verbs::WcStatus> out;
  sim.spawn([](verbs::Endpoint& src, verbs::MemoryRegion* mr, EagerPipe& pipe,
               const std::vector<Buffer>& frags,
               std::pair<std::optional<Buffer>, verbs::WcStatus>& out)
                -> Task<void> {
    for (const Buffer& f : frags) {
      std::copy(f.begin(), f.end(), mr->data());
      co_await src.qp->post_send(verbs::SendWr{
          .opcode = verbs::Opcode::kSend,
          .local = {mr->data(), static_cast<uint32_t>(f.size())},
          .signaled = true});
      EXPECT_TRUE((co_await src.send_wc()).ok());
    }
    out.first = co_await pipe.recv();
    out.second = pipe.last_status();
  }(src, mr, pipe, frags, out));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  return out;
}

TEST(EagerPipe, FragmentShorterThanItsHeaderFailsTheReceive) {
  const auto [msg, status] = recv_raw_fragments({Buffer(2, std::byte{7})});
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(status, verbs::WcStatus::kLocLenErr);
}

TEST(EagerPipe, FragmentPastTheDeclaredTotalFailsTheReceive) {
  Buffer first(4096, std::byte{1});
  put_u32(first.data(), 4100);  // 4092 bytes here, so 8 more are due
  const auto [msg, status] =
      recv_raw_fragments({first, Buffer(4096, std::byte{2})});
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(status, verbs::WcStatus::kLocLenErr);
}

// ---- RC ordering under load: a QP's WQEs reach the wire, and take the
// peer's posted recvs, in the order they were posted. perfbench's proto
// sweep shape at 128 KB (28 busy clients on their own nodes, window 1,
// staggered starts) sends multi-fragment eager messages from every client
// at once; each echo must come back byte for byte.

class LargeEagerEcho : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(LargeEagerEcho, ConcurrentClientsGetEveryByteBack) {
  constexpr int kClients = 28;
  constexpr int kCalls = 8;
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server = fabric.add_node();
  ChannelConfig cfg;
  cfg.with_poll(PollMode::kBusy)
      .with_max_msg(256 << 10)
      .with_numa(false, false)
      .with_window(1);
  Handler echo = [server](View req) -> Task<Buffer> {
    co_await server->cpu().compute(1000ns +
                                   sim::transfer_time(req.size(), 20.0));
    co_return Buffer(req.begin(), req.end());
  };
  std::vector<std::unique_ptr<RpcChannel>> channels;
  for (int c = 0; c < kClients; ++c)
    channels.push_back(
        make_channel(GetParam(), *fabric.add_node(), *server, echo, cfg));
  sim::Rng rng(7);
  int calls = 0;
  int bad = 0;
  for (auto& ch : channels) {
    std::vector<Buffer> reqs;
    for (int i = 0; i < kCalls; ++i) {
      Buffer b(96 * 1024 + rng.bounded(64 * 1024 + 1));
      for (auto& x : b) x = std::byte(rng.bounded(256));
      reqs.push_back(std::move(b));
    }
    const sim::Duration start(rng.bounded(600000));
    sim.spawn([](Simulator& sim, RpcChannel& ch, std::vector<Buffer> reqs,
                 sim::Duration start, int& calls, int& bad) -> Task<void> {
      co_await sim.sleep(start);
      for (const Buffer& req : reqs) {
        CallResult r = co_await ch.call(req, uint32_t(req.size()));
        ++calls;
        if (!r.ok() || r.value() != req) ++bad;
      }
      ch.shutdown();
    }(sim, *ch, std::move(reqs), start, calls, bad));
  }
  sim.run();
  EXPECT_EQ(calls, kClients * kCalls);
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(EagerPipes, LargeEagerEcho,
                         ::testing::Values(ProtocolKind::kEagerSendRecv,
                                           ProtocolKind::kHerd),
                         [](const auto& info) {
                           std::string n(to_string(info.param));
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(EagerPipe, DeclaredTotalIsNotReservedUpFront) {
  // The total comes off the wire; reserving it unchecked would try to
  // allocate 4 GiB here. The receive instead waits for the rest, like any
  // message still in flight, until the QP's error flush ends it.
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* a = fabric.add_node();
  verbs::Node* b = fabric.add_node();
  verbs::Endpoint src = verbs::make_endpoint(*a, PollMode::kBusy);
  verbs::Endpoint dst = verbs::make_endpoint(*b, PollMode::kBusy);
  verbs::connect(src, dst);
  EagerPipe pipe(src, dst, ChannelConfig{}, nullptr);
  verbs::MemoryRegion* mr = a->pd().alloc_mr(4096);
  std::fill_n(mr->data(), 4096, std::byte{1});
  put_u32(mr->data(), 0xFFFFFFF0u);
  sim.spawn([](verbs::Endpoint& src, verbs::MemoryRegion* mr) -> Task<void> {
    co_await src.qp->post_send(verbs::SendWr{
        .opcode = verbs::Opcode::kSend,
        .local = {mr->data(), 4096},
        .signaled = true});
    EXPECT_TRUE((co_await src.send_wc()).ok());
  }(src, mr));
  bool done = false;
  std::optional<Buffer> msg;
  sim.spawn([](EagerPipe& pipe, bool& done,
               std::optional<Buffer>& msg) -> Task<void> {
    msg = co_await pipe.recv();
    done = true;
  }(pipe, done, msg));
  EXPECT_NO_THROW(sim.run());
  EXPECT_FALSE(done);
  dst.qp->enter_error();
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(pipe.last_status(), verbs::WcStatus::kWrFlushErr);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

// ---- Completion routing: slot tags come off the wire, so the Router
// checks them against the window before indexing a mailbox.

/// A bare channel exposing a Router over its window of 4, one that marks
/// the channel dead on a failed completion (as Direct's client's does).
class RouterProbe : public ChannelBase {
 public:
  using Routed = Router<uint32_t>::Routed;
  RouterProbe(verbs::Node& client, verbs::Node& server)
      : ChannelBase(ProtocolKind::kEagerSendRecv, client, server, Handler{},
                    ChannelConfig{}.with_window(4)),
        router(*this, /*marks_dead=*/true) {}
  Router<uint32_t> router;
  bool dead() const { return dead_; }
  verbs::WcStatus dead_status() const { return dead_status_; }

  /// Waits for `slot`'s message as a protocol's call does: when its turn
  /// comes it leads, sweeping what `fetch(slot)` returns, each entry
  /// decoded with the imm as the slot tag and imm * 10 as the message.
  /// nullopt on a failure.
  template <class Fetch>
  Task<std::optional<uint32_t>> wait(uint32_t slot, Fetch fetch) {
    while (co_await router.turn(slot))
      router.sweep(co_await fetch(slot), [](const verbs::Wc& wc) -> Routed {
        return {wc.status, wc.imm, wc.imm * 10};
      });
    const Routed r = router.take(slot);
    if (r.status != verbs::WcStatus::kSuccess) co_return std::nullopt;
    co_return r.msg;
  }

 protected:
  sim::Task<Buffer> do_call(View, uint32_t) override { co_return Buffer{}; }
  sim::Task<void> serve() override { co_return; }
};

TEST(Router, DropsTagsPastTheWindowAndFailsEverySlot) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  RouterProbe ch(*fabric.add_node(), *fabric.add_node());
  // One CQ sweep: tags 200 and 4 lie past the window, tag 1 is a reply,
  // and the failed completion ends it. The first caller leads and fetches
  // it 1 us later, while the other slots' calls park.
  const std::vector<verbs::Wc> sweep = {
      {.imm = 200}, {.imm = 4}, {.imm = 1},
      {.status = verbs::WcStatus::kRetryExcErr}};
  auto fetch = [&sim, &sweep](uint32_t) -> Task<std::vector<verbs::Wc>> {
    co_await sim.sleep(1us);
    co_return sweep;
  };
  std::vector<std::optional<uint32_t>> got(4);
  for (uint32_t s = 0; s < 4; ++s) {
    sim.spawn([](RouterProbe& ch, uint32_t s, auto fetch,
                 std::optional<uint32_t>& got) -> Task<void> {
      got = co_await ch.wait(s, fetch);
    }(ch, s, fetch, got[s]));
  }
  sim.run();
  EXPECT_EQ(got[1], std::optional<uint32_t>(10));
  for (uint32_t s : {0u, 2u, 3u})
    EXPECT_EQ(got[s], std::nullopt) << "slot " << s;
  EXPECT_TRUE(ch.dead());
  EXPECT_EQ(ch.dead_status(), verbs::WcStatus::kRetryExcErr);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(Router, AFollowerLeadsWhenTheLeaderLeaves) {
  // Window 4, and the first sweep carries only its leader's own reply: the
  // other three callers are parked when that leader leaves, so they get
  // their entries only if the lead passes to the oldest of them, whose
  // sweep then carries every reply still due.
  for (uint64_t seed : {0u, 1u, 2u, 3u}) {
    SCOPED_TRACE("tiebreak seed " + std::to_string(seed));
    Simulator sim;
    sim.set_tiebreak_seed(seed);
    sim.racecheck().set_mode(sim::RaceCheck::Mode::kAbort);
    verbs::Fabric fabric(sim);
    RouterProbe ch(*fabric.add_node(), *fabric.add_node());
    std::vector<uint32_t> arrivals, leaders, due = {0, 1, 2, 3};
    auto fetch = [&](uint32_t slot) -> Task<std::vector<verbs::Wc>> {
      leaders.push_back(slot);
      co_await sim.sleep(1us);
      std::vector<verbs::Wc> sweep;
      for (uint32_t s : due)
        if (leaders.size() > 1 || s == slot) sweep.push_back({.imm = s});
      std::erase_if(due, [&](uint32_t s) {
        return leaders.size() > 1 || s == slot;
      });
      co_return sweep;
    };
    std::vector<std::optional<uint32_t>> got(4);
    for (uint32_t s = 0; s < 4; ++s) {
      sim.spawn([](RouterProbe& ch, uint32_t s, auto fetch,
                   std::vector<uint32_t>& arrivals,
                   std::optional<uint32_t>& got) -> Task<void> {
        arrivals.push_back(s);
        got = co_await ch.wait(s, fetch);
      }(ch, s, fetch, arrivals, got[s]));
    }
    sim.run();
    for (uint32_t s = 0; s < 4; ++s)
      EXPECT_EQ(got[s], std::optional<uint32_t>(s * 10)) << "slot " << s;
    ASSERT_EQ(leaders.size(), 2u);
    EXPECT_EQ(leaders[0], arrivals[0]);
    EXPECT_EQ(leaders[1], arrivals[1]) << "the lead skipped the oldest";
    EXPECT_FALSE(ch.dead());
    EXPECT_EQ(sim.live_tasks(), 0u);
  }
}

/// `node`'s QP of the one channel on `fabric`, to forge frames on.
verbs::QueuePair* qp_on(verbs::Fabric& fabric, verbs::Node& node) {
  for (uint32_t n = 0; n < 4; ++n)
    if (verbs::QueuePair* q = fabric.find_qp(n); q && &q->node() == &node)
      return q;
  return nullptr;
}

TEST(DirectServer, DropsRequestsNamingNoSlotOrPastMaxMsg) {
  // A Direct-Write-Send request's slot and length come off the wire in its
  // notify frame: the server drops one naming no slot of the window, or
  // announcing more than max_msg, instead of reading past its buffers.
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  int served = 0;
  Handler echo = [&served](View req) -> Task<Buffer> {
    ++served;
    co_return Buffer(req.begin(), req.end());
  };
  auto ch = make_channel(ProtocolKind::kDirectWriteSend, *cl, *sv, echo,
                         ChannelConfig{}.with_max_msg(4096).with_window(2));
  verbs::QueuePair* qp = qp_on(fabric, *cl);
  ASSERT_NE(qp, nullptr);
  // Two forged notify frames, [len][slot]: slot 0 announcing 1 MiB, and
  // slot 200 announcing 16 bytes.
  verbs::MemoryRegion* forged = cl->pd().alloc_mr(16);
  put_u32(forged->data(), 1u << 20);
  put_u32(forged->data() + 4, 0);
  put_u32(forged->data() + 8, 16);
  put_u32(forged->data() + 12, 200);
  sim.spawn([](verbs::QueuePair* qp, verbs::MemoryRegion* forged,
               RpcChannel& ch, int& served) -> Task<void> {
    for (uint32_t off : {0u, 8u})
      co_await qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kSend,
                                           .local = {forged->data() + off, 8},
                                           .signaled = false});
    const Buffer req(64, std::byte{5});
    CallResult r = co_await ch.call(req, 64);
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(*r, req);
    EXPECT_EQ(served, 1) << "a forged request reached the handler";
    ch.shutdown();
  }(qp, forged, *ch, served));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(DirectClient, FailsAReplyAnnouncingMoreThanMaxMsg) {
  // The reply's length comes off the wire in its notify frame: one past
  // max_msg fails the call instead of copying past the response slot.
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  Handler slow_echo = [&sim](View req) -> Task<Buffer> {
    co_await sim.sleep(50us);
    co_return Buffer(req.begin(), req.end());
  };
  auto ch = make_channel(ProtocolKind::kDirectWriteSend, *cl, *sv, slow_echo,
                         ChannelConfig{}.with_max_msg(4096));
  verbs::QueuePair* qp = qp_on(fabric, *sv);
  ASSERT_NE(qp, nullptr);
  // A forged notify frame for slot 0, [len][slot], announcing 1 MiB.
  verbs::MemoryRegion* forged = sv->pd().alloc_mr(8);
  put_u32(forged->data(), 1u << 20);
  put_u32(forged->data() + 4, 0);
  bool threw = false;
  sim.spawn([](RpcChannel& ch, bool& threw) -> Task<void> {
    const Buffer req(64, std::byte{5});
    try {
      (void)co_await ch.call(req, 64);
    } catch (const std::length_error&) {
      threw = true;
    }
  }(*ch, threw));
  sim.spawn([](Simulator& sim, verbs::QueuePair* qp,
               verbs::MemoryRegion* forged) -> Task<void> {
    co_await sim.sleep(10us);
    co_await qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kSend,
                                         .local = {forged->data(), 8},
                                         .signaled = false});
  }(sim, qp, forged));
  sim.run_until(sim::Time(200us));
  EXPECT_TRUE(threw) << "a reply past max_msg was taken";
  ch->shutdown();
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
}

constexpr ProtocolKind kDirectKinds[] = {ProtocolKind::kDirectWriteSend,
                                         ProtocolKind::kChainedWriteSend,
                                         ProtocolKind::kDirectWriteImm};

/// How one call of `direct_calls_after_a_forged_note` ended.
enum class Outcome { kOwnEcho, kLengthError, kOther, kPending };

/// Runs `calls` calls one after another on a fresh `kind` channel (max_msg
/// 4 KiB, `window` slots) whose echo handler takes 50 us. Each call sends
/// its own bytes. 10 us in, the server's QP sends the client a forged reply
/// note naming `slot` and announcing `len` bytes: a WRITE_IMM's imm for
/// Direct-WriteIMM, a [len][slot] notify SEND for the other two. Returns
/// how each call ended by 1 ms of virtual time, after checking that no
/// task outlives shutdown.
std::vector<Outcome> direct_calls_after_a_forged_note(ProtocolKind kind,
                                                      uint32_t window,
                                                      uint32_t slot,
                                                      uint32_t len,
                                                      int calls) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  Handler slow_echo = [&sim](View req) -> Task<Buffer> {
    co_await sim.sleep(50us);
    co_return Buffer(req.begin(), req.end());
  };
  auto ch = make_channel(
      kind, *cl, *sv, slow_echo,
      ChannelConfig{}.with_max_msg(4096).with_window(window));
  verbs::QueuePair* qp = qp_on(fabric, *sv);
  EXPECT_NE(qp, nullptr);
  if (!qp) return {};
  verbs::MemoryRegion* src = sv->pd().alloc_mr(8);
  verbs::MemoryRegion* dst = cl->pd().alloc_mr(8);
  verbs::SendWr note{.opcode = verbs::Opcode::kSend,
                     .local = {src->data(), 8},
                     .signaled = false};
  if (kind == ProtocolKind::kDirectWriteImm) {
    note = {.opcode = verbs::Opcode::kWriteImm,
            .local = {src->data(), 0},
            .remote = dst->remote(),
            .imm = (slot << 24) | len,
            .signaled = false};
  } else {
    put_u32(src->data(), len);
    put_u32(src->data() + 4, slot);
  }
  std::vector<Outcome> out(size_t(calls), Outcome::kPending);
  sim.spawn([](RpcChannel& ch, std::vector<Outcome>& out) -> Task<void> {
    for (size_t i = 0; i < out.size(); ++i) {
      const Buffer req(64, std::byte(i + 1));
      try {
        CallResult r = co_await ch.call(req, 64);
        out[i] = r.ok() && *r == req ? Outcome::kOwnEcho : Outcome::kOther;
      } catch (const std::length_error&) {
        out[i] = Outcome::kLengthError;
      }
    }
  }(*ch, out));
  sim.spawn([](Simulator& sim, verbs::QueuePair* qp,
               verbs::SendWr note) -> Task<void> {
    co_await sim.sleep(10us);
    co_await qp->post_send(note);
  }(sim, qp, note));
  sim.run_until(sim::Time(1ms));
  ch->shutdown();
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  return out;
}

TEST(DirectClient, DropsANoteNamingNoSlotOfTheWindow) {
  // The reply note's slot tag comes off the wire: one past the window is
  // dropped, whether the caller reaps its own CQ (one slot) or a router
  // routes it (two), and the real reply still reaches its call.
  for (ProtocolKind kind : kDirectKinds)
    for (uint32_t window : {1u, 2u}) {
      SCOPED_TRACE(std::string(to_string(kind)) + ", window " +
                   std::to_string(window));
      EXPECT_EQ(direct_calls_after_a_forged_note(kind, window, 200, 16, 1),
                std::vector<Outcome>{Outcome::kOwnEcho});
    }
}

TEST(DirectClient, AnOversizeNoteFailsOnlyTheCallItNames) {
  // A forged note past max_msg for the first call's slot fails that call
  // with a length error; the two calls after it echo their own bytes.
  for (ProtocolKind kind : kDirectKinds)
    for (uint32_t window : {1u, 2u}) {
      SCOPED_TRACE(std::string(to_string(kind)) + ", window " +
                   std::to_string(window));
      EXPECT_EQ(
          direct_calls_after_a_forged_note(kind, window, 0, 1u << 20, 3),
          (std::vector<Outcome>{Outcome::kLengthError, Outcome::kOwnEcho,
                                Outcome::kOwnEcho}));
    }
}

/// The median latency of 40 back-to-back 512 B calls on each of 16 busy
/// window-1 clients, one node and channel each, against one default server
/// node whose handler computes 1 us plus the bytes at 20 GB/s (fig05's).
sim::Duration median_of_16_busy_clients(ProtocolKind kind) {
  constexpr int kClients = 16;
  constexpr int kCalls = 40;
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* sv = fabric.add_node();
  Handler handler = [sv](View req) -> Task<Buffer> {
    co_await sv->cpu().compute(1us + sim::transfer_time(req.size(), 20.0));
    co_return Buffer(req.begin(), req.end());
  };
  std::vector<std::unique_ptr<RpcChannel>> channels;
  for (int c = 0; c < kClients; ++c)
    channels.push_back(make_channel(kind, *fabric.add_node(), *sv, handler,
                                    ChannelConfig{}.with_poll(PollMode::kBusy)));
  std::vector<sim::Duration> lat;
  for (auto& ch : channels) {
    sim.spawn([](Simulator& sim, RpcChannel& ch,
                 std::vector<sim::Duration>& lat) -> Task<void> {
      const Buffer req(512, std::byte{'p'});
      for (int i = 0; i < kCalls; ++i) {
        const sim::Time t0 = sim.now();
        EXPECT_EQ((co_await ch.call(req, 512)).value(), req);
        lat.push_back(sim.now() - t0);
      }
      ch.shutdown();
    }(sim, *ch, lat));
  }
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(lat.size(), size_t(kClients * kCalls));
  std::nth_element(lat.begin(), lat.begin() + lat.size() / 2, lat.end());
  return lat[lat.size() / 2];
}

TEST(DirectClient, WriteImmMedianBeatsEagerAtSixteenBusyClients) {
  // The paper's Fig. 5 puts Direct-WriteIMM first. Under the one-slot rule
  // its client reaps its own reply and its server runs the handler inline.
  // A server that spawned every handler while its poller kept spinning
  // would hold two cores per request, time-slice the handlers of 16 busy
  // connections and lose to Eager-SendRecv here.
  const sim::Duration direct =
      median_of_16_busy_clients(ProtocolKind::kDirectWriteImm);
  const sim::Duration eager =
      median_of_16_busy_clients(ProtocolKind::kEagerSendRecv);
  EXPECT_LT(direct, eager) << direct.count() << " ns vs " << eager.count()
                           << " ns";
}

/// Sends each of `frames` as a raw SEND on the client's QP of a fresh
/// `kind` channel (max_msg 4 KiB, `window` slots), then, 200 us later, one
/// real call. The server must drop every forged frame and keep serving:
/// the handler sees nothing before the call and only the call after it,
/// the call echoes within 50 ms of virtual time, and no task outlives
/// shutdown.
void expect_server_drops(ProtocolKind kind, uint32_t window,
                         const std::vector<Buffer>& frames) {
  SCOPED_TRACE(std::string(to_string(kind)) + ", window " +
               std::to_string(window));
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  std::vector<Buffer> seen;
  Handler echo = [&seen](View req) -> Task<Buffer> {
    seen.emplace_back(req.begin(), req.end());
    co_return Buffer(req.begin(), req.end());
  };
  auto ch = make_channel(
      kind, *cl, *sv, echo,
      ChannelConfig{}.with_max_msg(4096).with_window(window));
  verbs::QueuePair* qp = qp_on(fabric, *cl);
  ASSERT_NE(qp, nullptr);
  // One 32-byte source per frame: a SEND reads its payload when it runs.
  verbs::MemoryRegion* src = cl->pd().alloc_mr(32 * frames.size());
  const Buffer req(64, std::byte{5});
  bool echoed = false;
  sim.spawn([](Simulator& sim, verbs::QueuePair* qp, verbs::MemoryRegion* src,
               const std::vector<Buffer>& frames, RpcChannel& ch,
               const Buffer& req, const std::vector<Buffer>& seen,
               bool& echoed) -> Task<void> {
    for (size_t i = 0; i < frames.size(); ++i) {
      std::byte* p = src->data() + 32 * i;
      std::copy(frames[i].begin(), frames[i].end(), p);
      co_await qp->post_send(verbs::SendWr{
          .opcode = verbs::Opcode::kSend,
          .local = {p, static_cast<uint32_t>(frames[i].size())},
          .signaled = false});
    }
    co_await sim.sleep(200us);
    EXPECT_TRUE(seen.empty()) << "a forged frame reached the handler";
    CallResult r = co_await ch.call(req, 64);
    echoed = r.ok() && *r == req;
  }(sim, qp, src, frames, *ch, req, seen, echoed));
  sim.run_until(sim::Time(50ms));
  EXPECT_TRUE(echoed) << "the call after the forged frames did not echo";
  EXPECT_TRUE(seen == std::vector<Buffer>{req})
      << "the handler saw " << seen.size() << " requests";
  ch->shutdown();
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
}

/// A rendezvous ctrl frame for slot 0: [type][len][addr][rkey].
Buffer ctrl_frame(uint32_t type, uint32_t len) {
  Buffer f(20, std::byte{0});
  put_u32(f.data(), type);
  put_u32(f.data() + 4, len);
  return f;
}

constexpr uint32_t kRtsType = 1;
constexpr uint32_t kFinType = 3;

TEST(EagerServer, DropsAFragmentShorterThanItsHeader) {
  for (uint32_t window : {1u, 2u})
    expect_server_drops(ProtocolKind::kEagerSendRecv, window,
                        {Buffer(2, std::byte{7})});
}

TEST(EagerServer, RepostsTheRingSlotOfEveryDroppedFragment) {
  // One more rejected fragment than the ring has slots: each must give its
  // recv back, or the real call's SEND finds no posted recv.
  const std::vector<Buffer> frames(kEagerSlots + 1,
                                   Buffer(2, std::byte{7}));
  for (uint32_t window : {1u, 2u})
    expect_server_drops(ProtocolKind::kEagerSendRecv, window, frames);
}

TEST(RendezvousServer, FailsAFrameAnnouncingMoreThanMaxMsg) {
  // An RTS carries the request's length off the wire, and the server READs
  // (Read-RNDV) or accepts (Write-RNDV) that many bytes into its max_msg
  // slot. One announcing 64 KiB against a 4 KiB max_msg is dropped before
  // any READ, and the slot keeps waiting for a real request.
  for (ProtocolKind kind : {ProtocolKind::kReadRndv, ProtocolKind::kWriteRndv})
    for (uint32_t window : {1u, 2u})
      expect_server_drops(kind, window, {ctrl_frame(kRtsType, 64 << 10)});
}

TEST(RendezvousServer, DropsAFinWhileWaitingForAnRts) {
  for (uint32_t window : {1u, 2u})
    expect_server_drops(ProtocolKind::kReadRndv, window,
                        {ctrl_frame(kFinType, 0)});
}

TEST(RendezvousClient, FailsAReplyAnnouncingMoreThanMaxMsg) {
  // The reply's length comes off the wire in the server's RTS: one past
  // max_msg fails the one call it names with a length error, and a call
  // holding another slot still echoes.
  for (uint32_t window : {1u, 2u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* cl = fabric.add_node();
    verbs::Node* sv = fabric.add_node();
    Handler slow_echo = [&sim](View req) -> Task<Buffer> {
      co_await sim.sleep(50us);
      co_return Buffer(req.begin(), req.end());
    };
    auto ch = make_channel(
        ProtocolKind::kReadRndv, *cl, *sv, slow_echo,
        ChannelConfig{}.with_max_msg(4096).with_window(window));
    verbs::QueuePair* qp = qp_on(fabric, *sv);
    ASSERT_NE(qp, nullptr);
    verbs::MemoryRegion* forged = sv->pd().alloc_mr(20);
    const Buffer rts = ctrl_frame(kRtsType, 1u << 20);
    std::copy(rts.begin(), rts.end(), forged->data());
    const Buffer req(64, std::byte{5});
    bool threw = false;
    int echoed = 0;
    // The first call holds slot 0, which the forged RTS names.
    sim.spawn([](RpcChannel& ch, const Buffer& req, bool& threw,
                 int& echoed) -> Task<void> {
      try {
        if (CallResult r = co_await ch.call(req, 64); r.ok() && *r == req)
          ++echoed;
      } catch (const std::length_error&) {
        threw = true;
      }
    }(*ch, req, threw, echoed));
    if (window > 1) {
      sim.spawn([](RpcChannel& ch, const Buffer& req,
                   int& echoed) -> Task<void> {
        if (CallResult r = co_await ch.call(req, 64); r.ok() && *r == req)
          ++echoed;
      }(*ch, req, echoed));
    }
    sim.spawn([](Simulator& sim, verbs::QueuePair* qp,
                 verbs::MemoryRegion* forged) -> Task<void> {
      co_await sim.sleep(10us);
      co_await qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kSend,
                                           .local = {forged->data(), 20},
                                           .signaled = false});
    }(sim, qp, forged));
    sim.run_until(sim::Time(200us));
    EXPECT_TRUE(threw) << "a reply past max_msg was taken";
    EXPECT_EQ(echoed, window > 1 ? 1 : 0);
    ch->shutdown();
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
  }
}

/// Runs `calls` calls one after another on a fresh `kind` channel (`window`
/// slots) whose echo handler takes 50 us, each sending its own bytes. 10 us
/// in, the server's QP sends the client a 2-byte SEND, a fragment shorter
/// than its header that the response pipe rejects. Returns how each call
/// ended by 1 ms of virtual time, after checking that no task outlives
/// shutdown.
std::vector<Outcome> eager_calls_after_a_forged_fragment(ProtocolKind kind,
                                                        uint32_t window,
                                                        int calls) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  Handler slow_echo = [&sim](View req) -> Task<Buffer> {
    co_await sim.sleep(50us);
    co_return Buffer(req.begin(), req.end());
  };
  auto ch = make_channel(kind, *cl, *sv, slow_echo,
                         ChannelConfig{}.with_max_msg(4096).with_window(window));
  verbs::QueuePair* qp = qp_on(fabric, *sv);
  EXPECT_NE(qp, nullptr);
  if (!qp) return {};
  verbs::MemoryRegion* src = sv->pd().alloc_mr(2);
  std::vector<Outcome> out(size_t(calls), Outcome::kPending);
  sim.spawn([](RpcChannel& ch, std::vector<Outcome>& out) -> Task<void> {
    for (size_t i = 0; i < out.size(); ++i) {
      const Buffer req(64, std::byte(i + 1));
      CallResult r = co_await ch.call(req, 64);
      out[i] = r.ok() && *r == req ? Outcome::kOwnEcho : Outcome::kOther;
    }
  }(*ch, out));
  sim.spawn([](Simulator& sim, verbs::QueuePair* qp,
               verbs::MemoryRegion* src) -> Task<void> {
    co_await sim.sleep(10us);
    co_await qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kSend,
                                         .local = {src->data(), 2},
                                         .signaled = false});
  }(sim, qp, src));
  sim.run_until(sim::Time(1ms));
  ch->shutdown();
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  return out;
}

TEST(EagerClient, DropsAFragmentShorterThanItsHeader) {
  // The client's half of the wire rule: a fragment the response pipe
  // rejects is dropped and the caller keeps waiting, as the servers do.
  // Every call then echoes its own bytes, so the channel is not dead and
  // no call was handed an earlier call's reply.
  for (ProtocolKind kind : {ProtocolKind::kEagerSendRecv, ProtocolKind::kHerd})
    for (uint32_t window : {1u, 2u}) {
      SCOPED_TRACE(std::string(to_string(kind)) + ", window " +
                   std::to_string(window));
      EXPECT_EQ(eager_calls_after_a_forged_fragment(kind, window, 3),
                std::vector<Outcome>(3, Outcome::kOwnEcho));
    }
}

class WindowedIdle : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(WindowedIdle, ClientHoldsNoBusyCoreBetweenCalls) {
  // With no call waiting, nothing polls the client's CQs: the callers poll
  // them only while they wait. A task draining them would hold one of the
  // client's cores here, with busy polling at window 4.
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  auto ch = make_channel(GetParam(), *cl, *sv, make_upcase_handler(*sv),
                         ChannelConfig{}.with_window(4).with_poll(
                             PollMode::kBusy));
  int echoed = 0;
  for (uint32_t lane = 0; lane < 4; ++lane)
    sim.spawn([](RpcChannel& ch, uint32_t lane, int& echoed) -> Task<void> {
      for (int i = 0; i < 2; ++i) {
        const std::string req(512, static_cast<char>('a' + lane + i));
        CallResult r = co_await ch.call(to_buffer(req), 512);
        if (r.ok() && as_string(*r) == upcased(req)) ++echoed;
      }
    }(*ch, lane, echoed));
  sim.run();
  EXPECT_EQ(echoed, 8);
  EXPECT_EQ(cl->cpu().busy_pollers(), 0);
  ch->shutdown();
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowedIdle,
                         ::testing::ValuesIn(kAllProtocols),
                         [](const auto& info) {
                           std::string n(to_string(info.param));
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// ---- Reliability framing: the RpcHeader comes off the wire, so its parse
// is checked against the bytes actually received.

Buffer rpc_frame(uint64_t seq, uint32_t announced, size_t payload_bytes) {
  Buffer b(kRpcHeaderBytes + payload_bytes, std::byte{'p'});
  put_rpc_header(b.data(), RpcHeader{seq, 1, announced});
  return b;
}

TEST(RpcFrame, ParsesTheAnnouncedPayload) {
  const Buffer exact = rpc_frame(7, 5, 5);
  const RpcFrame f = parse_rpc_frame(exact);
  EXPECT_EQ(f.header.seq, 7u);
  EXPECT_EQ(f.header.attempt, 1u);
  EXPECT_EQ(f.payload.data(), exact.data() + kRpcHeaderBytes);
  EXPECT_EQ(f.payload.size(), 5u);
  // Trailing bytes past the announced payload are not part of it.
  EXPECT_EQ(parse_rpc_frame(rpc_frame(8, 3, 9)).payload.size(), 3u);
  EXPECT_TRUE(parse_rpc_frame(rpc_frame(9, 0, 0)).payload.empty());
}

TEST(RpcFrame, RejectsTruncatedFrames) {
  const Buffer whole = rpc_frame(1, 0, 0);
  for (size_t n : {size_t(0), size_t(8), size_t(15)}) {
    SCOPED_TRACE(std::to_string(n) + " bytes");
    // A heap copy of exactly n bytes, so a read past it is caught by the
    // sanitizers rather than landing in the rest of `whole`.
    const Buffer cut(whole.begin(), whole.begin() + ptrdiff_t(n));
    EXPECT_THROW(parse_rpc_frame(cut), MalformedFrame);
  }
}

TEST(RpcFrame, RejectsALenPastTheEnd) {
  EXPECT_THROW(parse_rpc_frame(rpc_frame(1, 6, 5)), MalformedFrame);
  EXPECT_THROW(parse_rpc_frame(rpc_frame(1, 1, 0)), MalformedFrame);
  // A huge length must not wrap the bounds check.
  EXPECT_THROW(parse_rpc_frame(rpc_frame(1, UINT32_MAX, 4)), MalformedFrame);
  try {
    parse_rpc_frame(rpc_frame(1, 6, 5));
  } catch (const MalformedFrame& e) {
    EXPECT_STREQ(e.what(),
                 "rpc frame announces 6 payload bytes but carries 5");
  }
}

}  // namespace
}  // namespace hatrpc::proto
