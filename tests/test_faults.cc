// Chaos harness: echo and HatKV workloads driven through the reliability
// layer while a seeded FaultPlan drops, corrupts, duplicates and delays
// wire transmissions and kills QPs/nodes/MR registrations at scheduled
// virtual times. The invariants under test:
//   * every call either returns the correct bytes or fails with a typed
//     RpcError — the client NEVER hangs (live_tasks() == 0 after run());
//   * two runs with the same seed produce byte-identical fault traces,
//     identical outcome sequences, and identical event counts;
//   * timeouts + seq-numbered retries are idempotent (server-side replay);
//   * losing one-sided remote access degrades to the eager two-sided path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "all_protocols.h"
#include "kv/hatkv.h"
#include "proto/reliable.h"

namespace hatrpc {
namespace {

using proto::Buffer;
using proto::ChannelConfig;
using proto::kAllProtocols;
using proto::ProtocolKind;
using proto::ReliableChannel;
using proto::RetryPolicy;
using proto::RpcErrc;
using proto::RpcError;
using proto::View;
using sim::Simulator;
using sim::Task;
using verbs::FaultPlan;
using namespace std::chrono_literals;

proto::Handler echo_handler() {
  return [](View req) -> Task<Buffer> {
    co_return Buffer(req.begin(), req.end());
  };
}

std::string payload_for(int i) {
  // Cycle sizes across the eager slot / rendezvous threshold boundaries.
  static constexpr size_t kSizes[] = {16, 100, 2048, 6000};
  std::string s = "call-" + std::to_string(i) + "-";
  while (s.size() < kSizes[i % 4]) s.push_back(static_cast<char>('a' + i % 26));
  return s;
}

struct ChaosResult {
  std::vector<std::string> trace;     // FaultPlan's injection log
  std::vector<std::string> outcomes;  // per call: "ok" / errc / "BAD"
  uint64_t events = 0;
  std::string counters;  // the whole obs counter dump
};

/// One seeded chaos run: kCalls echo RPCs paced 20us apart under stochastic
/// wire faults plus two scheduled QP kills that straddle the run.
ChaosResult run_chaos(ProtocolKind kind, uint64_t seed) {
  constexpr int kCalls = 24;
  Simulator sim;
  verbs::Fabric fabric{sim};
  // Chaos runs double as a VerbsCheck workout: every WQE posted across QP
  // kills, retries, and replays must still retire with a completion, and the
  // end-of-run audit must come back clean. Record mode keeps the run
  // deterministic (the checker never touches virtual time); an env-selected
  // abort mode is left alone.
  if (!fabric.check().on())
    fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  RetryPolicy pol;
  pol.timeout = 500us;
  pol.jitter_seed = seed * 2654435761ULL + 1;
  auto ch = proto::make_reliable_channel(kind, *cl, *sv, echo_handler(),
                                         ChannelConfig{}, pol);
  auto plan = std::make_unique<FaultPlan>(seed);
  plan->profile.drop = 0.05;
  plan->profile.corrupt = 0.03;
  plan->profile.duplicate = 0.05;
  plan->profile.delay = 0.10;
  plan->fail_qp_at(1, sim::Time(200us));
  plan->fail_qp_at(2, sim::Time(450us));
  fabric.set_fault_plan(std::move(plan));

  ChaosResult r;
  sim.spawn([](Simulator& sim, ReliableChannel& ch,
               ChaosResult& r) -> Task<void> {
    for (int i = 0; i < kCalls; ++i) {
      std::string want = payload_for(i);
      proto::CallResult res = co_await ch.call(proto::to_buffer(want));
      if (!res)
        r.outcomes.emplace_back(to_string(res.error().errc()));
      else
        r.outcomes.emplace_back(proto::as_string(*res) == want ? "ok" : "BAD");
      co_await sim.sleep(20us);
    }
    ch.abort();
  }(sim, *ch, r));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u) << "chaos run leaked tasks (hang)";
  verbs::AuditReport audit = fabric.audit();
  EXPECT_TRUE(audit.clean()) << audit.str();
  EXPECT_EQ(audit.violations, 0u) << audit.str();
  r.trace = fabric.fault_plan()->trace();
  r.events = sim.events_processed();
  r.counters = fabric.obs().counters.dump();
  return r;
}

TEST(Faults, ChaosEchoAllProtocolsNeverHangOrCorrupt) {
  for (ProtocolKind kind : kAllProtocols) {
    ChaosResult r = run_chaos(kind, 0xC0FFEE);
    SCOPED_TRACE(std::string("kind=") + std::string(to_string(kind)));
    ASSERT_EQ(r.outcomes.size(), 24u);
    int ok = 0;
    for (const std::string& o : r.outcomes) {
      EXPECT_NE(o, "BAD") << "payload corruption leaked through to the app";
      if (o == "ok") ++ok;
    }
    // The two QP kills can cost calls, but the bulk must get through.
    EXPECT_GE(ok, 12);
    EXPECT_FALSE(r.trace.empty());  // at least the scheduled qp-errors
  }
}

TEST(Faults, SameSeedSameTraceDifferentSeedDiverges) {
  for (ProtocolKind kind : {ProtocolKind::kEagerSendRecv,
                            ProtocolKind::kReadRndv, ProtocolKind::kRfp}) {
    SCOPED_TRACE(std::string("kind=") + std::string(to_string(kind)));
    ChaosResult a = run_chaos(kind, 99);
    ChaosResult b = run_chaos(kind, 99);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.counters, b.counters);
    ChaosResult c = run_chaos(kind, 100);
    EXPECT_NE(a.trace, c.trace);
  }
}

TEST(Faults, TimedOutAttemptIsReplayedNotReexecuted) {
  // The client QP dies mid-call (after the request reached the server,
  // before the response came back). The retry carries the same sequence
  // number, so the server replays its cached response instead of running
  // the handler twice.
  Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  int executed = 0;
  proto::Handler slow = [&sim, &executed](View req) -> Task<Buffer> {
    ++executed;
    co_await sim.sleep(30us);  // response outstanding when the QP dies
    co_return Buffer(req.begin(), req.end());
  };
  RetryPolicy pol;
  pol.backoff_base = 50us;  // retry lands after the handler finished
  auto ch = proto::make_reliable_channel(ProtocolKind::kEagerSendRecv, *cl,
                                         *sv, slow, ChannelConfig{}, pol);
  auto plan = std::make_unique<FaultPlan>(5);
  plan->fail_qp_at(1, sim::Time(25us));  // qp 1 = the client QP
  fabric.set_fault_plan(std::move(plan));
  std::string got;
  sim.spawn([](ReliableChannel& ch, std::string& got) -> Task<void> {
    Buffer resp = (co_await ch.call(proto::to_buffer("needs-retry"))).value();
    got = proto::as_string(resp);
    ch.abort();
  }(*ch, got));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(got, "needs-retry");
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(ch->counters()->get(obs::Ctr::kReplays), 1u);
  EXPECT_EQ(ch->counters()->get(obs::Ctr::kReconnects), 1u);
}

TEST(Faults, ServerCrashFailsTypedNeverHangs) {
  Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  RetryPolicy pol;
  pol.max_attempts = 3;
  auto ch = proto::make_reliable_channel(ProtocolKind::kEagerSendRecv, *cl,
                                         *sv, echo_handler(),
                                         ChannelConfig{}, pol);
  auto plan = std::make_unique<FaultPlan>(3);
  plan->crash_node_at(sv->id(), sim::Time(100us));
  fabric.set_fault_plan(std::move(plan));
  std::vector<std::string> outcomes;
  sim.spawn([](Simulator& sim, ReliableChannel& ch,
               std::vector<std::string>& outcomes) -> Task<void> {
    Buffer ok = (co_await ch.call(proto::to_buffer("pre-crash"))).value();
    outcomes.emplace_back(proto::as_string(ok));
    co_await sim.sleep(150us);  // the server is dead now
    proto::CallResult post = co_await ch.call(proto::to_buffer("post-crash"));
    outcomes.emplace_back(post ? "unexpected-ok"
                               : to_string(post.error().errc()));
    ch.abort();
  }(sim, *ch, outcomes));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], "pre-crash");
  EXPECT_EQ(outcomes[1], "retries-exhausted");
  // All three attempts of the post-crash call failed typed: two retries,
  // and none of them ran out its deadline.
  EXPECT_EQ(ch->counters()->get(obs::Ctr::kRetryAttempts), 2u);
  EXPECT_EQ(ch->counters()->get(obs::Ctr::kTimeouts), 0u);
}

TEST(Faults, RevokedExportDegradesToEagerPath) {
  // Server-bypass protocols depend on READ/WRITE access to exported
  // regions; when those are revoked mid-run the reliability layer falls
  // back to two-sided eager and keeps serving.
  for (ProtocolKind kind : {ProtocolKind::kPilaf, ProtocolKind::kFarm,
                            ProtocolKind::kRfp}) {
    SCOPED_TRACE(std::string("kind=") + std::string(to_string(kind)));
    Simulator sim;
    verbs::Fabric fabric{sim};
    verbs::Node* cl = fabric.add_node();
    verbs::Node* sv = fabric.add_node();
    auto ch = proto::make_reliable_channel(kind, *cl, *sv, echo_handler(),
                                           ChannelConfig{}, RetryPolicy{});
    auto plan = std::make_unique<FaultPlan>(11);
    plan->revoke_remote_access_at(sv->id(), sim::Time(30us));
    fabric.set_fault_plan(std::move(plan));
    int ok = 0;
    sim.spawn([](Simulator& sim, ReliableChannel& ch, int& ok) -> Task<void> {
      Buffer r = (co_await ch.call(proto::to_buffer("one-sided"))).value();
      if (proto::as_string(r) == "one-sided") ++ok;
      co_await sim.sleep_until(sim::Time(50us));
      for (int i = 0; i < 3; ++i) {
        std::string want = "degraded-" + std::to_string(i);
        Buffer d = (co_await ch.call(proto::to_buffer(want))).value();
        if (proto::as_string(d) == want) ++ok;
      }
      ch.abort();
    }(sim, *ch, ok));
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
    EXPECT_EQ(ok, 4);
    EXPECT_TRUE(ch->degraded());
    EXPECT_EQ(ch->active_kind(), ProtocolKind::kEagerSendRecv);
    EXPECT_GE(ch->counters()->get(obs::Ctr::kFallbacks), 1u);
    EXPECT_FALSE(fabric.fault_plan()->trace().empty());
  }
}

TEST(Faults, TotalDeadlineBoundsTailLatencyAgainstDeadReplica) {
  // Against a dead server, max_attempts alone rides the full
  // timeout+backoff ladder. A total_deadline must cut the call short with
  // a typed kDeadlineExceeded well before the ladder finishes, so cluster
  // failover can bound tail latency.
  Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  RetryPolicy pol;
  pol.max_attempts = 10;
  pol.timeout = 500us;
  pol.total_deadline = 1200us;
  auto ch = proto::make_reliable_channel(ProtocolKind::kEagerSendRecv, *cl,
                                         *sv, echo_handler(),
                                         ChannelConfig{}, pol);
  auto plan = std::make_unique<FaultPlan>(13);
  plan->crash_node_at(sv->id(), sim::Time(10us));
  fabric.set_fault_plan(std::move(plan));
  std::string errc;
  sim::Time issued{}, failed{};
  sim.spawn([](Simulator& sim, ReliableChannel& ch, std::string& errc,
               sim::Time& issued, sim::Time& failed) -> Task<void> {
    co_await sim.sleep(50us);  // the server is dead now
    issued = sim.now();
    proto::CallResult r = co_await ch.call(proto::to_buffer("doomed"));
    failed = sim.now();
    errc = r ? "unexpected-ok" : std::string(to_string(r.error().errc()));
    ch.abort();
  }(sim, *ch, errc, issued, failed));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(errc, "deadline-exceeded");
  // The budget is enforced in virtual time (one in-flight attempt may
  // still be draining when it expires, so allow one attempt of slack)...
  EXPECT_LE(failed - issued, sim::Duration(1200us + 500us));
  // ...and it fired well before the 10-attempt ladder would have (a call's
  // attempts are its first plus its retries).
  EXPECT_LT(1 + ch->counters()->get(obs::Ctr::kRetryAttempts), 10u);
  EXPECT_GE(cl->counters().get(obs::Ctr::kDeadlineExceeded), 1u);
}

TEST(Faults, ReplayCacheSuppressesRetriesAcrossCrashAndReconnectEpochs) {
  // A server finishes an op but dies before the response escapes; the
  // node later restarts. The client's retry rides a REBUILT channel (new
  // QPs, next reconnect epoch) under a duplicate-happy wire — yet the op
  // must execute exactly once: the dedupe cache is keyed by sequence
  // number and shared across every channel incarnation.
  Simulator sim;
  verbs::Fabric fabric{sim};
  if (!fabric.check().on())
    fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  int executed = 0;
  proto::Handler slow = [&sim, &executed](View req) -> Task<Buffer> {
    ++executed;
    co_await sim.sleep(30us);  // response still pending at crash time
    co_return Buffer(req.begin(), req.end());
  };
  RetryPolicy pol;
  pol.max_attempts = 6;
  pol.timeout = 300us;
  auto ch = proto::make_reliable_channel(ProtocolKind::kEagerSendRecv, *cl,
                                         *sv, slow, ChannelConfig{}, pol);
  auto plan = std::make_unique<FaultPlan>(29);
  plan->profile.duplicate = 0.25;  // wire-level duplicates on top
  plan->crash_node_at(sv->id(), sim::Time(50us));
  plan->restart_node_at(sv->id(), sim::Time(200us));
  fabric.set_fault_plan(std::move(plan));
  std::string got;
  sim.spawn([](Simulator& sim, ReliableChannel& ch, std::string& got)
                -> Task<void> {
    co_await sim.sleep(25us);  // lands just before the crash
    Buffer resp = (co_await ch.call(proto::to_buffer("exactly-once"))).value();
    got = proto::as_string(resp);
    ch.abort();
  }(sim, *ch, got));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(got, "exactly-once");
  EXPECT_EQ(executed, 1) << "a retry re-executed an already-applied op";
  EXPECT_GE(ch->counters()->get(obs::Ctr::kReplays), 1u);
  EXPECT_GE(ch->counters()->get(obs::Ctr::kReconnects), 1u)
      << "the retry should have crossed a reconnect epoch";
  verbs::AuditReport audit = fabric.audit();
  EXPECT_TRUE(audit.clean()) << audit.str();
}

TEST(Faults, RetriesAndReconnectsSurfaceAsObsCounters) {
  // The chaos harness asserts on failover behavior through obs counters;
  // make sure the reliability layer feeds both the client node's scope and
  // the channel's.
  Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  RetryPolicy pol;
  pol.max_attempts = 3;
  pol.timeout = 200us;
  auto ch = proto::make_reliable_channel(ProtocolKind::kEagerSendRecv, *cl,
                                         *sv, echo_handler(),
                                         ChannelConfig{}, pol);
  auto plan = std::make_unique<FaultPlan>(41);
  plan->crash_node_at(sv->id(), sim::Time(10us));
  fabric.set_fault_plan(std::move(plan));
  sim.spawn([](Simulator& sim, ReliableChannel& ch) -> Task<void> {
    co_await sim.sleep(20us);
    (void)co_await ch.call(proto::to_buffer("x"));  // fails; that's the point
    ch.abort();
  }(sim, *ch));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  const obs::CounterSet* scopes[] = {&cl->counters(), ch->counters()};
  for (const obs::CounterSet* scope : scopes) {
    EXPECT_GE(scope->get(obs::Ctr::kRetryAttempts), 1u);
    EXPECT_GE(scope->get(obs::Ctr::kReconnects), 1u);
  }
}

TEST(Faults, HatKvWorkloadSurvivesStochasticFaults) {
  // The full engine (hint-planned channels, generated stubs, mdblite) over
  // a lossy fabric: the RC retransmit machinery absorbs every wire fault.
  Simulator sim;
  verbs::Fabric fabric{sim};
  if (!fabric.check().on())
    fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
  verbs::Node* sn = fabric.add_node();
  kv::HatKVServer server{*sn};
  verbs::Node* cn = fabric.add_node();
  auto plan = std::make_unique<FaultPlan>(77);
  plan->profile.drop = 0.05;
  plan->profile.corrupt = 0.03;
  plan->profile.duplicate = 0.05;
  plan->profile.delay = 0.20;
  fabric.set_fault_plan(std::move(plan));
  core::HatConnection conn(*cn, server.server());
  ::hatkv::HatKVClient client(conn);
  int ok = 0;
  sim.spawn([](::hatkv::HatKVClient& client, kv::HatKVServer& server,
               int& ok) -> Task<void> {
    for (int i = 0; i < 30; ++i) {
      std::string key = "k" + std::to_string(i);
      std::string value = "v" + std::to_string(i * 31);
      co_await client.Put(key, value);
      if (co_await client.Get(key) == value) ++ok;
    }
    server.stop();
  }(client, server, ok));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(ok, 30);
  EXPECT_GT(fabric.fault_plan()->injected(), 0u);
  verbs::AuditReport audit = fabric.audit();
  EXPECT_TRUE(audit.clean()) << audit.str();
  EXPECT_EQ(audit.violations, 0u) << audit.str();
}

TEST(Faults, HatKvSameSeedIsDeterministic) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    verbs::Fabric fabric{sim};
    verbs::Node* sn = fabric.add_node();
    kv::HatKVServer server{*sn};
    verbs::Node* cn = fabric.add_node();
    auto plan = std::make_unique<FaultPlan>(seed);
    plan->profile.drop = 0.08;
    plan->profile.delay = 0.25;
    fabric.set_fault_plan(std::move(plan));
    core::HatConnection conn(*cn, server.server());
    ::hatkv::HatKVClient client(conn);
    sim.spawn([](::hatkv::HatKVClient& client,
                 kv::HatKVServer& server) -> Task<void> {
      for (int i = 0; i < 15; ++i) {
        co_await client.Put("key" + std::to_string(i), std::string(200, 'x'));
        co_await client.Get("key" + std::to_string(i));
      }
      server.stop();
    }(client, server));
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
    return std::pair(fabric.fault_plan()->trace(), sim.events_processed());
  };
  auto [trace1, events1] = run(2024);
  auto [trace2, events2] = run(2024);
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(events1, events2);
  EXPECT_FALSE(trace1.empty());
}

}  // namespace
}  // namespace hatrpc
