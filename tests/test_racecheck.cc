// RaceCheck happens-before analyzer tests: the zero-perturbation guarantee
// (enabling the checker changes no trace), seeded tiebreak-shuffle
// determinism, one deliberate violation per detector class (unsynchronized
// write/write, use-after-retire), the sync edges that
// must SUPPRESS reports (Event, lease handoff, run barrier), abort-mode
// throw semantics, and the counter mirror.
//
// Every test pins the checker mode explicitly (set_mode) so the suite
// behaves identically whether or not the RACECHECK env var is set — CI runs
// the chaos/cluster suites under RACECHECK=abort separately.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "proto/buffer_pool.h"
#include "proto/channel.h"
#include "sim/racecheck.h"
#include "sim/sync.h"
#include "verbs/verbs.h"

namespace hatrpc::sim {
namespace {

using proto::Buffer;
using proto::View;
using namespace std::chrono_literals;

using Mode = RaceCheck::Mode;

// ---------------------------------------------------------------------------
// Zero perturbation: the checker must never move virtual time.
// ---------------------------------------------------------------------------

/// A workload with real concurrency (channel echo + timers + sync), whose
/// observable trace is every resume timestamp a task sees.
std::vector<Time> trace_workload(Mode mode, uint64_t tiebreak) {
  Simulator sim;
  sim.racecheck().set_mode(mode);
  sim.set_tiebreak_seed(tiebreak);
  verbs::Fabric fabric(sim);
  verbs::Node* cl = fabric.add_node();
  verbs::Node* sv = fabric.add_node();
  auto ch = proto::make_channel(
      proto::ProtocolKind::kEagerSendRecv, *cl, *sv,
      [sv](View req) -> Task<Buffer> {
        co_await sv->cpu().compute(200ns);
        co_return Buffer(req.begin(), req.end());
      },
      proto::ChannelConfig{.window = 2});

  std::vector<Time> trace;
  WaitGroup wg(sim);
  for (int t = 0; t < 4; ++t) {
    wg.add(1);
    sim.spawn([](Simulator& sim, proto::RpcChannel& ch, int t,
                 std::vector<Time>& trace, WaitGroup& wg) -> Task<void> {
      co_await sim.sleep(std::chrono::nanoseconds(t * 100));
      trace.push_back(sim.now());
      Buffer req(32 + t, std::byte{static_cast<unsigned char>(t)});
      Buffer resp = (co_await ch.call(req)).value();
      trace.push_back(sim.now());
      trace.push_back(Time(std::chrono::nanoseconds(
          static_cast<int64_t>(resp.size()))));
      wg.done();
    }(sim, *ch, t, trace, wg));
  }
  sim.spawn([](WaitGroup& wg, proto::RpcChannel& ch) -> Task<void> {
    co_await wg.wait();
    ch.shutdown();
  }(wg, *ch));
  sim.run();
  return trace;
}

TEST(RaceCheckOff, EnablingTheCheckerChangesNoTrace) {
  const std::vector<Time> off = trace_workload(Mode::kOff, 0);
  const std::vector<Time> record = trace_workload(Mode::kRecord, 0);
  const std::vector<Time> abort_m = trace_workload(Mode::kAbort, 0);
  EXPECT_EQ(off, record);
  EXPECT_EQ(off, abort_m);
}

TEST(RaceCheckOff, OffModeRecordsNothing) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kOff);
  int loc = 0;
  sim.rc_write(&loc, 0, "test.loc", "a");
  sim.rc_write(&loc, 0, "test.loc", "b");  // would race if enabled
  EXPECT_EQ(sim.racecheck().total(), 0u);
}

// ---------------------------------------------------------------------------
// Tiebreak perturbation: seeded, deterministic, off by default.
// ---------------------------------------------------------------------------

std::vector<int> dispatch_order(uint64_t seed) {
  Simulator sim;
  sim.set_tiebreak_seed(seed);
  std::vector<int> order;
  for (int t = 0; t < 8; ++t)
    sim.spawn([](Simulator& sim, std::vector<int>& order,
                 int t) -> Task<void> {
      // Spawn runs eagerly to the first suspension; the yield puts all 8
      // resumptions into one same-timestamp dispatch batch.
      co_await sim.yield();
      order.push_back(t);
    }(sim, order, t));
  sim.run();
  return order;
}

TEST(RaceCheckTiebreak, SeedZeroKeepsSubmissionOrder) {
  EXPECT_EQ(dispatch_order(0), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(RaceCheckTiebreak, SameSeedSameOrderDifferentSeedPerturbs) {
  const std::vector<int> a = dispatch_order(7);
  EXPECT_EQ(a, dispatch_order(7)) << "a seed must be reproducible";
  EXPECT_NE(a, dispatch_order(0)) << "seed 7 should shuffle an 8-task batch";
  EXPECT_NE(dispatch_order(13), dispatch_order(0));
}

// ---------------------------------------------------------------------------
// Race detection: unsynchronized conflicting accesses.
// ---------------------------------------------------------------------------

TEST(RaceCheckRace, UnorderedPoolSlotWritesAreReported) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kRecord);
  sim.set_tiebreak_seed(0);  // pin: the assertions name who ran first
  verbs::Fabric fabric(sim);
  verbs::Node* node = fabric.add_node();
  proto::BufferPool pool(*node, 256, 4);
  proto::BufferPool::Lease lease = pool.acquire();

  // Two sibling tasks fill the SAME lease with no ordering between them —
  // the bug class where a serialization buffer is shared across calls.
  for (int t = 0; t < 2; ++t)
    sim.spawn([](Simulator& sim, proto::BufferPool::Lease& l,
                 int t) -> Task<void> {
      co_await sim.yield();  // run the write in a dispatched segment
      l.annotate_write(t == 0 ? "writer-a" : "writer-b");
    }(sim, lease, t));
  sim.run();

  ASSERT_EQ(sim.racecheck().count(RaceKind::kRace), 1u);
  const RaceReport& r = sim.racecheck().reports()[0];
  EXPECT_EQ(r.kind, RaceKind::kRace);
  EXPECT_NE(r.object.find("BufferPool.slot"), std::string::npos) << r.str();
  // Both provenances must be present and name the conflicting sites.
  ASSERT_TRUE(r.prev.valid());
  ASSERT_TRUE(r.cur.valid());
  EXPECT_STREQ(r.prev.site, "writer-a");
  EXPECT_STREQ(r.cur.site, "writer-b");
  EXPECT_NE(r.prev.chain, r.cur.chain);
}

TEST(RaceCheckRace, EventEdgeOrdersTheSameAccessPattern) {
  // The same two writes, but ordered through an Event: no report.
  Simulator sim;
  sim.racecheck().set_mode(Mode::kAbort);  // abort: a false positive throws
  int loc = 0;
  Event ready(sim);
  sim.spawn([](Simulator& sim, int& loc, Event& ready) -> Task<void> {
    co_await sim.yield();  // suspend first: the waiter below must block
    sim.rc_write(&loc, 0, "test.loc", "first");
    ready.set();
  }(sim, loc, ready));
  sim.spawn([](Simulator& sim, int& loc, Event& ready) -> Task<void> {
    co_await ready.wait();
    sim.rc_write(&loc, 0, "test.loc", "second");
  }(sim, loc, ready));
  sim.run();
  EXPECT_EQ(sim.racecheck().total(), 0u);
}

TEST(RaceCheckRace, RunBarrierOrdersMainAfterEverySegment) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kAbort);
  int loc = 0;
  sim.spawn([](Simulator& sim, int& loc) -> Task<void> {
    co_await sim.yield();
    sim.rc_write(&loc, 0, "test.loc", "in-task");
  }(sim, loc));
  sim.run();
  // Code after run() is ordered after every segment that ran.
  sim.rc_write(&loc, 0, "test.loc", "after-run");
  EXPECT_EQ(sim.racecheck().total(), 0u);
}

TEST(RaceCheckRace, RelaxedUpdatesNeverConflictWithEachOther) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kAbort);
  uint64_t gauge = 0;
  for (int t = 0; t < 3; ++t)
    sim.spawn([](Simulator& sim, uint64_t& gauge) -> Task<void> {
      co_await sim.yield();
      sim.rc_update(&gauge, 0, "test.gauge", RC_HERE);
    }(sim, gauge));
  sim.run();
  EXPECT_EQ(sim.racecheck().total(), 0u);

  // ...but a strict access against an unordered update DOES conflict.
  sim.racecheck().set_mode(Mode::kRecord);
  uint64_t gauge2 = 0;
  for (int t = 0; t < 2; ++t)
    sim.spawn([](Simulator& sim, uint64_t& gauge2, int t) -> Task<void> {
      co_await sim.yield();
      if (t == 0)
        sim.rc_update(&gauge2, 0, "test.gauge", "updater");
      else
        sim.rc_write(&gauge2, 0, "test.gauge", "strict-writer");
    }(sim, gauge2, t));
  sim.run();
  EXPECT_EQ(sim.racecheck().count(RaceKind::kRace), 1u);
}

// ---------------------------------------------------------------------------
// Lifetime detection: use-after-retire and release discipline.
// ---------------------------------------------------------------------------

TEST(RaceCheckLifetime, AccessAfterRetireCarriesTheRetireProvenance) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kRecord);
  int epoch = 0;
  sim.spawn([](Simulator& sim, int& epoch) -> Task<void> {
    sim.rc_read(&epoch, 0, "test.epoch", "legal-use");
    sim.rc_retire(&epoch, 0, "test.epoch", "reaper");
    sim.rc_read(&epoch, 0, "test.epoch", "use-after-reap");
    co_return;
  }(sim, epoch));
  sim.run();

  ASSERT_EQ(sim.racecheck().count(RaceKind::kLifetime), 1u);
  const RaceReport& r = sim.racecheck().reports()[0];
  EXPECT_STREQ(r.prev.site, "reaper");
  EXPECT_STREQ(r.cur.site, "use-after-reap");
}

TEST(RaceCheckLifetime, ReviveStartsACleanLifetime) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kAbort);
  int slot = 0;
  sim.spawn([](Simulator& sim, int& slot) -> Task<void> {
    sim.rc_write(&slot, 0, "test.slot", "first-lease");
    sim.rc_retire(&slot, 0, "test.slot", "release");
    sim.rc_revive(&slot, 0);  // re-leased: a new object
    sim.rc_write(&slot, 0, "test.slot", "second-lease");
    co_return;
  }(sim, slot));
  sim.run();
  EXPECT_EQ(sim.racecheck().total(), 0u);
}

TEST(RaceCheckLifetime, PoolLeaseHandoffAcrossTasksIsOrdered) {
  // Release in one task, re-acquire in another with no other sync: the
  // keyed release/acquire edge must order the handoff (no false race).
  Simulator sim;
  sim.racecheck().set_mode(Mode::kAbort);
  verbs::Fabric fabric(sim);
  verbs::Node* node = fabric.add_node();
  proto::BufferPool pool(*node, 256, 1);  // one block: forced reuse
  Event released(sim);
  sim.spawn([](Simulator& sim, proto::BufferPool& pool,
               Event& released) -> Task<void> {
    co_await sim.yield();  // suspend first: the second task must block
    proto::BufferPool::Lease l = pool.acquire();
    l.annotate_write("holder-a");
    l.release();
    released.set();
  }(sim, pool, released));
  sim.spawn([](proto::BufferPool& pool, Event& released) -> Task<void> {
    co_await released.wait();
    proto::BufferPool::Lease l = pool.acquire();
    l.annotate_write("holder-b");
  }(pool, released));
  sim.run();
  EXPECT_EQ(sim.racecheck().total(), 0u);
}

// ---------------------------------------------------------------------------
// Modes: abort throws at the violation; record counts and mirrors.
// ---------------------------------------------------------------------------

TEST(RaceCheckMode, AbortThrowsRaceViolationOutOfRun) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kAbort);
  int loc = 0;
  for (int t = 0; t < 2; ++t)
    sim.spawn([](Simulator& sim, int& loc, int t) -> Task<void> {
      co_await sim.yield();
      sim.rc_write(&loc, 0, "test.loc", t == 0 ? "a" : "b");
    }(sim, loc, t));
  EXPECT_THROW(sim.run(), RaceViolation);
  EXPECT_EQ(sim.racecheck().total(), 1u);
}

TEST(RaceCheckMode, TolerateScopeRecordsWithoutThrowing) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kAbort);
  int loc = 0;
  {
    RaceCheck::Tolerate scope(sim.racecheck());
    sim.rc_retire(&loc, 0, "test.loc", "retire");
    sim.rc_read(&loc, 0, "test.loc", "tolerated-use");
  }
  EXPECT_EQ(sim.racecheck().count(RaceKind::kLifetime), 1u);
}

TEST(RaceCheckMode, ReportsMirrorIntoTheRaceReportsCounter) {
  Simulator sim;
  sim.racecheck().set_mode(Mode::kRecord);
  verbs::Fabric fabric(sim);  // binds the mirror to node 0's counter slot
  fabric.add_node();
  int loc = 0;
  sim.rc_retire(&loc, 0, "test.loc", "retire");
  sim.rc_read(&loc, 0, "test.loc", "use");
  EXPECT_EQ(sim.racecheck().total(), 1u);
  EXPECT_EQ(fabric.obs().counters.node(0).get(obs::Ctr::kRaceReports), 1u);
}

TEST(RaceCheckMode, CleanChannelWorkloadProducesNoReports) {
  // End-to-end sanity: a real windowed RPC workload (the code the checker
  // instruments for production use) runs report-free under abort.
  EXPECT_NO_THROW({
    const std::vector<Time> t = trace_workload(Mode::kAbort, 0);
    EXPECT_FALSE(t.empty());
  });
}

TEST(RaceCheckMode, CleanWorkloadStaysReportFreeUnderPerturbation) {
  for (uint64_t seed : {1ull, 2ull, 3ull})
    EXPECT_NO_THROW(trace_workload(Mode::kAbort, seed))
        << "seed " << seed;
}

}  // namespace
}  // namespace hatrpc::sim
