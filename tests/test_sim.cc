// Unit tests for the discrete-event simulation core: clock advance,
// task composition, synchronization primitives, CPU contention model,
// determinism, and RNG statistical sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace hatrpc::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0ns);
  EXPECT_EQ(sim.run(), 0ns);
}

TEST(Simulator, SleepAdvancesClock) {
  Simulator sim;
  Time seen{-1};
  sim.spawn([](Simulator& s, Time& seen) -> Task<void> {
    co_await s.sleep(5us);
    seen = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, 5us);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(Simulator, SleepsAccumulate) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.sleep(1us);
    co_await s.sleep(2us);
    co_await s.sleep(3us);
    EXPECT_EQ(s.now(), 6us);
  }(sim));
  EXPECT_EQ(sim.run(), 6us);
}

TEST(Simulator, ConcurrentTasksInterleaveByTime) {
  Simulator sim;
  std::vector<int> order;
  auto worker = [](Simulator& s, std::vector<int>& order, int id,
                   Duration d) -> Task<void> {
    co_await s.sleep(d);
    order.push_back(id);
  };
  sim.spawn(worker(sim, order, 3, 30us));
  sim.spawn(worker(sim, order, 1, 10us));
  sim.spawn(worker(sim, order, 2, 20us));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  auto worker = [](Simulator& s, std::vector<int>& order,
                   int id) -> Task<void> {
    co_await s.sleep(1us);
    order.push_back(id);
  };
  for (int i = 0; i < 8; ++i) sim.spawn(worker(sim, order, i));
  sim.run();
  std::vector<int> want(8);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(Simulator, NestedTaskAwait) {
  Simulator sim;
  auto inner = [](Simulator& s) -> Task<int> {
    co_await s.sleep(2us);
    co_return 42;
  };
  int got = 0;
  sim.spawn([](Simulator& s, auto inner, int& got) -> Task<void> {
    got = co_await inner(s);
    EXPECT_EQ(s.now(), 2us);
  }(sim, inner, got));
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(Simulator, AwaitingAnEmptyVoidTaskIsANoOp) {
  Simulator sim;
  bool resumed = false;
  sim.spawn([](bool& resumed) -> Task<void> {
    co_await Task<void>{};
    resumed = true;
  }(resumed));
  sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(sim.now(), 0ns);
}

TEST(Simulator, ExceptionPropagatesThroughAwait) {
  Simulator sim;
  auto thrower = [](Simulator& s) -> Task<void> {
    co_await s.sleep(1us);
    throw std::runtime_error("boom");
  };
  bool caught = false;
  sim.spawn([](Simulator& s, auto thrower, bool& caught) -> Task<void> {
    try {
      co_await thrower(s);
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(sim, thrower, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, ExceptionFromRootTaskRethrownByRun) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.sleep(1us);
    throw std::runtime_error("root boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int steps = 0;
  sim.spawn([](Simulator& s, int& steps) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await s.sleep(1ms);
      ++steps;
    }
  }(sim, steps));
  sim.run_until(Time(10ms));
  EXPECT_EQ(steps, 10);
  EXPECT_EQ(sim.now(), 10ms);
  sim.run();
  EXPECT_EQ(steps, 100);
}

TEST(Simulator, DeadlockedTaskReportedAsLive) {
  Simulator sim;
  Event never(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(never));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 1u);
}

TEST(Sync, EventWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  int woke = 0;
  auto waiter = [](Simulator& s, Event& e, int& woke) -> Task<void> {
    co_await e.wait();
    ++woke;
    EXPECT_EQ(s.now(), 7us);
  };
  for (int i = 0; i < 3; ++i) sim.spawn(waiter(sim, ev, woke));
  sim.spawn([](Simulator& s, Event& e) -> Task<void> {
    co_await s.sleep(7us);
    e.set();
  }(sim, ev));
  sim.run();
  EXPECT_EQ(woke, 3);
}

TEST(Sync, EventWaitAfterSetCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  bool done = false;
  sim.spawn([](Event& e, bool& done) -> Task<void> {
    co_await e.wait();
    done = true;
  }(ev, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int in_flight = 0, max_in_flight = 0;
  auto worker = [](Simulator& s, Semaphore& sem, int& in_flight,
                   int& max_in) -> Task<void> {
    co_await sem.acquire();
    ++in_flight;
    max_in = std::max(max_in, in_flight);
    co_await s.sleep(10us);
    --in_flight;
    sem.release();
  };
  for (int i = 0; i < 6; ++i)
    sim.spawn(worker(sim, sem, in_flight, max_in_flight));
  sim.run();
  EXPECT_EQ(max_in_flight, 2);
  EXPECT_EQ(sim.now(), 30us);  // 6 workers, 2 at a time, 10us each
}

TEST(Sync, ChannelDeliversInOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<void> {
    while (auto v = co_await ch.pop()) got.push_back(*v);
  }(ch, got));
  sim.spawn([](Simulator& s, Channel<int>& ch) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await s.sleep(1us);
      ch.push(i);
    }
    ch.close();
  }(sim, ch));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sync, ChannelPopOnClosedEmptyReturnsNullopt) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.push(9);
  ch.close();
  std::vector<int> got;
  bool saw_end = false;
  sim.spawn([](Channel<int>& ch, std::vector<int>& got,
               bool& saw_end) -> Task<void> {
    while (true) {
      auto v = co_await ch.pop();
      if (!v) {
        saw_end = true;
        break;
      }
      got.push_back(*v);
    }
  }(ch, got, saw_end));
  sim.run();
  EXPECT_EQ(got, std::vector<int>{9});
  EXPECT_TRUE(saw_end);
}

TEST(Sync, WaitGroupJoins) {
  Simulator sim;
  WaitGroup wg(sim);
  Time joined{};
  auto worker = [](Simulator& s, WaitGroup& wg, Duration d) -> Task<void> {
    co_await s.sleep(d);
    wg.done();
  };
  wg.add(3);
  sim.spawn(worker(sim, wg, 5us));
  sim.spawn(worker(sim, wg, 9us));
  sim.spawn(worker(sim, wg, 2us));
  sim.spawn([](Simulator& s, WaitGroup& wg, Time& joined) -> Task<void> {
    co_await wg.wait();
    joined = s.now();
  }(sim, wg, joined));
  sim.run();
  EXPECT_EQ(joined, 9us);
}

TEST(Sync, MutexSerializesCriticalSections) {
  Simulator sim;
  Mutex mu(sim);
  int inside = 0;
  bool overlap = false;
  auto worker = [](Simulator& s, Mutex& mu, int& inside,
                   bool& overlap) -> Task<void> {
    auto g = co_await mu.scoped();
    if (inside != 0) overlap = true;
    ++inside;
    co_await s.sleep(3us);
    --inside;
  };
  for (int i = 0; i < 4; ++i) sim.spawn(worker(sim, mu, inside, overlap));
  sim.run();
  EXPECT_FALSE(overlap);
  EXPECT_EQ(sim.now(), 12us);
}

// FIFO handoff: H holds the lock until t=10. W asks at t=1 and parks. N
// schedules its wake for t=10 at t=2, after H's, and asks for the lock then.
// H's unlock and N's lock() run at the same instant, before the woken W
// resumes; the lock must still go to W, who asked first.
TEST(Sync, MutexHandsOffToOldestWaiter) {
  Simulator sim;
  Mutex mu(sim);
  std::vector<char> order;
  auto task = [](Simulator& s, Mutex& mu, std::vector<char>& order, char id,
                 Duration start, Duration hold) -> Task<void> {
    co_await s.sleep_until(Time(start));
    if (id == 'N') co_await s.sleep_until(Time(10us));
    auto g = co_await mu.scoped();
    order.push_back(id);
    co_await s.sleep(hold);
  };
  sim.spawn(task(sim, mu, order, 'H', 0us, 10us));
  sim.spawn(task(sim, mu, order, 'W', 1us, 1us));
  sim.spawn(task(sim, mu, order, 'N', 2us, 1us));
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'H', 'W', 'N'}));
  EXPECT_FALSE(mu.locked());
}

// The same shape for a channel: W parks in pop() at t=1; at t=10 the
// producer pushes and N, whose wake was scheduled at t=2, pops before W
// resumes. The first item must go to W.
TEST(Sync, ChannelHandsItemsToOldestPopper) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<std::pair<char, int>> got;
  auto popper = [](Simulator& s, Channel<int>& ch,
                   std::vector<std::pair<char, int>>& got, char id,
                   Duration start) -> Task<void> {
    co_await s.sleep_until(Time(start));
    if (id == 'N') co_await s.sleep_until(Time(10us));
    auto v = co_await ch.pop();
    got.emplace_back(id, v.value_or(-1));
  };
  sim.spawn([](Simulator& s, Channel<int>& ch) -> Task<void> {
    co_await s.sleep_until(Time(10us));
    ch.push(1);
    co_await s.sleep(10us);
    ch.push(2);
  }(sim, ch));
  sim.spawn(popper(sim, ch, got, 'W', 1us));
  sim.spawn(popper(sim, ch, got, 'N', 2us));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::pair<char, int>>{{'W', 1}, {'N', 2}}));
  EXPECT_EQ(ch.size(), 0u);
}

// Each handed item is bound to its popper, not to the queue's front: two
// poppers parked at t=1 and t=2 get the two items pushed at t=10 in the
// order they parked, even when the seeded tiebreak shuffle resumes the
// second before the first.
TEST(Sync, ChannelHandsEachParkedPopperItsOwnItem) {
  for (uint64_t seed : {0, 1, 2, 3}) {
    SCOPED_TRACE("tiebreak seed " + std::to_string(seed));
    Simulator sim;
    sim.set_tiebreak_seed(seed);
    Channel<int> ch(sim);
    std::vector<std::pair<char, int>> got;
    auto popper = [](Simulator& s, Channel<int>& ch,
                     std::vector<std::pair<char, int>>& got, char id,
                     Duration start) -> Task<void> {
      co_await s.sleep_until(Time(start));
      auto v = co_await ch.pop();
      got.emplace_back(id, v.value_or(-1));
    };
    sim.spawn([](Simulator& s, Channel<int>& ch) -> Task<void> {
      co_await s.sleep_until(Time(10us));
      ch.push(1);
      ch.push(2);
    }(sim, ch));
    sim.spawn(popper(sim, ch, got, 'A', 1us));
    sim.spawn(popper(sim, ch, got, 'B', 2us));
    sim.run();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::pair<char, int>>{{'A', 1}, {'B', 2}}));
    EXPECT_EQ(ch.size(), 0u);
  }
}

// An item handed to a popper that has not resumed yet is still queued: a
// flush() takes it back, and the popper then sees the closed channel.
TEST(Sync, ChannelFlushReclaimsItemHandedToUnresumedPopper) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> popped = 0;
  std::vector<int> flushed;
  sim.spawn([](Channel<int>& ch, std::optional<int>& popped) -> Task<void> {
    popped = co_await ch.pop();
  }(ch, popped));
  sim.spawn([](Simulator& s, Channel<int>& ch,
               std::vector<int>& flushed) -> Task<void> {
    co_await s.sleep(1us);
    ch.push(7);
    EXPECT_EQ(ch.size(), 1u);
    EXPECT_EQ(ch.free_count(), 0u);
    EXPECT_FALSE(ch.try_pop().has_value());  // reserved for the popper
    for (int v : ch.flush()) flushed.push_back(v);
    ch.close();
  }(sim, ch, flushed));
  sim.run();
  EXPECT_EQ(flushed, std::vector<int>{7});
  EXPECT_FALSE(popped.has_value());
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(Cpu, UncontendedComputeTakesNominalTime) {
  Simulator sim;
  Cpu cpu(sim, {.cores = 4});
  sim.spawn([](Simulator& s, Cpu& cpu) -> Task<void> {
    co_await cpu.compute(10us);
    EXPECT_EQ(s.now(), 10us);
  }(sim, cpu));
  sim.run();
}

TEST(Cpu, OversubscriptionStretchesCompute) {
  Simulator sim;
  Cpu::Params p{.cores = 2, .ctx_switch = 1us};
  Cpu cpu(sim, p);
  // 8 simultaneous computations on 2 cores: each sees factor ~4.
  auto worker = [](Cpu& cpu) -> Task<void> { co_await cpu.compute(10us); };
  for (int i = 0; i < 8; ++i) sim.spawn(worker(cpu));
  Time end = sim.run();
  EXPECT_GT(end, 30us);  // well above the uncontended 10us
  EXPECT_LE(end, 60us);
}

TEST(Cpu, BusyPollersRaiseLoad) {
  Simulator sim;
  Cpu cpu(sim, {.cores = 2});
  EXPECT_DOUBLE_EQ(cpu.oversubscription(), 1.0);
  {
    auto g1 = cpu.busy_guard();
    auto g2 = cpu.busy_guard();
    auto g3 = cpu.busy_guard();
    auto g4 = cpu.busy_guard();
    EXPECT_DOUBLE_EQ(cpu.oversubscription(), 2.0);
    EXPECT_TRUE(cpu.oversubscribed());
  }
  EXPECT_DOUBLE_EQ(cpu.oversubscription(), 1.0);
}

TEST(Cpu, BusyPickupFastWhenUndersubscribed) {
  Simulator sim;
  Cpu cpu(sim, {.cores = 28});
  auto g = cpu.busy_guard();
  EXPECT_LT(cpu.pickup_delay(PollMode::kBusy), 1us);
}

TEST(Cpu, BusyPickupCollapsesWhenOversubscribed) {
  Simulator sim;
  Cpu cpu(sim, {.cores = 28});
  std::vector<Cpu::BusyGuard> guards;
  for (int i = 0; i < 512; ++i) guards.push_back(cpu.busy_guard());
  Duration busy = cpu.pickup_delay(PollMode::kBusy);
  Duration event = cpu.pickup_delay(PollMode::kEvent);
  EXPECT_GT(busy, 10 * event);  // the Fig.5 over-subscription collapse
}

TEST(Cpu, EventPickupPaysInterruptWhenIdle) {
  Simulator sim;
  Cpu cpu(sim, {.cores = 28, .interrupt_wakeup = 3us});
  EXPECT_EQ(cpu.pickup_delay(PollMode::kEvent), 3us);
  EXPECT_LT(cpu.pickup_delay(PollMode::kBusy),
            cpu.pickup_delay(PollMode::kEvent));
}

TEST(CpuCoreBinding, PinnedComputeContendsOnlyOnItsCore) {
  auto pinned = [](Simulator& s, Cpu& cpu, int core, Time& end) -> Task<void> {
    co_await cpu.compute(10us, core);
    end = s.now();
  };
  {
    // Different cores: both run at full speed.
    Simulator sim;
    Cpu cpu(sim, {.cores = 4, .ctx_switch = 1us});
    Time a{}, b{};
    sim.spawn(pinned(sim, cpu, 0, a));
    sim.spawn(pinned(sim, cpu, 1, b));
    sim.run();
    EXPECT_EQ(a, 10us);
    EXPECT_EQ(b, 10us);
  }
  {
    // Same core: the second arrival sees the first resident and
    // time-slices (2x stretch + context switch).
    Simulator sim;
    Cpu cpu(sim, {.cores = 4, .ctx_switch = 1us});
    Time a{}, b{};
    sim.spawn(pinned(sim, cpu, 2, a));
    sim.spawn(pinned(sim, cpu, 2, b));
    sim.run();
    EXPECT_EQ(std::min(a, b), 10us);
    EXPECT_EQ(std::max(a, b), 21us);
  }
  {
    // Core ids wrap modulo the core count: core 6 of 4 IS core 2 — that
    // wrap is how a shard sweep drives over-subscription.
    Simulator sim;
    Cpu cpu(sim, {.cores = 4, .ctx_switch = 1us});
    Time a{}, b{};
    sim.spawn(pinned(sim, cpu, 2, a));
    sim.spawn(pinned(sim, cpu, 6, b));
    sim.run();
    EXPECT_EQ(std::max(a, b), 21us);
  }
}

TEST(CpuCoreBinding, ShardSpinnerSelfCreditsItsCore) {
  // The shard's polling thread IS its compute thread (run-to-completion):
  // with one spinner pinned, pinned compute on that core is uncontended.
  Simulator sim;
  Cpu cpu(sim, {.cores = 2, .ctx_switch = 1us});
  auto spin = cpu.pin_spinner(0);
  Time end{};
  sim.spawn([](Simulator& s, Cpu& cpu, Time& end) -> Task<void> {
    co_await cpu.compute(10us, 0);
    end = s.now();
  }(sim, cpu, end));
  sim.run();
  EXPECT_EQ(end, 10us);
}

TEST(CpuCoreBinding, TwoSpinnersOnOneCoreCollapsePickup) {
  Simulator sim;
  Cpu cpu(sim, {.cores = 2});
  auto s0 = cpu.pin_spinner(0);
  const Duration alone = cpu.pickup_delay(PollMode::kBusy, 0);
  EXPECT_LT(alone, 1us);  // a lone spinner reacts within its check interval
  auto s1 = cpu.pin_spinner(0);  // a second shard lands on the same core
  const Duration shared = cpu.pickup_delay(PollMode::kBusy, 0);
  EXPECT_GT(shared, 10 * alone);  // reschedule quantum + context switch
  // A shard alone on the other core is unaffected.
  auto s2 = cpu.pin_spinner(1);
  EXPECT_EQ(cpu.pickup_delay(PollMode::kBusy, 1), alone);
}

TEST(CpuCoreBinding, UnboundModelUnchangedWhileNothingIsPinned) {
  // Guard for the bit-identity requirement: with zero pinned spinners or
  // pinned work, the floating formulas see exactly the legacy inputs.
  Simulator sim;
  Cpu cpu(sim, {.cores = 2});
  EXPECT_DOUBLE_EQ(cpu.oversubscription(), 1.0);
  {
    auto g1 = cpu.busy_guard();
    auto g2 = cpu.busy_guard();
    auto g3 = cpu.busy_guard();
    auto g4 = cpu.busy_guard();
    EXPECT_DOUBLE_EQ(cpu.oversubscription(), 2.0);
  }
  // Pinned spinners DO count toward whole-node demand.
  auto s0 = cpu.pin_spinner(0);
  auto s1 = cpu.pin_spinner(1);
  auto s2 = cpu.pin_spinner(0);
  EXPECT_DOUBLE_EQ(cpu.oversubscription(), 1.5);
  EXPECT_EQ(cpu.busy_pollers(), 3);
  EXPECT_EQ(cpu.spinners(0), 2);
  EXPECT_EQ(cpu.spinners(1), 1);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  bool all_equal = true, any_diff_seed = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.next(), y = b.next(), z = c.next();
    all_equal &= (x == y);
    any_diff_seed |= (x != z);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BoundedStaysInRange) {
  Rng r(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.bounded(17), 17u);
    int64_t u = r.uniform(-5, 5);
    EXPECT_GE(u, -5);
    EXPECT_LE(u, 5);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(99);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Simulator, DeterministicEventCount) {
  auto run_once = []() {
    Simulator sim;
    Channel<int> ch(sim);
    sim.spawn([](Simulator& s, Channel<int>& ch) -> Task<void> {
      for (int i = 0; i < 100; ++i) {
        co_await s.sleep(Duration(i * 10));
        ch.push(i);
      }
      ch.close();
    }(sim, ch));
    sim.spawn([](Channel<int>& ch) -> Task<void> {
      while (co_await ch.pop()) {
      }
    }(ch));
    sim.run();
    return sim.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Timing-wheel scheduler and TimerHandle API (DESIGN.md §12).

// Awaiter exposing the raw schedule_at() handle so tests can cancel and
// reschedule a suspended coroutine's wakeup from the outside.
struct ScheduleAt {
  Simulator& sim;
  Time t;
  TimerHandle* out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { *out = sim.schedule_at(t, h); }
  void await_resume() const noexcept {}
};

TEST(TimingWheel, SameTimestampFifoAcrossWheelAndHeap) {
  // Events at one timestamp must dispatch in schedule order even when some
  // were parked in the overflow heap (scheduled while T was beyond the wheel
  // span) and others were inserted into the wheel (scheduled once the cursor
  // had advanced near T).
  Simulator sim;
  constexpr Time kT{uint64_t(1) << 49};  // beyond the 2^48 ns span from t=0
  std::vector<int> order;
  auto at_t = [](Simulator& s, std::vector<int>& order, int id,
                 Time wake) -> Task<void> {
    co_await s.sleep_until(wake);
    order.push_back(id);
  };
  // ids 0,1 scheduled at t=0 for kT: overflow heap.
  sim.spawn(at_t(sim, order, 0, kT));
  sim.spawn(at_t(sim, order, 1, kT));
  // id 2 first sleeps to kT-100ns, then schedules for kT: lands in the wheel.
  sim.spawn([](Simulator& s, std::vector<int>& order, auto at_t,
               Time wake) -> Task<void> {
    co_await s.sleep_until(wake - Duration(100));
    co_await at_t(s, order, 2, wake);
  }(sim, order, at_t, kT));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), kT);
}

TEST(TimingWheel, RolloverAtFarFutureTimestamps) {
  // Sleeps far beyond the wheel span (64^8 ns ~ 3.2 days) re-window the
  // wheel around the overflow heap's front without losing ordering.
  Simulator sim;
  std::vector<int> order;
  auto worker = [](Simulator& s, std::vector<int>& order, int id,
                   Duration d) -> Task<void> {
    co_await s.sleep(d);
    order.push_back(id);
    co_await s.sleep(d);
    order.push_back(id + 10);
  };
  constexpr Duration kDay{86'400'000'000'000};
  sim.spawn(worker(sim, order, 1, 4 * kDay));
  sim.spawn(worker(sim, order, 2, 7 * kDay));
  sim.spawn(worker(sim, order, 3, Duration(500)));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{3, 13, 1, 2, 11, 12}));
  EXPECT_EQ(sim.now(), Time(14 * kDay));
}

TEST(TimingWheel, SpanBoundaryCrossingGoesThroughOverflow) {
  // Regression: a timer a short *distance* ahead of the cursor can still sit
  // in the next 64^8-aligned block (tt ^ cursor >= 2^48). The wheel-fit test
  // must use the XOR, not the distance — the old distance check linked such
  // nodes at level 8, out of bounds, where no scan could ever find them.
  Simulator sim;
  constexpr uint64_t kSpan = uint64_t(1) << 48;
  std::vector<int> order;
  auto at_t = [](Simulator& s, std::vector<int>& order, int id,
                 Time wake) -> Task<void> {
    co_await s.sleep_until(wake);
    order.push_back(id);
  };
  sim.spawn([](Simulator& s, std::vector<int>& order,
               auto at_t) -> Task<void> {
    // Park the cursor just below the 2^48 boundary...
    co_await s.sleep_until(Time(kSpan - 1000));
    // ...then schedule wakeups 500 ns apart straddling it. Both are within
    // distance-kSpan of the cursor; the second crosses the aligned boundary.
    co_await at_t(s, order, 1, Time(kSpan - 500));
    co_await at_t(s, order, 2, Time(kSpan + 500));
  }(sim, order, at_t));
  sim.spawn(at_t(sim, order, 3, Time(kSpan + 500)));  // heap from t=0, same T
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), Time(kSpan + 500));
  EXPECT_EQ(sim.pending_timers(), 0u);
}

TEST(ShallowQueue, MigrationPastCapacityPreservesOrder) {
  // The scheduler starts in a sorted-vector fast path and migrates to the
  // timing wheel when pending depth crosses the small-queue capacity (64).
  // Spawning ~3x that many sleepers forces the migration mid-insert; the
  // dispatch order must still be (timestamp, then schedule order).
  Simulator sim;
  constexpr int kN = 200;
  std::vector<int> order;
  auto sleeper = [](Simulator& s, std::vector<int>& order, int id,
                    Duration d) -> Task<void> {
    co_await s.sleep(d);
    order.push_back(id);
  };
  std::vector<std::pair<uint64_t, int>> expect;
  for (int i = 0; i < kN; ++i) {
    // Scrambled wakeups with deliberate collisions (the % 59 folds many ids
    // onto the same timestamp, exercising the equal-time FIFO rule).
    const uint64_t t_us = 1 + (uint64_t(i) * 37) % 59;
    sim.spawn(sleeper(sim, order, i, Duration(t_us * 1000)));
    expect.emplace_back(t_us, i);
  }
  sim.run();
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(order.size(), size_t(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], expect[i].second) << "at " << i;
  EXPECT_EQ(sim.pending_timers(), 0u);
}

TEST(ShallowQueue, ReArmsAfterWheelDrainsAndStaysCancellable) {
  // Push past the small-queue capacity so the run starts on the wheel, let
  // everything drain, then schedule (and cancel) in the re-armed fast path.
  Simulator sim;
  std::vector<int> order;
  auto sleeper = [](Simulator& s, std::vector<int>& order, int id,
                    Duration d) -> Task<void> {
    co_await s.sleep(d);
    order.push_back(id);
  };
  sim.spawn([](Simulator& s, std::vector<int>& order,
               auto sleeper) -> Task<void> {
    for (int i = 0; i < 100; ++i) s.spawn(sleeper(s, order, i, Duration(1000 + i)));
    co_await s.sleep(10us);  // everything above has drained by now
    TimerHandle th;
    bool fired = false;
    s.spawn([](Simulator& s2, TimerHandle& th2, bool& f) -> Task<void> {
      co_await ScheduleAt{s2, s2.now() + Duration(5000), &th2};
      f = true;
    }(s, th, fired));
    s.spawn(sleeper(s, order, 1000, 2us));
    s.spawn(sleeper(s, order, 1001, 1us));
    co_await s.sleep(500ns);
    EXPECT_TRUE(th.cancel());  // cancel while resident in the shallow queue
    co_await s.sleep(10us);
    EXPECT_FALSE(fired);
  }(sim, order, sleeper));
  Simulator::RunResult r = sim.run();
  ASSERT_EQ(order.size(), 102u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(order[100], 1001);  // 1us before 2us in the re-armed queue
  EXPECT_EQ(order[101], 1000);
  EXPECT_EQ(r.timers_cancelled, 1u);
  EXPECT_EQ(sim.pending_timers(), 0u);
}

TEST(TimerHandle, CancelledTimerDoesNotFire) {
  Simulator sim;
  TimerHandle th;
  bool fired = false;
  sim.spawn([](Simulator& s, TimerHandle& th, bool& fired) -> Task<void> {
    co_await ScheduleAt{s, Time(10us), &th};
    fired = true;
  }(sim, th, fired));
  sim.spawn([](Simulator& s, TimerHandle& th) -> Task<void> {
    co_await s.sleep(1us);
    EXPECT_TRUE(th.active());
    EXPECT_TRUE(th.cancel());
    EXPECT_FALSE(th.active());
    EXPECT_FALSE(th.cancel());  // second cancel is a no-op
  }(sim, th));
  Simulator::RunResult r = sim.run();
  EXPECT_FALSE(fired);
  // The cancelled wakeup never dispatched: virtual time stops at the
  // canceller's 1us, not the victim's 10us.
  EXPECT_EQ(r.end_time, Time(1us));
  EXPECT_EQ(r.timers_cancelled, 1u);
  EXPECT_EQ(sim.live_tasks(), 1u);  // the victim never resumed
}

TEST(TimerHandle, RescheduleMovesTimerToBackOfNewTimestamp) {
  Simulator sim;
  TimerHandle th;
  std::vector<int> order;
  sim.spawn([](Simulator& s, TimerHandle& th,
               std::vector<int>& order) -> Task<void> {
    co_await ScheduleAt{s, Time(10us), &th};
    order.push_back(1);
  }(sim, th, order));
  sim.spawn([](Simulator& s, std::vector<int>& order) -> Task<void> {
    co_await s.sleep(30us);
    order.push_back(2);
  }(sim, order));
  sim.spawn([](Simulator& s, TimerHandle& th) -> Task<void> {
    co_await s.sleep(1us);
    EXPECT_TRUE(th.reschedule(Time(30us)));  // deferred past the 30us sleeper
    EXPECT_TRUE(th.active());                // still pending after the move
  }(sim, th));
  Simulator::RunResult r = sim.run();
  // The rescheduled timer dispatches after the pre-existing 30us event
  // (newest at its timestamp), and a reschedule is not a cancellation.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(r.end_time, Time(30us));
  EXPECT_EQ(r.timers_cancelled, 0u);
  EXPECT_FALSE(th.reschedule(Time(50us)));  // already fired: stale handle
}

TEST(TimerHandle, WaitUntilCancelsDeadlineTimerOnNotify) {
  // Event::wait_until used to leave an uncancellable wakeup in the queue
  // until the deadline; now the losing timer is removed on notify, so the
  // run ends at the set() time and the cancellation shows up in RunResult.
  Simulator sim;
  Event ev(sim);
  bool got = false;
  sim.spawn([](Event& ev, bool& got) -> Task<void> {
    got = co_await ev.wait_until(Time(1ms));
  }(ev, got));
  sim.spawn([](Simulator& s, Event& ev) -> Task<void> {
    co_await s.sleep(3us);
    ev.set();
  }(sim, ev));
  Simulator::RunResult r = sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(r.end_time, Time(3us));  // nothing lingered until the 1ms deadline
  EXPECT_EQ(r.timers_cancelled, 1u);
  EXPECT_EQ(r.live_tasks, 0u);
}

TEST(Sync, SemaphoreReleaseManyStopsAtWaiterCount) {
  Simulator sim;
  Semaphore sem(sim, 0);
  int resumed = 0;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Semaphore& sem, int& resumed) -> Task<void> {
      co_await sem.acquire();
      ++resumed;
    }(sem, resumed));
  }
  sim.spawn([](Simulator& s, Semaphore& sem) -> Task<void> {
    co_await s.sleep(1us);
    sem.release(5);  // 2 waiters: wake both, bank the other 3 permits
  }(sim, sem));
  sim.run();
  EXPECT_EQ(resumed, 2);
  EXPECT_EQ(sem.available(), 3u);
}

TEST(Arena, FrameArenaReusesSteadyStateAllocations) {
  if (!FrameArena::pooling_enabled()) {
    GTEST_SKIP() << "arena passes through under sanitizers";
  }
  auto round = []() {
    Simulator sim;
    Event ev(sim);
    for (int i = 0; i < 64; ++i) {
      sim.spawn([](Simulator& s, Event& ev) -> Task<void> {
        co_await s.sleep(Duration(100));
        (void)co_await ev.wait_until(s.now() + Duration(50));
      }(sim, ev));
    }
    sim.run();
  };
  round();  // warm the freelists for every size class this workload touches
  const FrameArena::Stats before = FrameArena::instance().stats();
  round();
  const FrameArena::Stats after = FrameArena::instance().stats();
  // Steady state: the second identical round is served entirely from
  // recycled blocks — zero new blocks from ::operator new.
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks);
  EXPECT_GT(after.reuses, before.reuses);
}

TEST(Determinism, SameSeedProducesByteIdenticalTrace) {
  // Pin the dispatch schedule itself, not just aggregate counts: two runs
  // with one seed must produce byte-identical (time, task, step) traces
  // through wheel, cascade, overflow, and cancellation paths alike.
  auto trace_once = [](uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    std::string trace;
    Event ev(sim);
    for (int id = 0; id < 8; ++id) {
      sim.spawn([](Simulator& s, Rng& rng, std::string& trace, Event& ev,
                   int id) -> Task<void> {
        for (int step = 0; step < 50; ++step) {
          uint64_t r = rng.next() % 100;
          if (r < 2) {
            // Far-future hop: exercises the overflow heap and re-windowing.
            co_await s.sleep(Duration(86'400'000'000'000 + (rng.next() & 0xffff)));
          } else if (r < 30) {
            // Timed wait that always times out: cancel-path traffic.
            (void)co_await ev.wait_until(s.now() + Duration(1 + (rng.next() & 0xff)));
          } else {
            co_await s.sleep(Duration(rng.next() & 0xfff));
          }
          trace += std::to_string(s.now().count());
          trace += ':';
          trace += std::to_string(id);
          trace += ':';
          trace += std::to_string(step);
          trace += '\n';
        }
      }(sim, rng, trace, ev, id));
    }
    Simulator::RunResult r = sim.run();
    trace += "processed=" + std::to_string(r.events_processed);
    trace += " cancelled=" + std::to_string(r.timers_cancelled);
    trace += " end=" + std::to_string(r.end_time.count());
    return trace;
  };
  std::string a = trace_once(42);
  EXPECT_EQ(a, trace_once(42));
  EXPECT_NE(a, trace_once(43));  // the trace actually depends on the seed
}

TEST(Simulator, RunResultReportsCounters) {
  Simulator sim;
  Event ev(sim);
  sim.spawn([](Simulator& s, Event& ev) -> Task<void> {
    co_await s.sleep(1us);
    (void)co_await ev.wait_until(s.now() + 1us);  // times out at 2us
    co_await s.sleep(1us);
  }(sim, ev));
  Simulator::RunResult r = sim.run();
  EXPECT_EQ(r.end_time, Time(3us));
  EXPECT_EQ(r, Time(3us));  // legacy `sim.run() == Time` comparisons compile
  Time legacy = sim.run();  // and legacy `Time end = sim.run();` assignment
  EXPECT_EQ(legacy, Time(3us));
  EXPECT_EQ(r.events_processed, 3u);
  EXPECT_EQ(r.timers_cancelled, 0u);  // the timeout fired; nothing cancelled
  EXPECT_EQ(r.live_tasks, 0u);
  EXPECT_GE(r.peak_queue_depth, 1u);
  EXPECT_EQ(r.events_processed, sim.events_processed());
}

}  // namespace
}  // namespace hatrpc::sim
