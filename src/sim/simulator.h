// Discrete-event simulator: a virtual clock plus a hierarchical timing
// wheel of coroutine resumptions. Single-threaded and fully deterministic —
// events at equal times run in FIFO schedule order, exactly as the old
// priority-queue scheduler ordered them by (time, sequence).
//
// Scheduler layout (see DESIGN.md §12):
//   * 8 wheel levels x 64 slots; a level-L slot is 64^L ns wide, so the
//     wheel spans 64^8 ns (~3.2 simulated days) ahead of its cursor.
//     Insert/cancel are O(1); finding the next occupied slot is a handful
//     of bitmap scans (one uint64_t occupancy word per level).
//   * Timers beyond the wheel span — and timers landing behind the wheel
//     cursor after a run_until() stopped mid-window — go to one overflow
//     binary heap that competes with the wheel for the next dispatch batch.
//   * All timers sharing a timestamp dispatch as one batch, sorted by
//     sequence number. Level-0 slots are one nanosecond wide, so a slot
//     holds exactly one timestamp and the sort restores FIFO order even
//     when a cascade from a higher level appended nodes out of order.
//   * TimerNodes live in one never-shrinking vector with an index freelist;
//     a generation counter per node lets a stale TimerHandle fail safely.
//   * Shallow schedules (<= kSmallCap pending timers) bypass the wheel
//     entirely: a plain vector kept sorted by (time, seq) serves insert,
//     cancel and batch collection. Sparse timer storms used to pay wheel
//     cascades and bitmap scans per event; binary-search insert into a
//     <= 64-entry vector is cheaper until the depth crosses the threshold,
//     at which point everything migrates into the wheel/heap in one sweep.
//     The wheel mode hands back to the small queue only when it fully
//     drains, so deep workloads never flap between modes.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <ostream>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/arena.h"
#include "sim/racecheck.h"
#include "sim/task.h"
#include "sim/time.h"

namespace hatrpc::sim {

class Simulator;

/// Cancellable reference to a pending timer. Default-constructed or spent
/// handles are inert: cancel()/reschedule() on them are safe no-ops. A
/// handle is invalidated when its timer fires, is cancelled, or is
/// rescheduled — a stale handle can never touch another timer because the
/// node's generation counter no longer matches.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Removes the timer from the schedule if it has not fired yet.
  /// Returns true if this call actually cancelled a pending timer.
  bool cancel();

  /// Moves a still-pending timer to absolute time `t` (>= now). The timer
  /// re-enters the schedule as the newest event at `t` (it goes to the back
  /// of the FIFO among equal timestamps). Returns false, scheduling
  /// nothing, if the timer already fired or was cancelled.
  bool reschedule(Time t);

  /// True while the timer is still pending (not fired, not cancelled).
  bool active() const;

 private:
  friend class Simulator;
  TimerHandle(Simulator* sim, uint32_t node, uint64_t gen)
      : sim_(sim), node_(node), gen_(gen) {}

  Simulator* sim_ = nullptr;
  uint32_t node_ = 0;
  uint64_t gen_ = 0;
};

class Simulator {
 public:
  /// Snapshot returned by run()/run_until(). Converts to Time so existing
  /// `Time end = sim.run();` call sites keep compiling, and compares
  /// against Time for the same reason.
  struct RunResult {
    Time end_time{0};
    uint64_t events_processed = 0;
    uint64_t timers_cancelled = 0;
    size_t live_tasks = 0;
    size_t peak_queue_depth = 0;

    operator Time() const { return end_time; }  // NOLINT(google-explicit-*)
    friend bool operator==(const RunResult& r, Time t) {
      return r.end_time == t;
    }
    friend std::ostream& operator<<(std::ostream& os, const RunResult& r) {
      return os << "RunResult{end=" << r.end_time.count()
                << "ns processed=" << r.events_processed
                << " cancelled=" << r.timers_cancelled
                << " live=" << r.live_tasks << " peak=" << r.peak_queue_depth
                << "}";
    }
  };

  Simulator() {
    std::fill_n(slot_head_, kLevels * kSlots, kNil);
    std::fill_n(slot_tail_, kLevels * kSlots, kNil);
    rc_owner_ = std::make_unique<RaceCheck>(*this);  // sets rc_ per RACECHECK
    if (const char* s = std::getenv("RACECHECK_TIEBREAK"))
      set_tiebreak_seed(std::strtoull(s, nullptr, 10));
  }
  /// Destroys the frames of spawned tasks that never finished (deadlocked,
  /// or parked on something nobody signals), so they do not leak.
  ~Simulator() {
    while (roots_)
      std::coroutine_handle<Detached::promise_type>::from_promise(*roots_)
          .destroy();
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// The per-simulator race/lifetime checker (see racecheck.h). Always
  /// constructed; whether its hooks run is governed by its mode.
  RaceCheck& racecheck() { return *rc_owner_; }

  /// Seeds the same-timestamp dispatch shuffle. Seed 0 (the default)
  /// keeps the classic FIFO sequence order; any other seed applies a
  /// deterministic Fisher-Yates permutation to every dispatch batch of
  /// size > 1. The RACECHECK_TIEBREAK environment variable provides the
  /// initial value; an explicit call overrides it.
  void set_tiebreak_seed(uint64_t s) {
    tiebreak_seed_ = s;
    tiebreak_state_ = s;
  }

  // ---- RaceCheck forwarding (no-ops when the checker is off; the token
  // ---- forms stay balanced across mode toggles by always dropping) ------
  uint32_t rc_capture() {
    return rc_ ? rc_->capture() : RaceCheck::kNoClock;
  }
  void rc_drop(uint32_t tok) {
    if (tok != RaceCheck::kNoClock) rc_owner_->drop(tok);
  }
  /// Joins a captured token into the CURRENT segment (CQE consumption).
  void rc_consume(uint32_t tok) {
    if (tok == RaceCheck::kNoClock) return;
    if (rc_) {
      rc_->acquire_token(tok);
    } else {
      rc_owner_->drop(tok);
    }
  }
  /// Rides a captured token on a pending timer's own snapshot (the
  /// notify->wake path: the waiter's pre-suspend clock joins the wake).
  void rc_join(uint32_t tok, const TimerHandle& t) {
    if (tok == RaceCheck::kNoClock) return;
    if (rc_ && t.sim_ == this && nodes_[t.node_].gen == t.gen_ &&
        nodes_[t.node_].rc_clock != RaceCheck::kNoClock) {
      rc_->merge_into(tok, nodes_[t.node_].rc_clock);
    } else {
      rc_owner_->drop(tok);
    }
  }
  void rc_read(const void* o, uint64_t sub, const char* name,
               const char* site) {
    if (rc_) rc_->access(o, sub, RaceCheck::Access::kRead, name, site);
  }
  void rc_write(const void* o, uint64_t sub, const char* name,
                const char* site) {
    if (rc_) rc_->access(o, sub, RaceCheck::Access::kWrite, name, site);
  }
  void rc_update(const void* o, uint64_t sub, const char* name,
                 const char* site) {
    if (rc_) rc_->access(o, sub, RaceCheck::Access::kUpdate, name, site);
  }
  void rc_sync_release(const void* o, uint64_t sub = 0) {
    if (rc_) rc_->sync_release(o, sub);
  }
  void rc_sync_acquire(const void* o, uint64_t sub = 0) {
    if (rc_) rc_->sync_acquire(o, sub);
  }
  void rc_retire(const void* o, uint64_t sub, const char* name,
                 const char* site) {
    if (rc_) rc_->retire(o, sub, name, site);
  }
  void rc_revive(const void* o, uint64_t sub) {
    if (rc_) rc_->revive(o, sub);
  }
  void rc_forget(const void* o, uint64_t sub) {
    if (rc_) rc_->forget(o, sub);
  }
  void rc_lifetime(const void* o, uint64_t sub, const char* name,
                   const char* site, std::string detail) {
    if (rc_) rc_->report_lifetime(o, sub, name, site, std::move(detail));
  }

  /// Queues `h` to resume at absolute virtual time `t` (>= now). The
  /// returned handle can cancel or reschedule the resumption; it may be
  /// discarded freely when the timer is fire-and-forget.
  TimerHandle schedule_at(Time t, std::coroutine_handle<> h) {
    assert(t >= now_);
    uint32_t idx = alloc_node();
    TimerNode& n = nodes_[idx];
    n.t = t;
    n.seq = seq_++;
    n.h = h;
    n.rc_clock = rc_ ? rc_->capture() : RaceCheck::kNoClock;
    insert(idx);
    if (++pending_ > peak_depth_) peak_depth_ = pending_;
    return TimerHandle(this, idx, n.gen);
  }

  TimerHandle schedule_after(Duration d, std::coroutine_handle<> h) {
    return schedule_at(now_ + (d.count() > 0 ? d : Duration{0}), h);
  }

  /// Awaitable that suspends the current coroutine for `d` of virtual time.
  auto sleep(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_after(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Suspends until absolute virtual time `t` (no-op if already past).
  auto sleep_until(Time t) { return sleep(t > now_ ? t - now_ : Duration{0}); }

  /// Reschedules the caller at the current time, letting same-time events run.
  auto yield() { return sleep(Duration{0}); }

  /// Launches a root task. It starts running immediately (at the current
  /// virtual time) until its first suspension. Exceptions escaping a spawned
  /// task are captured and rethrown by run().
  void spawn(Task<void> t);

  /// Runs until the event queue drains. Rethrows the first exception that
  /// escaped any spawned task.
  RunResult run();

  /// Runs until the event queue drains or virtual time would exceed
  /// `deadline`; events after the deadline stay queued.
  RunResult run_until(Time deadline);

  /// Number of spawned root tasks that have not yet completed. Nonzero after
  /// run() returns means tasks are deadlocked on conditions that never fire.
  size_t live_tasks() const { return live_; }

  /// Total events processed (determinism/regression checks).
  uint64_t events_processed() const { return processed_; }

  /// Timers removed via TimerHandle::cancel() before firing.
  uint64_t timers_cancelled() const { return cancelled_; }

  /// High-water mark of simultaneously pending timers.
  size_t peak_queue_depth() const { return peak_depth_; }

  /// Currently pending timers.
  size_t pending_timers() const { return pending_; }

 private:
  friend class TimerHandle;
  friend class RaceCheck;

  // --- timing wheel geometry -------------------------------------------
  static constexpr unsigned kLevelBits = 6;             // 64 slots per level
  static constexpr unsigned kSlots = 1u << kLevelBits;  // 64
  static constexpr unsigned kLevels = 8;
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr uint64_t kSpan = uint64_t(1)
                                    << (kLevelBits * kLevels);  // 2^48 ns

  static constexpr uint32_t kNil = 0xffffffffu;

  struct TimerNode {
    Time t{0};
    uint64_t seq = 0;
    uint64_t gen = 0;  // bumped whenever the node leaves the schedule
    std::coroutine_handle<> h{};
    uint32_t prev = kNil;  // intrusive slot list (wheel residents only)
    uint32_t next = kNil;  // doubles as the freelist link
    uint32_t rc_clock = RaceCheck::kNoClock;  // scheduler's VC snapshot
    uint8_t level = 0;     // wheel position, valid while state == kPending
    uint8_t slot = 0;
    enum State : uint8_t {
      kFree,
      kPending,   // linked in a wheel slot
      kOverflow,  // owned by the overflow heap
      kBatched,   // collected into the current dispatch batch
      kDead,      // cancelled while heap-owned or batched; reaped lazily
      kSmallQ,    // resident in the shallow-depth sorted queue
    };
    State state = kFree;
  };

  struct HeapEntry {
    Time t;
    uint64_t seq;
    uint32_t node;
    bool operator>(const HeapEntry& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  /// A spawned root task's frame. Its promise links itself into the
  /// simulator's root list for the frame's lifetime.
  struct Detached {
    struct promise_type {
      static void* operator new(size_t n) { return frame_arena_alloc(n); }
      static void operator delete(void* p, size_t n) {
        frame_arena_free(p, n);
      }
      promise_type(Simulator* s, Task<void>&) : sim(s), next(s->roots_) {
        if (next) next->prev = this;
        sim->roots_ = this;
      }
      ~promise_type() {
        (prev ? prev->next : sim->roots_) = next;
        if (next) next->prev = prev;
      }
      Simulator* sim;
      promise_type* prev = nullptr;
      promise_type* next;
      Detached get_return_object() { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
  };
  static Detached run_root(Simulator* s, Task<void> t);

  // --- node arena -------------------------------------------------------
  uint32_t alloc_node() {
    if (free_nodes_ != kNil) {
      uint32_t idx = free_nodes_;
      free_nodes_ = nodes_[idx].next;
      nodes_[idx].next = kNil;
      return idx;
    }
    nodes_.emplace_back();
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void free_node(uint32_t idx) {
    TimerNode& n = nodes_[idx];
    ++n.gen;  // invalidate any outstanding TimerHandle
    n.h = {};
    n.state = TimerNode::kFree;
    n.prev = kNil;
    n.next = free_nodes_;
    if (n.rc_clock != RaceCheck::kNoClock) {
      rc_owner_->drop(n.rc_clock);
      n.rc_clock = RaceCheck::kNoClock;
    }
    free_nodes_ = idx;
  }

  // --- wheel operations (definitions in simulator.cc) -------------------
  void insert(uint32_t idx);
  void wheel_or_heap_insert(uint32_t idx);
  void small_insert(uint32_t idx);
  void wheel_link(uint32_t idx);
  void wheel_unlink(uint32_t idx);
  void cascade(unsigned level, unsigned slot);
  bool find_next_batch();  // fills batch_/batch_time_; false when drained
  void collect_slot_batch(unsigned slot);
  void collect_heap_batch();
  void drain(bool bounded, Time deadline);
  bool cancel_impl(uint32_t idx, uint64_t gen);
  RunResult make_result() const {
    return RunResult{now_, processed_, cancelled_, live_, peak_depth_};
  }

  // --- state ------------------------------------------------------------
  std::vector<TimerNode> nodes_;
  uint32_t free_nodes_ = kNil;

  // Intrusive FIFO list per slot, indexed level * kSlots + slot.
  uint32_t slot_head_[kLevels * kSlots];
  uint32_t slot_tail_[kLevels * kSlots];
  uint64_t occupancy_[kLevels] = {};  // bit s set <=> slot s non-empty
  uint64_t wheel_cursor_ = 0;         // ns; monotone, never decreases
  size_t wheel_count_ = 0;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      overflow_;

  // Shallow-depth fast path: while small_mode_ holds, every pending timer
  // lives in this vector, sorted by (t, seq). Crossing kSmallCap migrates
  // everything into the wheel/heap; the wheel hands back only on full drain.
  std::vector<uint32_t> small_;
  bool small_mode_ = true;
  static constexpr size_t kSmallCap = 64;

  std::vector<uint32_t> batch_;  // node ids dispatching at batch_time_
  Time batch_time_{0};

  Time now_{0};
  uint64_t seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t cancelled_ = 0;
  size_t pending_ = 0;
  size_t peak_depth_ = 0;
  size_t live_ = 0;
  Detached::promise_type* roots_ = nullptr;  // unfinished spawned tasks
  std::exception_ptr first_error_{};

  // RaceCheck: rc_owner_ always exists; rc_ is non-null exactly while the
  // checker is enabled (maintained by RaceCheck::set_mode), so the hot
  // path pays one pointer test when off.
  std::unique_ptr<RaceCheck> rc_owner_;
  RaceCheck* rc_ = nullptr;
  uint64_t tiebreak_seed_ = 0;   // 0 => classic FIFO dispatch order
  uint64_t tiebreak_state_ = 0;  // splitmix64 stream, advanced per draw
};

inline bool TimerHandle::cancel() {
  if (!sim_) return false;
  Simulator* s = std::exchange(sim_, nullptr);
  return s->cancel_impl(node_, gen_);
}

inline bool TimerHandle::active() const {
  return sim_ && sim_->nodes_[node_].gen == gen_;
}

inline bool TimerHandle::reschedule(Time t) {
  if (!sim_ || sim_->nodes_[node_].gen != gen_) {
    sim_ = nullptr;
    return false;
  }
  Simulator* s = sim_;
  std::coroutine_handle<> h = s->nodes_[node_].h;
  cancel();
  --s->cancelled_;  // a reschedule is a move, not a cancellation, in stats
  *this = s->schedule_at(t, h);
  return true;
}

}  // namespace hatrpc::sim
