// CPU contention model for a simulated node.
//
// A node owns a fixed number of cores. Two kinds of demand compete for them:
//   * computations — handler work, serialization, per-op software overheads,
//     modelled by `compute(work)` which stretches the work by the current
//     over-subscription factor (processor sharing) and charges a context
//     switch when the node is over-subscribed;
//   * busy pollers — threads spinning on a completion queue. Each registered
//     busy poller permanently occupies a core while active. Under
//     over-subscription a busy poller only sees its completion after waiting
//     for its next time slice, which is what makes busy polling collapse at
//     high client counts (paper Fig. 5) without that behaviour being
//     hard-coded anywhere.
//
// Event-polling pickups instead pay a fixed interrupt/wake-up latency plus a
// mild scheduling delay driven only by *running* work, so they scale.
//
// Core binding (per-core sharded servers): work and polling can be pinned to
// a specific core instead of floating over the whole node. A pinned shard
// models the Storm-style per-thread RPC context: ONE polling thread per
// shard, registered once via pin_spinner(core), runs its connections'
// handlers itself (run-to-completion). Consequences the model reproduces:
//   * pinned demand contends only on its own core — per-core processor
//     sharing, so a shard saturates at its core's capacity (the knee);
//   * two busy shards pinned to the same core each see the other's spinning
//     thread, so pickups pay reschedule quanta and compute stretches 2x —
//     the over-subscription collapse when shards exceed physical cores;
//   * one spinner is credited back while its own bound work computes (the
//     polling thread IS the compute thread), so a lone shard with one
//     in-flight handler runs at full speed.
// Unbound (core < 0) paths are bit-identical to the pre-binding model as
// long as nothing on the node is bound.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"

namespace hatrpc::sim {

enum class PollMode : uint8_t { kBusy, kEvent };

class Cpu {
 public:
  struct Params {
    int cores = 28;                    // Xeon Gold 6132 (paper testbed)
    Duration timeslice = 5us;          // scheduler quantum share
    Duration ctx_switch = 2us;         // charged when over-subscribed
    Duration busy_check = 50ns;        // spin loop reaction time
    Duration interrupt_wakeup = 3us;   // event-polling wake-up (paper §3.2)
  };

  /// "Not pinned": the legacy whole-node contention model.
  static constexpr int kAnyCore = -1;

  Cpu(Simulator& sim, Params p)
      : sim_(sim), p_(p),
        core_spin_(static_cast<size_t>(p.cores), 0),
        core_active_(static_cast<size_t>(p.cores), 0) {}
  explicit Cpu(Simulator& sim);  // defined below (GCC NSDMI quirk)

  Simulator& simulator() { return sim_; }
  const Params& params() const { return p_; }
  int cores() const { return p_.cores; }

  /// Demand / cores, floored at 1.0. Busy pollers and active computations
  /// both count as demand; pinned spinners and pinned work are part of the
  /// node's total demand too.
  double oversubscription() const {
    double demand = static_cast<double>(busy_pollers_ + active_ +
                                        bound_spin_ + bound_active_);
    return std::max(1.0, demand / static_cast<double>(p_.cores));
  }

  bool oversubscribed() const {
    return busy_pollers_ + active_ + bound_spin_ + bound_active_ > p_.cores;
  }

  /// Runs `work` of CPU time, stretched by contention. With `core >= 0` the
  /// work is pinned: it contends against that core's spinners and bound
  /// work (plus an even share of the node's floating demand) instead of the
  /// whole-node average — and one resident spinner is credited back, since
  /// the shard's polling thread executes its handlers itself. One timer,
  /// so an awaiter rather than a task: computing allocates no frame.
  class Compute {
   public:
    Compute(Cpu& cpu, Duration work, int core)
        : cpu_(cpu), work_(work), core_(core) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      cpu_.sim_.schedule_after(cpu_.begin_compute(work_, core_), h);
    }
    void await_resume() { cpu_.end_compute(core_); }

   private:
    Cpu& cpu_;
    Duration work_;
    int core_;
  };

  Compute compute(Duration work, int core = kAnyCore) {
    return Compute(*this, work, core);
  }

  /// Latency between a completion becoming visible and the polling thread
  /// acting on it. With `core >= 0` the pickup is pinned: a busy pickup is
  /// the shard's spinner reacting on its own core (penalized only by what
  /// shares THAT core), and an event pickup queues behind that core's
  /// running work.
  Duration pickup_delay(PollMode mode, int core = kAnyCore) const {
    if (core < 0) {
      if (mode == PollMode::kBusy) {
        // A spinning thread reacts within its check interval while it holds
        // a core; once over-subscribed it must first be rescheduled, which
        // costs (f - 1) quanta on average.
        double f = oversubscription();
        Duration d = p_.busy_check;
        if (f > 1.0) d += scale(p_.timeslice, f - 1.0) + p_.ctx_switch;
        return d;
      }
      // Event polling: interrupt + wake-up, plus queueing behind running
      // work only (sleeping waiters do not consume cores).
      double f = std::max(
          1.0, static_cast<double>(active_ + bound_active_) /
                   static_cast<double>(p_.cores));
      return scale(p_.interrupt_wakeup, f);
    }
    const size_t k = core_index(core);
    if (mode == PollMode::kBusy) {
      double f = static_cast<double>(core_spin_[k] + core_active_[k]) +
                 floating_share();
      Duration d = p_.busy_check;
      if (f > 1.0) d += scale(p_.timeslice, f - 1.0) + p_.ctx_switch;
      return d;
    }
    double f = std::max(
        1.0, static_cast<double>(core_active_[k]) +
                 static_cast<double>(active_) / static_cast<double>(p_.cores));
    return scale(p_.interrupt_wakeup, f);
  }

  /// RAII registration of a spinning thread. Hold while busy-polling a CQ.
  class BusyGuard {
   public:
    explicit BusyGuard(Cpu& cpu) : cpu_(&cpu) { ++cpu_->busy_pollers_; }
    BusyGuard(BusyGuard&& o) noexcept : cpu_(std::exchange(o.cpu_, nullptr)) {}
    BusyGuard& operator=(BusyGuard&& o) noexcept {
      if (this != &o) {
        reset();
        cpu_ = std::exchange(o.cpu_, nullptr);
      }
      return *this;
    }
    BusyGuard(const BusyGuard&) = delete;
    BusyGuard& operator=(const BusyGuard&) = delete;
    ~BusyGuard() { reset(); }

   private:
    void reset() {
      if (cpu_) --cpu_->busy_pollers_;
      cpu_ = nullptr;
    }
    Cpu* cpu_;
  };

  BusyGuard busy_guard() { return BusyGuard(*this); }

  /// RAII registration of a shard's dedicated polling thread pinned to a
  /// core. Unlike a BusyGuard (held per wait), a SpinGuard is held for the
  /// shard's whole lifetime: the thread spins whether or not a completion
  /// is pending, which is exactly what makes oversubscribed busy shards
  /// collapse. CQs bound to the same core do NOT register per-wait guards —
  /// all their waits multiplex onto this one thread.
  class SpinGuard {
   public:
    SpinGuard() = default;
    SpinGuard(Cpu& cpu, int core) : cpu_(&cpu), k_(cpu.core_index(core)) {
      ++cpu_->core_spin_[k_];
      ++cpu_->bound_spin_;
    }
    SpinGuard(SpinGuard&& o) noexcept
        : cpu_(std::exchange(o.cpu_, nullptr)), k_(o.k_) {}
    SpinGuard& operator=(SpinGuard&& o) noexcept {
      if (this != &o) {
        reset();
        cpu_ = std::exchange(o.cpu_, nullptr);
        k_ = o.k_;
      }
      return *this;
    }
    SpinGuard(const SpinGuard&) = delete;
    SpinGuard& operator=(const SpinGuard&) = delete;
    ~SpinGuard() { reset(); }

   private:
    void reset() {
      if (cpu_) {
        --cpu_->core_spin_[k_];
        --cpu_->bound_spin_;
      }
      cpu_ = nullptr;
    }
    Cpu* cpu_ = nullptr;
    size_t k_ = 0;
  };

  SpinGuard pin_spinner(int core) { return SpinGuard(*this, core); }

  int busy_pollers() const { return busy_pollers_ + bound_spin_; }
  int spinners(int core) const {
    return core_spin_[core_index(core)];
  }

 private:
  friend class BusyGuard;
  friend class SpinGuard;

  /// Counts one computation as running and returns how long `work` takes
  /// under the contention that brings; end_compute() stops counting it.
  Duration begin_compute(Duration work, int core) {
    if (core < 0) {
      ++active_;
      double f = oversubscription();
      Duration d = scale(work, f);
      if (f > 1.0) d += p_.ctx_switch;
      return d;
    }
    const size_t k = core_index(core);
    ++core_active_[k];
    ++bound_active_;
    double spin_others =
        core_spin_[k] > 0 ? static_cast<double>(core_spin_[k] - 1) : 0.0;
    double f = std::max(1.0, spin_others +
                                 static_cast<double>(core_active_[k]) +
                                 floating_share());
    Duration d = scale(work, f);
    if (f > 1.0) d += p_.ctx_switch;
    return d;
  }

  void end_compute(int core) {
    if (core < 0) {
      --active_;
      return;
    }
    --core_active_[core_index(core)];
    --bound_active_;
  }

  /// Pinning wraps: binding shard i to core i % cores is how a sweep drives
  /// more shards than physical cores into collapse.
  size_t core_index(int core) const {
    return static_cast<size_t>(core % p_.cores);
  }

  /// Unpinned demand lands evenly across all cores; pinned work sees its
  /// per-core share on top of its own core's residents.
  double floating_share() const {
    return static_cast<double>(busy_pollers_ + active_) /
           static_cast<double>(p_.cores);
  }

  Simulator& sim_;
  Params p_;
  int busy_pollers_ = 0;   // floating (unpinned) spinning waiters
  int active_ = 0;         // floating computations
  int bound_spin_ = 0;     // total pinned spinners (sum of core_spin_)
  int bound_active_ = 0;   // total pinned computations
  std::vector<int> core_spin_;
  std::vector<int> core_active_;
};

inline Cpu::Cpu(Simulator& sim) : Cpu(sim, Params{}) {}

}  // namespace hatrpc::sim
