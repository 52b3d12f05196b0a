// Adaptive hints (ROADMAP item 4): a per-function runtime controller that
// starts from the static IDL hint's plan as a prior and re-selects the
// protocol, the polling discipline, and the sliding-window depth from live
// counters. The paper's engine trusts the programmer's hints verbatim
// (§4.3); this layer closes the loop for workloads whose behaviour drifts
// from what the hints promised — payload mix shifts across the 4 KB
// eager/rendezvous switch, concurrency crossing the Fig-5 busy-polling
// collapse, windows sized for the wrong depth.
//
// Three moving parts:
//   * obs::FunctionFootprint (src/obs/footprint.h) — payload/in-flight
//     EWMAs plus a live gauge, fed by every completed call.
//   * AdaptiveController — pure decision logic. Hysteresis bands around
//     each threshold (a latched regime only flips when the EWMA leaves the
//     band on the far side) and a cooldown between adopted plans keep the
//     controller from flapping when the workload sits at a boundary.
//   * AdaptiveChannel — an RpcChannel that owns the current epoch's real
//     channel and applies plan changes: polling and window shrinks apply
//     live (set_poll_modes / resize_window never touch in-flight calls);
//     protocol changes and window growth beyond the allocated rings build
//     a NEW channel (epoch swap) while calls in flight on the old epoch
//     drain on the old plan before it is shut down.
//
// Determinism: a frozen controller (freeze()) never adopts a plan, so a
// frozen AdaptiveChannel drives its inner channel exactly like the static
// channel it wraps — same-seed runs produce byte-identical counter dumps.
// AdaptiveChannel itself deliberately does NOT bind an obs channel scope:
// the frozen wrapper must not perturb the registration sequence the static
// twin produces. Plan switches and epoch swaps are charged to the CLIENT
// NODE scope (kPlanSwitches / kEpochSwaps), which stays zero-suppressed
// out of frozen dumps.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "hint/selection.h"
#include "obs/footprint.h"
#include "proto/channel.h"
#include "sim/sync.h"
#include "verbs/verbs.h"

namespace hatrpc::hint {

/// Controller tuning. The defaults favour stability over reaction speed;
/// benches that phase-shift quickly lower min_samples / cooldown.
struct AdaptiveParams {
  SelectionParams selection;
  PerfGoal goal = PerfGoal::kThroughput;
  /// EWMA smoothing weight for the footprint (new += a * (sample - new)).
  double alpha = 0.25;
  /// Relative dead band around every threshold: a latched regime flips
  /// only when the EWMA crosses threshold * (1 +/- hysteresis).
  double hysteresis = 0.25;
  /// Minimum virtual time between two ADOPTED plans (anti-flap).
  sim::Duration cooldown = std::chrono::microseconds(200);
  /// Completed calls per decision interval; no decision before this many.
  uint32_t min_samples = 8;
  /// Window bounds and the stall-driven sizing rule: grow (double) when
  /// the interval's stalls/calls ratio exceeds stall_grow, shrink (halve)
  /// when it is below idle_shrink AND the in-flight EWMA uses less than
  /// half the window (idle slots).
  uint32_t min_window = 1;
  uint32_t max_window = 64;
  double stall_grow = 0.10;
  double idle_shrink = 0.01;
  /// Concurrency prior used to seed the subscription latch before the
  /// first samples arrive (the hint's kConcurrency value).
  uint32_t prior_concurrency = 1;
};

/// Decision logic only — owns (or borrows) a FunctionFootprint and turns
/// its EWMAs into plan re-selections via selection.h's replan_classified.
class AdaptiveController {
 public:
  /// `fp` optionally points at a registry-owned footprint (so the obs
  /// layer's dump sees this function); null = controller-private scope.
  AdaptiveController(sim::Simulator& sim, Plan prior,
                     const AdaptiveParams& params,
                     obs::FunctionFootprint* fp = nullptr);

  /// Live-gauge bracket around each call (feeds CallSample::inflight).
  uint32_t call_begin() { return fp_->call_begin(); }
  void call_end() { fp_->call_end(); }

  /// Folds one completed call into the EWMAs and interval counters.
  void observe(const obs::CallSample& s);

  /// Runs one decision attempt: returns the newly adopted plan when the
  /// latched regimes (or the window rule) demand a different one and the
  /// cooldown has expired; nullopt otherwise. Decision attempts happen at
  /// most once per min_samples completed calls.
  std::optional<Plan> maybe_replan();

  /// Ablation switch: a frozen controller observes but never re-plans.
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  const Plan& plan() const { return plan_; }
  uint64_t switches() const { return switches_; }
  bool payload_large() const { return payload_large_; }
  Subscription subscription() const { return sub_; }
  const obs::FunctionFootprint& footprint() const { return *fp_; }

 private:
  void update_latches();
  uint32_t next_window(uint64_t calls, uint64_t stalls) const;

  sim::Simulator& sim_;
  AdaptiveParams p_;
  Plan plan_;
  obs::FunctionFootprint own_fp_;
  obs::FunctionFootprint* fp_;
  bool payload_large_ = false;
  Subscription sub_ = Subscription::kUnder;
  bool frozen_ = false;
  uint64_t switches_ = 0;
  sim::Time last_switch_{};
  uint64_t interval_calls_ = 0;
  uint64_t interval_stalls_ = 0;
};

/// An RpcChannel that re-plans itself. Wraps the current epoch's concrete
/// channel (built through make_channel) and swaps epochs when the
/// controller adopts a plan the live channel cannot morph into.
class AdaptiveChannel : public proto::RpcChannel {
 public:
  AdaptiveChannel(verbs::Node& client, verbs::Node& server,
                  proto::Handler handler, proto::ChannelConfig cfg,
                  Plan prior, const AdaptiveParams& params,
                  obs::FunctionFootprint* fp = nullptr);
  ~AdaptiveChannel() override;

  void shutdown() override;
  void abort() override;
  proto::ProtocolKind kind() const override { return cur_->ch->kind(); }

  // Manual overrides forward to the current epoch.
  void set_poll_modes(sim::PollMode client, sim::PollMode server) override {
    cur_->ch->set_poll_modes(client, server);
  }
  bool resize_window(uint32_t n) override {
    return cur_->ch->resize_window(n);
  }
  const obs::CounterSet* counters() const override {
    return cur_->ch->counters();
  }

  /// Freezes the controller (ablation: observe, never act).
  void freeze() { ctrl_.freeze(); }

  AdaptiveController& controller() { return ctrl_; }
  const AdaptiveController& controller() const { return ctrl_; }
  const Plan& plan() const { return ctrl_.plan(); }
  uint64_t epoch() const { return epoch_; }
  uint64_t switches() const { return ctrl_.switches(); }
  /// The concrete channel currently carrying calls (tests peek at kind()).
  proto::RpcChannel& current() { return *cur_->ch; }

 protected:
  sim::Task<proto::Buffer> do_call(proto::View req,
                                   uint32_t resp_size_hint) override;
  sim::Task<proto::LeasedReply> do_call_leased(
      proto::View req, uint32_t resp_size_hint) override;

 private:
  /// One plan generation: the concrete channel plus the in-flight count
  /// that gates its teardown. Retired epochs stay alive until the
  /// AdaptiveChannel is destroyed; their serve loops are shut down once the
  /// last in-flight call drains.
  struct Epoch {
    explicit Epoch(sim::Simulator& sim) : drained(sim) {}
    std::unique_ptr<proto::RpcChannel> ch;
    uint64_t inflight = 0;  // calls in flight on this epoch
    bool retired = false;
    sim::Event drained;
  };

  void maybe_apply();
  void epoch_swap(const Plan& next);
  sim::Task<void> reap(std::shared_ptr<Epoch> old);
  uint64_t epoch_stalls(const Epoch& ep) const;
  void leave_epoch(const std::shared_ptr<Epoch>& ep);

  verbs::Node& cl_;
  verbs::Node& sv_;
  proto::Handler handler_;
  proto::ChannelConfig base_cfg_;
  sim::Simulator& sim_;
  AdaptiveController ctrl_;
  std::shared_ptr<Epoch> cur_;
  std::vector<std::shared_ptr<Epoch>> retired_;
  uint64_t epoch_ = 0;
};

/// Convenience factory mirroring make_channel: `prior` is the static
/// plan (typically select_plan's output) the controller starts from.
std::unique_ptr<AdaptiveChannel> make_adaptive_channel(
    verbs::Node& client, verbs::Node& server, proto::Handler handler,
    proto::ChannelConfig cfg, Plan prior, const AdaptiveParams& params = {},
    obs::FunctionFootprint* fp = nullptr);

}  // namespace hatrpc::hint
