#include "hint/adaptive.h"

#include <algorithm>
#include <utility>

namespace hatrpc::hint {

namespace {

/// The prior plan normalized against the channel config it will drive:
/// static plans leave window at 0 ("unmanaged"), the controller manages
/// whatever the config allocated.
Plan normalized(Plan prior, const proto::ChannelConfig& cfg) {
  if (prior.window == 0) prior.window = cfg.window == 0 ? 1 : cfg.window;
  return prior;
}

}  // namespace

// ---- AdaptiveController --------------------------------------------------

AdaptiveController::AdaptiveController(sim::Simulator& sim, Plan prior,
                                       const AdaptiveParams& params,
                                       obs::FunctionFootprint* fp)
    : sim_(sim), p_(params), plan_(prior), fp_(fp ? fp : &own_fp_) {
  if (plan_.window == 0) plan_.window = 1;
  // Seed the latches from the hint's promises: the static plan IS the
  // prior, so the first decision only fires once the EWMAs leave its bands.
  payload_large_ = plan_.expected_payload > p_.selection.small_msg_max;
  sub_ = classify_subscription(std::max<uint32_t>(p_.prior_concurrency, 1),
                               p_.selection);
}

void AdaptiveController::observe(const obs::CallSample& s) {
  fp_->record(s, p_.alpha);
  ++interval_calls_;
  if (s.stalled) ++interval_stalls_;
}

void AdaptiveController::update_latches() {
  // Payload regime: small <-> large around the 4 KB switch, with a
  // relative dead band so a workload sitting AT the threshold stays put.
  const double pl = fp_->payload_ewma();
  const double sm = static_cast<double>(p_.selection.small_msg_max);
  if (payload_large_) {
    if (pl < sm * (1.0 - p_.hysteresis)) payload_large_ = false;
  } else if (pl > sm * (1.0 + p_.hysteresis)) {
    payload_large_ = true;
  }

  // Subscription regime: the same latch-with-bands discipline around the
  // two core budgets (under <= numa_node_cores < full <= server_cores).
  const double infl = fp_->inflight_ewma();
  const double under_hi = p_.selection.numa_node_cores * (1.0 + p_.hysteresis);
  const double under_lo = p_.selection.numa_node_cores * (1.0 - p_.hysteresis);
  const double over_hi = p_.selection.server_cores * (1.0 + p_.hysteresis);
  const double over_lo = p_.selection.server_cores * (1.0 - p_.hysteresis);
  switch (sub_) {
    case Subscription::kUnder:
      if (infl > over_hi) sub_ = Subscription::kOver;
      else if (infl > under_hi) sub_ = Subscription::kFull;
      break;
    case Subscription::kFull:
      if (infl > over_hi) sub_ = Subscription::kOver;
      else if (infl < under_lo) sub_ = Subscription::kUnder;
      break;
    case Subscription::kOver:
      if (infl < under_lo) sub_ = Subscription::kUnder;
      else if (infl < over_lo) sub_ = Subscription::kFull;
      break;
  }
}

uint32_t AdaptiveController::next_window(uint64_t calls,
                                         uint64_t stalls) const {
  uint32_t w = plan_.window == 0 ? 1 : plan_.window;
  const double ratio =
      calls == 0 ? 0.0 : static_cast<double>(stalls) / calls;
  if (ratio > p_.stall_grow) {
    w *= 2;  // callers are queueing on the window — open it up
  } else if (ratio < p_.idle_shrink && fp_->inflight_ewma() < w / 2.0) {
    w /= 2;  // most slots idle — hand the ring memory back
  }
  return std::clamp(w, std::max<uint32_t>(p_.min_window, 1), p_.max_window);
}

std::optional<Plan> AdaptiveController::maybe_replan() {
  if (frozen_) return std::nullopt;
  if (interval_calls_ < p_.min_samples) return std::nullopt;
  update_latches();
  const uint64_t calls = interval_calls_;
  const uint64_t stalls = interval_stalls_;
  interval_calls_ = interval_stalls_ = 0;
  // Cooldown gates ADOPTION, not observation: the latches above already
  // absorbed the interval, so the next attempt decides from fresh data.
  if (switches_ > 0 && sim_.now() - last_switch_ < p_.cooldown)
    return std::nullopt;

  Plan next = replan_classified(plan_, p_.goal, payload_large_, sub_,
                                p_.selection);
  next.window = next_window(calls, stalls);
  if (next.protocol == plan_.protocol &&
      next.client_poll == plan_.client_poll &&
      next.server_poll == plan_.server_poll && next.window == plan_.window)
    return std::nullopt;
  plan_ = next;
  ++switches_;
  last_switch_ = sim_.now();
  return next;
}

// ---- AdaptiveChannel -----------------------------------------------------

AdaptiveChannel::AdaptiveChannel(verbs::Node& client, verbs::Node& server,
                                 proto::Handler handler,
                                 proto::ChannelConfig cfg, Plan prior,
                                 const AdaptiveParams& params,
                                 obs::FunctionFootprint* fp)
    : cl_(client), sv_(server), handler_(std::move(handler)), base_cfg_(cfg),
      sim_(client.fabric().simulator()),
      ctrl_(client.fabric().simulator(), normalized(prior, cfg), params, fp) {
  // NOTE: no bind_obs() here — the wrapper must not perturb the channel
  // registration sequence a frozen run shares with its static twin.
  const Plan& p0 = ctrl_.plan();
  proto::ChannelConfig c0 = base_cfg_;
  c0.client_poll = p0.client_poll;
  c0.server_poll = p0.server_poll;
  c0.window = p0.window;
  cur_ = std::make_shared<Epoch>(sim_);
  cur_->ch = proto::make_channel(p0.protocol, cl_, sv_, handler_, c0);
}

void AdaptiveChannel::shutdown() {
  cur_->ch->shutdown();
  for (auto& e : retired_) e->ch->shutdown();
}

void AdaptiveChannel::abort() {
  cur_->ch->abort();
  for (auto& e : retired_) e->ch->abort();
}

uint64_t AdaptiveChannel::epoch_stalls(const Epoch& ep) const {
  // Heuristic stall attribution: the per-call delta of the epoch channel's
  // window_stalls counter. Concurrent calls on the same channel can blur
  // who stalled, and a hybrid epoch reports its own (quiet) scope — both
  // only soften the grow signal, never invent one.
  const obs::CounterSet* c = ep.ch->counters();
  return c ? c->get(obs::Ctr::kWindowStalls) : 0;
}

void AdaptiveChannel::leave_epoch(const std::shared_ptr<Epoch>& ep) {
  --ep->inflight;
  if (ep->retired && ep->inflight == 0) ep->drained.set();
}

sim::Task<proto::Buffer> AdaptiveChannel::do_call(proto::View req,
                                                  uint32_t resp_size_hint) {
  auto ep = cur_;  // pin: a swap mid-call must not re-route us
  ++ep->inflight;
  // Epoch-lifetime check: with inflight already raised, the reaper cannot
  // have retired this epoch — a report here means the drain gate broke.
  sim_.rc_read(ep.get(), 0, "AdaptiveChannel.epoch", RC_HERE);
  const uint64_t stalls0 = epoch_stalls(*ep);
  const uint32_t live = ctrl_.call_begin();
  proto::CallResult r = co_await ep->ch->call(req, resp_size_hint);
  ctrl_.call_end();
  leave_epoch(ep);
  const bool stalled = epoch_stalls(*ep) > stalls0;
  ctrl_.observe({req.size(), r ? r->size() : 0, stalled, live});
  if (!ctrl_.frozen()) maybe_apply();
  if (!r) throw r.error();
  co_return std::move(*r);
}

sim::Task<proto::LeasedReply> AdaptiveChannel::do_call_leased(
    proto::View req, uint32_t resp_size_hint) {
  // Same accounting as do_call: a lent reply (a Direct ReplyLoan) holds no
  // slot of the epoch, so the epoch is left as soon as the call resolves.
  auto ep = cur_;
  ++ep->inflight;
  sim_.rc_read(ep.get(), 0, "AdaptiveChannel.epoch", RC_HERE);
  const uint64_t stalls0 = epoch_stalls(*ep);
  const uint32_t live = ctrl_.call_begin();
  proto::LeasedResult r = co_await ep->ch->call_leased(req, resp_size_hint);
  ctrl_.call_end();
  leave_epoch(ep);
  const bool stalled = epoch_stalls(*ep) > stalls0;
  ctrl_.observe({req.size(), r ? r->bytes().size() : 0, stalled, live});
  if (!ctrl_.frozen()) maybe_apply();
  if (!r) throw r.error();
  co_return std::move(*r);
}

void AdaptiveChannel::maybe_apply() {
  const Plan before = ctrl_.plan();
  std::optional<Plan> next = ctrl_.maybe_replan();
  if (!next) return;
  cl_.counters().add(obs::Ctr::kPlanSwitches);
  if (next->protocol == before.protocol) {
    // Same protocol: polling flips live; the window morphs live too as
    // long as it fits the allocated rings.
    cur_->ch->set_poll_modes(next->client_poll, next->server_poll);
    if (next->window == before.window ||
        cur_->ch->resize_window(next->window))
      return;
  }
  epoch_swap(*next);
}

void AdaptiveChannel::epoch_swap(const Plan& next) {
  proto::ChannelConfig cfg = base_cfg_;
  cfg.client_poll = next.client_poll;
  cfg.server_poll = next.server_poll;
  cfg.window = next.window == 0 ? base_cfg_.window : next.window;
  auto fresh = std::make_shared<Epoch>(sim_);
  fresh->ch = proto::make_channel(next.protocol, cl_, sv_, handler_, cfg);
  auto old = cur_;
  cur_ = std::move(fresh);
  ++epoch_;
  cl_.counters().add(obs::Ctr::kEpochSwaps);
  old->retired = true;
  if (old->inflight == 0) old->drained.set();
  retired_.push_back(old);
  sim_.spawn(reap(std::move(old)));
}

AdaptiveChannel::~AdaptiveChannel() {
  // Epoch objects may share addresses with future allocations: drop their
  // racecheck histories so a recycled address can't inherit a provenance.
  if (cur_) sim_.rc_forget(cur_.get(), 0);
  for (const auto& ep : retired_) sim_.rc_forget(ep.get(), 0);
}

sim::Task<void> AdaptiveChannel::reap(std::shared_ptr<Epoch> old) {
  // In-flight calls drain on the old plan; only then does the old epoch's
  // serve loop stop. The object itself stays alive in retired_, where
  // shutdown() and abort() still reach it.
  co_await old->drained.wait();
  old->ch->shutdown();
  // From here on any call pinned to this epoch is a lifetime violation
  // (the drained event is the release/acquire edge ordering this retire
  // after every legal access).
  sim_.rc_retire(old.get(), 0, "AdaptiveChannel.epoch", RC_HERE);
}

std::unique_ptr<AdaptiveChannel> make_adaptive_channel(
    verbs::Node& client, verbs::Node& server, proto::Handler handler,
    proto::ChannelConfig cfg, Plan prior, const AdaptiveParams& params,
    obs::FunctionFootprint* fp) {
  return std::make_unique<AdaptiveChannel>(client, server, std::move(handler),
                                           std::move(cfg), prior, params, fp);
}

}  // namespace hatrpc::hint
