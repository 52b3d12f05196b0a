// End-to-end RPC reliability on top of any Fig. 3 protocol channel:
// client-side timeouts, exponential backoff with jitter, reconnection
// through fresh QPs, idempotent retries via sequence-numbered requests with
// server-side response replay, and graceful degradation to the eager
// SEND/RECV path when a one-sided protocol's remote-access assumptions
// break (e.g. the server's exported region was revoked).
//
// The wrapped handler sees exactly the bytes the caller passed to call();
// the RpcHeader framing (seq, attempt, len) is internal to this layer.
#pragma once

#include <algorithm>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "proto/channel.h"
#include "proto/error.h"
#include "proto/wire.h"
#include "sim/rng.h"
#include "sim/sync.h"

namespace hatrpc::proto {

struct RetryPolicy {
  int max_attempts = 4;
  /// Per-attempt client-side deadline (virtual time). On expiry the
  /// underlying channel is aborted and the call is retried on a fresh one.
  sim::Duration timeout = std::chrono::milliseconds(2);
  /// Backoff before attempt n+1 is uniform in [d/2, d) with
  /// d = min(backoff_base << (n-1), backoff_max) — exponential with jitter
  /// so synchronized clients do not retry in lockstep.
  sim::Duration backoff_base = std::chrono::microseconds(50);
  sim::Duration backoff_max = std::chrono::milliseconds(1);
  uint64_t jitter_seed = 1;
  /// Degrade to kEagerSendRecv after remote-access faults or repeated
  /// failures of the configured protocol.
  bool fallback_to_eager = true;
  /// TOTAL per-call budget across every attempt and backoff (zero =
  /// unbounded, the historical behavior). A call that would retry past
  /// this deadline surfaces kDeadlineExceeded instead — failover logic can
  /// bound tail latency instead of riding max_attempts against a dead
  /// replica. Attempt deadlines are clipped to whatever budget remains.
  sim::Duration total_deadline = sim::Duration::zero();
};

/// Wraps a protocol channel with retry/timeout/reconnect logic. Holds the
/// two nodes so a failed connection can be torn down and rebuilt via
/// make_channel (fresh QPs + CQs through Fabric::connect).
class ReliableChannel : public RpcChannel {
 public:
  ReliableChannel(ProtocolKind kind, verbs::Node& client,
                  verbs::Node& server, Handler handler, ChannelConfig cfg,
                  RetryPolicy policy = {})
      : kind_(kind), active_kind_(kind), cl_(client), sv_(server),
        user_handler_(std::move(handler)), cfg_(cfg), policy_(policy),
        sim_(client.fabric().simulator()), jitter_(policy.jitter_seed),
        dedupe_(std::make_shared<DedupeState>()) {
    bind_obs(client.fabric(), client.id());
    ch_ = make_channel(kind_, cl_, sv_, wrap_handler(), cfg_);
  }

  void shutdown() override { ch_->shutdown(); }
  void abort() override { ch_->abort(); }

  ProtocolKind kind() const override { return kind_; }
  /// The protocol currently carrying traffic (kEagerSendRecv once degraded).
  ProtocolKind active_kind() const { return active_kind_; }
  bool degraded() const { return active_kind_ != kind_; }

 protected:
  sim::Task<Buffer> do_call(View req, uint32_t resp_size_hint) override {
    const uint64_t seq = ++next_seq_;
    const bool budgeted = policy_.total_deadline.count() > 0;
    const sim::Time budget_end = sim_.now() + policy_.total_deadline;
    RpcErrc last = RpcErrc::kTimeout;
    std::string last_what = "no attempt made";
    for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
      // With a windowed channel several calls retry concurrently; remember
      // which incarnation this attempt ran on so only the FIRST failure of
      // an incarnation rebuilds it (the others retry on the new channel).
      const uint64_t at_epoch = epoch_;
      if (attempt > 1) {
        count(obs::Ctr::kRetryAttempts);
        if (obs_->tracer.enabled())
          obs_->tracer.instant("retry-attempt", "reliable", sim_.now(),
                               obs_pid(), obs_channel_id());
      }
      sim::Time attempt_end = sim_.now() + policy_.timeout;
      if (budgeted && budget_end < attempt_end) attempt_end = budget_end;
      auto state = sim::pooled_shared<CallState>(sim_);
      sim_.spawn(invoke(ch_.get(), state,
                        frame(req, seq, static_cast<uint32_t>(attempt)),
                        resp_size_hint));
      bool done = co_await state->done.wait_until(attempt_end);
      if (done && sim_.now() < attempt_end) {
        // The attempt finished early: its deadline timer was cancelled
        // instead of lingering in the scheduler until attempt_end.
        count(obs::Ctr::kTimerCancels);
      }
      if (!done) {
        // Deadline expired with the attempt still in flight: tear the
        // channel down so the inner call unwinds (flush completions), then
        // join it before the channel object is retired.
        count(obs::Ctr::kTimeouts);
        ch_->abort();
        co_await state->done.wait();
        last = RpcErrc::kTimeout;
        last_what = "attempt timed out";
      } else if (state->err) {
        bool rethrow = false;
        try {
          std::rethrow_exception(state->err);
        } catch (const RpcError& e) {
          last = e.errc();
          last_what = e.what();
        } catch (...) {
          // Not a transport-layer failure (handler bug, length error...):
          // retrying will not help, so surface it to the caller.
          rethrow = true;
        }
        if (rethrow) std::rethrow_exception(state->err);
      } else {
        co_return std::move(*state->resp);
      }
      if (budgeted && sim_.now() >= budget_end) {
        count(obs::Ctr::kDeadlineExceeded);
        throw RpcError(RpcErrc::kDeadlineExceeded,
                       "rpc exceeded its " +
                           std::to_string(policy_.total_deadline.count()) +
                           "ns budget after " + std::to_string(attempt) +
                           " attempts (last: " + last_what + ")");
      }
      if (attempt == policy_.max_attempts) break;
      co_await backoff(attempt, budgeted ? &budget_end : nullptr);
      reconnect(last, attempt, at_epoch);
    }
    throw RpcError(RpcErrc::kRetriesExhausted,
                   "rpc failed after " +
                       std::to_string(policy_.max_attempts) +
                       " attempts (last: " + last_what + ")");
  }

 private:
  /// Completion rendezvous between do_call() and the spawned attempt.
  /// Shared so a timed-out attempt can outlive the call frame briefly
  /// while it unwinds.
  struct CallState {
    explicit CallState(sim::Simulator& sim) : done(sim) {}
    sim::Event done;
    std::optional<Buffer> resp;
    std::exception_ptr err;
  };

  /// Server-side idempotency: responses cached by sequence number so a
  /// retried request is answered by replay, not re-execution. Shared across
  /// reconnects — a rebuilt channel must still recognize old sequence
  /// numbers.
  struct DedupeState {
    std::unordered_map<uint64_t, Buffer> cache;
    std::deque<uint64_t> order;
    static constexpr size_t kMaxCached = 256;
  };

  /// Counts a reliability event in this channel's scope and on the client
  /// node (where the retry machinery runs).
  void count(obs::Ctr c) {
    channel_counters()->add(c);
    cl_.counters().add(c);
  }

  Handler wrap_handler() {
    auto dedupe = dedupe_;
    Handler user = user_handler_;
    obs::CounterSet* chan = channel_counters();
    obs::CounterSet* node = &sv_.counters();
    sim::Simulator* rsim = &sim_;
    return [dedupe, user, chan, node, rsim](
               View req, std::span<std::byte> area) -> sim::Task<Response> {
      const RpcFrame f = parse_rpc_frame(req);
      const uint64_t seq = f.header.seq;
      // Relaxed per-seq access: concurrent executions of a retried seq are
      // racy by design — whichever finishes first populates the cache and
      // the loser's insert is a harmless overwrite of an equal response.
      rsim->rc_update(dedupe.get(), seq, "ReliableChannel.dedupe", RC_HERE);
      if (auto it = dedupe->cache.find(seq); it != dedupe->cache.end()) {
        chan->add(obs::Ctr::kReplays);
        node->add(obs::Ctr::kReplays);
        // A replay is copied once: into the area when it fits.
        const Buffer& cached = it->second;
        if (cached.size() > area.size()) co_return Buffer(cached);
        copy_bytes(area.data(), cached.data(), cached.size());
        co_return Response::written(cached.size());
      }
      // A fresh reply is written where the user handler puts it (in the
      // area, for a handler that writes in place); the cache keeps a copy.
      Response resp = co_await user(f.payload, area);
      const View bytes = resp.bytes(area);
      dedupe->cache.emplace(seq, Buffer(bytes.begin(), bytes.end()));
      dedupe->order.push_back(seq);
      while (dedupe->order.size() > DedupeState::kMaxCached) {
        dedupe->cache.erase(dedupe->order.front());
        dedupe->order.pop_front();
      }
      co_return resp;
    };
  }

  Buffer frame(View req, uint64_t seq, uint32_t attempt) const {
    Buffer b(kRpcHeaderBytes + req.size());
    put_rpc_header(b.data(),
                   RpcHeader{seq, attempt,
                             static_cast<uint32_t>(req.size())});
    std::copy(req.begin(), req.end(), b.begin() + kRpcHeaderBytes);
    return b;
  }

  /// One attempt, run as its own task so do_call() can abandon it at the
  /// deadline. Owns its framed request; always sets `done`. The inner
  /// call() resolves to a Result; the error arm is re-raised here so the
  /// retry loop can classify it alongside non-transport exceptions.
  static sim::Task<void> invoke(RpcChannel* ch,
                                std::shared_ptr<CallState> state,
                                Buffer framed, uint32_t hint) {
    try {
      CallResult r = co_await ch->call(
          View{framed.data(), framed.size()}, hint);
      if (r)
        state->resp = std::move(*r);
      else
        state->err = std::make_exception_ptr(r.error());
    } catch (...) {
      state->err = std::current_exception();
    }
    state->done.set();
  }

  sim::Task<void> backoff(int attempt, const sim::Time* budget_end) {
    count(obs::Ctr::kBackoffSleeps);
    auto d = policy_.backoff_base.count();
    for (int i = 1; i < attempt && d < policy_.backoff_max.count(); ++i)
      d <<= 1;
    d = std::min(d, policy_.backoff_max.count());
    // Jitter: uniform in [d/2, d).
    int64_t jittered = d / 2 + static_cast<int64_t>(
                                   jitter_.bounded(
                                       static_cast<uint64_t>(d - d / 2)));
    // Never sleep past the call's total budget — the next attempt should
    // get whatever time remains rather than none.
    if (budget_end) {
      int64_t remaining = (*budget_end - sim_.now()).count();
      jittered = std::min(jittered, std::max<int64_t>(remaining, 0));
    }
    co_await sim_.sleep(sim::Duration(jittered));
  }

  /// Retires the current channel and connects a fresh one; degrades to the
  /// eager two-sided path when one-sided access keeps failing. A no-op when
  /// the failing attempt ran on an already-replaced incarnation (its
  /// rebuild is done; aborting again would kill the replacement's traffic).
  void reconnect(RpcErrc why, int attempt, uint64_t at_epoch) {
    if (at_epoch != epoch_) return;
    ++epoch_;
    count(obs::Ctr::kReconnects);
    bool degrade = policy_.fallback_to_eager &&
                   active_kind_ != ProtocolKind::kEagerSendRecv &&
                   (why == RpcErrc::kRemoteAccess || attempt >= 2);
    if (degrade) {
      count(obs::Ctr::kFallbacks);
      active_kind_ = ProtocolKind::kEagerSendRecv;
    }
    ch_->abort();
    // The dead channel's serve loop may still be unwinding inside the
    // simulator; keep the object alive until the channel itself dies.
    graveyard_.push_back(std::move(ch_));
    ch_ = make_channel(active_kind_, cl_, sv_, wrap_handler(), cfg_);
  }

  ProtocolKind kind_;
  ProtocolKind active_kind_;
  verbs::Node& cl_;
  verbs::Node& sv_;
  Handler user_handler_;
  ChannelConfig cfg_;
  RetryPolicy policy_;
  sim::Simulator& sim_;
  sim::Rng jitter_;
  std::shared_ptr<DedupeState> dedupe_;
  std::unique_ptr<RpcChannel> ch_;
  std::vector<std::unique_ptr<RpcChannel>> graveyard_;
  uint64_t next_seq_ = 0;
  uint64_t epoch_ = 0;  // bumped on every rebuild; guards double-reconnect
};

inline std::unique_ptr<ReliableChannel> make_reliable_channel(
    ProtocolKind kind, verbs::Node& client, verbs::Node& server,
    Handler handler, ChannelConfig cfg, RetryPolicy policy = {}) {
  return std::make_unique<ReliableChannel>(kind, client, server,
                                           std::move(handler), cfg, policy);
}

}  // namespace hatrpc::proto
