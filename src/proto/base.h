// Shared scaffolding for protocol implementations: one connected Endpoint
// per side (QP + send/recv CQs + polling discipline), copy charging,
// serve-loop lifecycle, the call window's slots, the Router that hands each
// completion to the call holding its slot, and the server half
// (serve_request and the wire rule). Each protocol subclass implements
// do_call() and serve().
//
// Software-copy charging policy (kept consistent across protocols so the
// comparison is fair — see DESIGN.md):
//   * eager-style slot staging IS charged on both sides (bounded slots force
//     a user<->slot copy; this is eager's intrinsic cost);
//   * rendezvous / direct / READ-based payload paths are zero-copy (the
//     "user buffer" is the channel's pre-registered payload region). Direct
//     makes that true on the host as well: run_handler hands the handler its
//     slot's response area, and only a Buffer reply is staged into it, a
//     host copy the model does not charge;
//   * server-bypass protocols (Pilaf/FaRM/RFP) charge the server-side copy
//     of the response into the exported region the client READs from;
//   * HERD's SEND response is eager-style and charged like eager.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "proto/channel.h"
#include "proto/eager_pipe.h"
#include "proto/wire.h"
#include "sim/sync.h"

namespace hatrpc::proto {

class ChannelBase : public RpcChannel {
 public:
  ProtocolKind kind() const override { return kind_; }

  void shutdown() override {
    stop_ = true;
    mark_dead(verbs::WcStatus::kWrFlushErr);
    cep_.close();
    sep_.close();
    extra_shutdown();
  }

  // ---- Live reconfiguration (adaptive hints) ----------------------------

  /// The polling discipline is read per CQ wait, so flipping it here takes
  /// effect on the very next wait without disturbing anything in flight.
  void set_poll_modes(sim::PollMode client, sim::PollMode server) override {
    cep_.poll = client;
    sep_.poll = server;
    cfg_.client_poll = client;
    cfg_.server_poll = server;
  }

  /// Bounds the circulating window to `n` slots without reallocating ring
  /// resources. Shrinking withholds free slots synchronously (and catches
  /// the rest in release_slot as in-flight calls end); growing re-releases
  /// withheld slots up to the allocated cfg_.window. Everything here is
  /// synchronous — no awaits — so an in-flight slot is never reconfigured.
  bool resize_window(uint32_t n) override {
    if (n == 0) n = 1;
    if (n > cfg_.window) return false;  // beyond allocation: rebuild needed
    if (cfg_.window == 1) return n == 1;  // one slot cannot shrink
    target_window_ = n;
    while (live_window_ > target_window_) {
      auto s = free_slots_.try_pop();
      if (!s) break;  // the rest are in flight; release_slot withholds them
      withheld_.push_back(*s);
      --live_window_;
    }
    while (live_window_ < target_window_ && !withheld_.empty()) {
      free_slots_.push(withheld_.back());
      withheld_.pop_back();
      ++live_window_;
    }
    return true;
  }

  void abort() override {
    cep_.enter_error();
    sep_.enter_error();
    shutdown();
  }

 protected:
  ChannelBase(ProtocolKind kind, verbs::Node& client, verbs::Node& server,
              Handler handler, ChannelConfig cfg)
      : kind_(kind), cl_(client), sv_(server), handler_(std::move(handler)),
        cfg_(cfg), cost_(client.fabric().cost()),
        sim_(client.fabric().simulator()),
        cep_(verbs::make_endpoint(client, cfg.client_poll)),
        sep_(verbs::make_endpoint(server, cfg.server_poll)),
        free_slots_(client.fabric().simulator()) {
    cep_.qp->numa_local = cfg_.client_numa_local;
    sep_.qp->numa_local = cfg_.server_numa_local;
    verbs::connect(cep_, sep_);
    bind_obs(client.fabric(), client.id());
    cep_.qp->attach_counters(channel_counters());
    sep_.qp->attach_counters(channel_counters());
    // Per-core sharded servers: pin the server-side polling to the shard's
    // core and mirror CQE consumption into the shard's counter scope.
    if (cfg_.server_core >= 0) {
      sep_.scq->bind_core(cfg_.server_core);
      sep_.rcq->bind_core(cfg_.server_core);
    }
    if (cfg_.shard_counters) {
      sep_.scq->attach_shard(cfg_.shard_counters);
      sep_.rcq->attach_shard(cfg_.shard_counters);
    }
    if (cfg_.window == 0) cfg_.window = 1;
    if (cfg_.window > kMaxWindow)
      throw std::length_error("channel window exceeds the slot-tag range");
    for (uint32_t s = 0; s < cfg_.window; ++s) free_slots_.push(s);
    live_window_ = target_window_ = cfg_.window;
  }

  /// Spawns the protocol's server loop(s); called by the factory after the
  /// subclass is fully constructed.
  virtual void start() { sim_.spawn(serve()); }
  virtual sim::Task<void> serve() = 0;
  virtual void extra_shutdown() {}

  /// Runs the user handler on `req`, handing it `area` to write its reply
  /// into (see Handler), wrapped in a virtual-time span when tracing.
  sim::Task<Response> run_handler(View req, std::span<std::byte> area = {}) {
    if (!obs_->tracer.enabled()) co_return co_await handler_(req, area);
    const sim::Time t0 = sim_.now();
    Response resp = co_await handler_(req, area);
    obs_->tracer.complete("handler", "rpc", t0, sim_.now() - t0, sv_.id(),
                          obs_channel_id());
    co_return resp;
  }

  /// The one-slot rule on the server, with no frame of its own: awaiting it
  /// runs a request's server half (a Rendezvous slot worker) inline with one
  /// slot, and with more spawns it in a task of its own.
  sim::Task<void> serve_request(sim::Task<void> work) {
    if (one_slot()) return work;
    sim_.spawn(std::move(work));
    return {};
  }

  /// The server-side copy of a bypass response into its export region
  /// (see policy above).
  sim::Cpu::Compute charge_server_copy(size_t bytes) {
    sv_.counters().add(obs::Ctr::kCopyBytes, bytes);
    channel_counters()->add(obs::Ctr::kCopyBytes, bytes);
    return sv_.cpu().compute(
        cost_.copy_time(bytes, cfg_.server_numa_local));
  }

  // ---- Sliding-window scaffolding ---------------------------------------
  // Every call holds one of cfg_.window slots while it runs; window 1 is the
  // one-slot case. Completions carry the originating call's slot in the top
  // byte of a 32-bit word (an imm, or a ctrl frame's type word; the low 24
  // bits keep the length or type), or in an eager message's 4-byte prefix,
  // so a Router can hand each completion to the call holding its slot.
  static constexpr uint32_t kSlotShift = 24;
  static constexpr uint32_t kLenMask = (1u << kSlotShift) - 1;
  static constexpr uint32_t kMaxWindow = 256;
  static constexpr uint32_t slot_imm(uint32_t slot, uint32_t len) {
    return (slot << kSlotShift) | len;
  }
  static constexpr uint32_t imm_slot(uint32_t imm) {
    return imm >> kSlotShift;
  }
  static constexpr uint32_t imm_len(uint32_t imm) { return imm & kLenMask; }

  /// The one-slot rule. At every window a call takes its completions from
  /// a Router, so no task polls for an idle caller (one would hold a
  /// busy-poll core between calls). One slot needs no slot tag on the wire,
  /// so it shapes only the wire format, the server's concurrency
  /// (serve_request) and the bypass server loops' poll shape.
  bool one_slot() const { return cfg_.window == 1; }

  /// Whether a slot tag read off the wire names a slot of the window.
  bool in_window(uint32_t slot) const { return slot < cfg_.window; }

  /// The slot tag a windowed eager message carries in front of its payload
  /// (see EagerPipe::send); one slot needs none.
  std::optional<uint32_t> wire_tag(uint32_t slot) const {
    return one_slot() ? std::nullopt : std::optional(slot);
  }

  /// Awaits a slot from the pool. The pool is never closed; a closed one
  /// fails the call.
  class SlotWait {
   public:
    explicit SlotWait(sim::Channel<uint32_t>& pool) : pop_(pool) {}
    bool await_ready() const noexcept { return pop_.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { pop_.await_suspend(h); }
    uint32_t await_resume() {
      std::optional<uint32_t> s = pop_.await_resume();
      if (!s)
        throw RpcError(RpcErrc::kChannelClosed, "window slot pool closed");
      return *s;
    }

   private:
    sim::Channel<uint32_t>::Pop pop_;
  };

  /// Claims a window slot, blocking (and counting a window_stall) while all
  /// cfg_.window slots are in flight. Callers get slots in the order they
  /// asked, and a free slot is taken without a frame.
  SlotWait acquire_slot() {
    if (free_slots_.free_count() == 0) {
      cl_.counters().add(obs::Ctr::kWindowStalls);
      channel_counters()->add(obs::Ctr::kWindowStalls);
      if (cfg_.shard_counters)
        cfg_.shard_counters->add(obs::Ctr::kWindowStalls);
    }
    return SlotWait(free_slots_);
  }

  /// Returns a held window slot to the pool when the call holding it ends,
  /// whichever way it ends.
  class SlotGuard {
   public:
    SlotGuard(ChannelBase& ch, uint32_t slot) : ch_(ch), slot_(slot) {}
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;
    ~SlotGuard() { ch_.release_slot(slot_); }

   private:
    ChannelBase& ch_;
    uint32_t slot_;
  };

  void release_slot(uint32_t s) {
    // A live shrink withholds slots as their calls come home instead of
    // recirculating them (resize_window above).
    if (live_window_ > target_window_) {
      withheld_.push_back(s);
      --live_window_;
      return;
    }
    free_slots_.push(s);
  }

  /// Once the channel is shut down, or a router that marks_dead takes a
  /// failed completion, calls that acquire a slot fail immediately.
  void mark_dead(verbs::WcStatus st) {
    if (!dead_) {
      dead_ = true;
      dead_status_ = st;
    }
  }

  // ---- Completion routing -----------------------------------------------

  /// Hands each completion of one CQ (or eager pipe) to the call holding
  /// its slot, with no task of its own: the waiting calls take turns to
  /// poll. A call (or a Rendezvous server's slot worker) waits with
  ///
  ///   while (co_await mail.turn(slot)) mail.sweep(co_await fetch, decode);
  ///   Routed r = mail.take(slot);
  ///
  /// turn() resumes false once the slot's mailbox is ready; otherwise, when
  /// no one else polls, true: the call leads, fetching a batch and routing
  /// each entry to its slot's mailbox, its own included. A leader leaves
  /// once its mailbox is ready, handing the lead to the oldest parked
  /// waiter at the same instant. With one slot the caller always leads. The
  /// wire rule, on every side: a successful completion that fails a check
  /// (slot tag past the window, length past max_msg, a rejected eager
  /// fragment, a frame the slot is not waiting for) is dropped, its recv
  /// reposted, and the wait goes on.
  template <class Msg>
  class Router {
   public:
    /// A decoded completion: its slot and message, or its failed status.
    struct Routed {
      verbs::WcStatus status = verbs::WcStatus::kSuccess;
      uint32_t slot = 0;
      Msg msg{};
    };

    /// One mailbox per window slot. A router that `marks_dead` (Direct's
    /// client) marks the channel dead on a failed completion. With the
    /// others a later call polls again, as a lone caller always has.
    explicit Router(ChannelBase& ch, bool marks_dead = false)
        : ch_(ch), marks_dead_(marks_dead) {
      for (uint32_t s = 0; s < ch.cfg_.window; ++s)
        boxes_.push_back(std::make_unique<Box>(ch.sim_));
    }

    /// An awaiter, so waiting adds no frame. A parked waiter wakes when its
    /// mailbox fills or the lead is handed to it.
    class Turn {
     public:
      Turn(Router& r, uint32_t slot) : r_(r), slot_(slot) {}
      bool await_ready() const noexcept {
        return r_.ready(slot_) || r_.leader_ == kNone || r_.leader_ == slot_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        Box& b = *r_.boxes_[slot_];
        b.ticket = ++r_.tickets_;
        ++r_.parked_;
        b.waiter.await_suspend(h);
      }
      bool await_resume() {
        if (!r_.ready(slot_)) {
          r_.leader_ = slot_;
          return true;
        }
        if (r_.leader_ == slot_) r_.resign();
        return false;
      }

     private:
      Router& r_;
      uint32_t slot_;
    };

    Turn turn(uint32_t slot) { return Turn(*this, slot); }

    /// Routes what `decode` makes of each entry of a fetched batch, in
    /// order. A failed entry fails the leader and every parked waiter that
    /// has no message yet, and ends the sweep.
    template <class Batch, class Decode>
    void sweep(Batch&& batch, Decode decode) {
      for (auto& entry : entries(batch)) {
        Routed r = decode(entry);
        if (r.status != verbs::WcStatus::kSuccess) {
          if (marks_dead_) ch_.mark_dead(r.status);
          for (uint32_t s = 0; s < boxes_.size(); ++s)
            if (boxes_[s]->msgs.empty() && (s == leader_ || boxes_[s]->ticket))
              route(s, r);
          return;
        }
        if (r.slot < boxes_.size()) route(r.slot, std::move(r));
      }
    }

    /// Once turn() resumed false: `slot`'s next message, or the failure
    /// that ended its wait.
    Routed take(uint32_t slot) {
      Box& b = *boxes_[slot];
      ch_.sim_.rc_sync_acquire(&b);
      Routed r = std::move(b.msgs.front());
      b.msgs.erase(b.msgs.begin());
      return r;
    }

   private:
    static constexpr uint32_t kNone = UINT32_MAX;

    struct Box {
      explicit Box(sim::Simulator& sim) : q(sim), waiter(q) {}
      sim::WaitQueue q;
      sim::WaitQueue::Waiter waiter;  // a slot has one waiter at a time
      std::vector<Routed> msgs;
      uint64_t ticket = 0;  // nonzero while parked: the lead's hand-off order
    };

    bool ready(uint32_t s) const { return !boxes_[s]->msgs.empty(); }

    void route(uint32_t slot, Routed r) {
      Box& b = *boxes_[slot];
      ch_.sim_.rc_sync_release(&b);
      b.msgs.push_back(std::move(r));
      wake(b);
    }

    void wake(Box& b) {
      if (b.ticket == 0) return;
      b.ticket = 0;
      --parked_;
      b.q.notify_one();
    }

    /// The leader leaves; the oldest parked waiter leads next.
    void resign() {
      leader_ = kNone;
      if (parked_ == 0) return;
      for (uint32_t s = 0; s < boxes_.size(); ++s) {
        const uint64_t t = boxes_[s]->ticket;
        if (t != 0 && (leader_ == kNone || t < boxes_[leader_]->ticket))
          leader_ = s;
      }
      wake(*boxes_[leader_]);
    }

    static std::span<verbs::Wc> entries(std::vector<verbs::Wc>& b) { return b; }
    static std::span<verbs::Wc> entries(std::span<verbs::Wc> b) { return b; }
    template <class One>
    static std::span<One> entries(One& one) { return {&one, 1}; }

    ChannelBase& ch_;
    bool marks_dead_;
    std::vector<std::unique_ptr<Box>> boxes_;
    uint32_t leader_ = kNone;  // the slot polling, if any
    uint32_t parked_ = 0;
    uint64_t tickets_ = 0;
  };

  /// Decodes one message off an eager pipe: its slot tag (none with one
  /// slot) read and stripped. A fragment the pipe rejected is dropped
  /// (kNoSlot names no slot of a window), and the wait goes on; any other
  /// failure is the completion's.
  Router<Buffer>::Routed untag(const EagerPipe& pipe,
                               std::optional<Buffer>& m) const {
    if (!m && pipe.last_status() == verbs::WcStatus::kLocLenErr)
      return {.slot = EagerPipe::kNoSlot};
    if (!m) return {.status = pipe.last_status()};
    if (one_slot()) return {.msg = std::move(*m)};
    const uint32_t slot = EagerPipe::slot_tag(*m);
    if (slot != EagerPipe::kNoSlot) m->erase(m->begin(), m->begin() + 4);
    return {.slot = slot, .msg = std::move(*m)};
  }

  ProtocolKind kind_;
  verbs::Node& cl_;
  verbs::Node& sv_;
  Handler handler_;
  ChannelConfig cfg_;
  const verbs::CostModel& cost_;
  sim::Simulator& sim_;
  verbs::Endpoint cep_;  // client side
  verbs::Endpoint sep_;  // server side
  sim::Channel<uint32_t> free_slots_;
  uint32_t live_window_ = 1;    // slots circulating (free or in flight)
  uint32_t target_window_ = 1;  // live bound set by resize_window
  std::vector<uint32_t> withheld_;  // parked slots awaiting a re-grow
  bool stop_ = false;
  bool dead_ = false;
  verbs::WcStatus dead_status_ = verbs::WcStatus::kWrFlushErr;

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);
};

}  // namespace hatrpc::proto
