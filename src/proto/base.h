// Shared scaffolding for protocol implementations: one connected Endpoint
// per side (QP + send/recv CQs + polling discipline), MR accounting, copy
// charging, serve-loop lifecycle, the call window's slots, the Router that
// hands each completion to the call holding its slot, and the server half
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
  /// the rest in release_slot as in-flight calls drain); growing re-releases
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

  verbs::MemoryRegion* alloc_client_mr(size_t n) {
    stats_.client_registered += n;
    return cl_.pd().alloc_mr(n);
  }
  verbs::MemoryRegion* alloc_server_mr(size_t n) {
    stats_.server_registered += n;
    return sv_.pd().alloc_mr(n);
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

  /// The one-slot rule, the only window-dependent choice a protocol makes.
  /// With one slot there is one waiter per side: it polls its own CQs, and
  /// the server runs the handler inline. With more, a Router's drain loop
  /// routes completions by slot tag and each handler runs in a task of its
  /// own (serve_request). Drain loops at window 1 would hold a busy-poll
  /// core between calls (and, on the server, while the handler computes),
  /// over-subscribing a busy server's cores. Every protocol follows it.
  bool one_slot() const { return cfg_.window == 1; }

  /// Whether a slot tag read off the wire names a slot of the window.
  bool in_window(uint32_t slot) const { return slot < cfg_.window; }

  /// The slot tag a windowed eager message carries in front of its payload
  /// (see EagerPipe::send); one slot needs none.
  std::optional<uint32_t> wire_tag(uint32_t slot) const {
    return one_slot() ? std::nullopt : std::optional(slot);
  }

  /// A Router's mailboxes under the one-slot rule: none at one slot.
  uint32_t routed_slots() const { return one_slot() ? 0 : cfg_.window; }

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

  /// Once a drain loop consumes a terminal completion the channel is dead:
  /// calls that acquire a slot after that point fail immediately instead of
  /// waiting for a response that will never be routed.
  void mark_dead(verbs::WcStatus st) {
    if (!dead_) {
      dead_ = true;
      dead_status_ = st;
    }
  }

  // ---- Completion routing -----------------------------------------------

  /// Hands each completion to the call holding its window slot: one mailbox
  /// per slot, filled by a drain loop and emptied by the slot's call (or a
  /// Rendezvous server's slot worker). The wire rule, on every server: a
  /// successful completion that fails a check (slot tag past the window,
  /// length past max_msg, a malformed eager fragment, a frame the slot is
  /// not waiting for) is dropped and its recv reposted (route() drops a tag
  /// past the window). A failed completion ends that side's loops: here in
  /// fail_all().
  template <class Msg>
  class Router {
   public:
    /// A decoded completion: its slot and message, or its failed status.
    struct Routed {
      verbs::WcStatus status = verbs::WcStatus::kSuccess;
      uint32_t slot = 0;
      Msg msg{};
    };

    /// `slots` mailboxes: the window, or routed_slots(). A `server` router's
    /// failure never marks the channel dead: as on RC, the client learns of
    /// it from its own completions.
    Router(ChannelBase& ch, uint32_t slots, bool server = false)
        : ch_(ch), server_(server) {
      for (uint32_t s = 0; s < slots; ++s)
        boxes_.push_back(std::make_unique<sim::Channel<Msg>>(ch.sim_));
    }

    /// Hands `msg` to `slot`'s call; a tag past the window is dropped.
    void route(uint32_t slot, Msg msg) {
      if (slot < boxes_.size()) boxes_[slot]->push(std::move(msg));
    }

    /// Wakes every slot's waiter with nullopt; a client's marks it dead.
    void fail_all(verbs::WcStatus st) {
      if (!server_) ch_.mark_dead(st);
      for (auto& box : boxes_) box->close();
    }

    /// `slot`'s next message, or nullopt once the router failed (dead_status_
    /// says why). An awaiter, so waiting allocates no frame.
    typename sim::Channel<Msg>::Pop next(uint32_t slot) {
      return boxes_[slot]->pop();
    }

    /// The drain loop. Each turn awaits `fetch()` for a batch (a CQ sweep of
    /// up to a window, or one eager-pipe message) and routes what `decode`
    /// makes of each entry in order, until an entry fails.
    template <class Fetch, class Decode>
    sim::Task<void> drain(Fetch fetch, Decode decode) {
      for (;;) {
        auto batch = co_await fetch();
        for (auto& entry : entries(batch)) {
          Routed r = decode(entry);
          if (r.status != verbs::WcStatus::kSuccess) {
            fail_all(r.status);
            co_return;
          }
          route(r.slot, std::move(r.msg));
        }
      }
    }

    /// Drains slot-tagged messages off `pipe` (EagerPipe::send with a slot),
    /// routing each without its tag.
    sim::Task<void> drain(EagerPipe& pipe) {
      return drain([&pipe] { return pipe.recv(); },
                   [&pipe](std::optional<Buffer>& m) -> Routed {
                     if (!m) return {.status = pipe.last_status()};
                     const uint32_t slot = EagerPipe::slot_tag(*m);
                     if (slot != EagerPipe::kNoSlot)
                       m->erase(m->begin(), m->begin() + 4);
                     return {.slot = slot, .msg = std::move(*m)};
                   });
    }

   private:
    static std::span<verbs::Wc> entries(std::vector<verbs::Wc>& b) { return b; }
    template <class One>
    static std::span<One> entries(One& one) { return {&one, 1}; }

    ChannelBase& ch_;
    bool server_;
    std::vector<std::unique_ptr<sim::Channel<Msg>>> boxes_;
  };

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
