// Uniform RPC-channel interface implemented by every RDMA protocol of the
// paper's Figure 3 (plus the comparator emulations of §5.4). A channel is
// one client<->server connection: call() carries one request and returns
// the response; the server side runs a serve loop invoking a user handler.
//
// Channels are REAL: request/response bytes move through registered memory
// via the simulated verbs layer, and every protocol-specific cost (copies,
// doorbells, control messages, memory polling) is charged where it occurs.
//
// API shape: call() is a non-virtual wrapper that owns the cross-cutting
// concerns (failure accounting, virtual-time spans) and folds transport
// failures into Result<Buffer, RpcError>; protocols implement the protected
// do_call() and throw RpcError. Construction goes through make_channel() —
// the concrete protocol classes are not constructible directly.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "proto/error.h"
#include "proto/lease.h"
#include "proto/result.h"
#include "sim/rc_annotate.h"
#include "sim/task.h"
#include "verbs/verbs.h"

namespace hatrpc::proto {

/// What a call resolves to: the response bytes, or the typed transport
/// error the reliability layer keys retries off.
using CallResult = Result<Buffer, RpcError>;

/// A handler's reply: `n` bytes it wrote at the start of the response area
/// its channel handed it, or a buffer of its own (a reply that does not fit
/// the area, or a handler that builds its reply elsewhere).
class Response {
 public:
  /// An owned reply. Implicit, so a handler can `co_return` its Buffer.
  Response(Buffer owned) : owned_(std::move(owned)) {}
  /// `n` reply bytes written in place at the start of the area.
  static Response written(size_t n) {
    Response r{Buffer{}};
    r.written_ = n;
    return r;
  }

  bool in_area() const { return written_ != kOwned; }
  size_t size() const { return in_area() ? written_ : owned_.size(); }
  /// The reply bytes, given the area the handler was handed.
  View bytes(std::span<const std::byte> area) const {
    if (!in_area()) return owned_;
    if (written_ > area.size())
      throw std::logic_error("handler reply overruns its response area");
    return area.first(written_);
  }
  /// The reply as a Buffer: the owned one moved out, or a copy of the area.
  Buffer take(std::span<const std::byte> area = {}) && {
    if (!in_area()) return std::move(owned_);
    const View b = bytes(area);
    return Buffer(b.begin(), b.end());
  }

 private:
  static constexpr size_t kOwned = SIZE_MAX;
  Buffer owned_;
  size_t written_ = kOwned;
};

/// Server-side request processor. Runs on the server node; implementations
/// charge their own compute via the node's Cpu. Either shape converts:
///   * Task<Buffer>(View req): the reply in a buffer of the handler's own;
///   * Task<Response>(View req, std::span<std::byte> area): the handler may
///     serialize its reply straight into `area`, the registered memory its
///     channel posts the reply from, and answer Response::written(n), or
///     answer an owned Buffer when the reply does not fit. Only the Direct
///     protocols hand out an area; elsewhere it is empty. The area is the
///     served request's alone while its handler runs, and a handler must
///     not touch it after returning.
class Handler {
 public:
  using BufferFn = std::function<sim::Task<Buffer>(View)>;
  using AreaFn =
      std::function<sim::Task<Response>(View, std::span<std::byte>)>;

  // Implicit, so a lambda of either shape converts where a Handler is taken.
  Handler() = default;
  template <class F>
    requires std::is_invocable_r_v<sim::Task<Buffer>, F&, View>
  Handler(F f) : buffer_fn_(std::move(f)) {}
  template <class F>
    requires std::is_invocable_r_v<sim::Task<Response>, F&, View,
                                   std::span<std::byte>>
  Handler(F f) : area_fn_(std::move(f)) {}

  explicit operator bool() const {
    return static_cast<bool>(area_fn_) || static_cast<bool>(buffer_fn_);
  }

  /// One handler run, awaited in the caller's own frame: a Buffer handler's
  /// task is awaited directly and its reply moved into the Response.
  class [[nodiscard]] Run {
   public:
    explicit Run(sim::Task<Buffer> t) : owned_(std::move(t)) {}
    explicit Run(sim::Task<Response> t) : placed_(std::move(t)) {}
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
      return placed_.valid()
                 ? std::move(placed_).operator co_await().await_suspend(cont)
                 : std::move(owned_).operator co_await().await_suspend(cont);
    }
    Response await_resume() {
      if (placed_.valid())
        return std::move(placed_).operator co_await().await_resume();
      return Response(std::move(owned_).operator co_await().await_resume());
    }

   private:
    sim::Task<Buffer> owned_;
    sim::Task<Response> placed_;
  };

  /// Serves `req`; `area` may be empty. `co_await` it for the Response.
  Run operator()(View req, std::span<std::byte> area) const {
    if (area_fn_) return Run(area_fn_(req, area));
    return Run(buffer_fn_(req));
  }

 private:
  BufferFn buffer_fn_;
  AreaFn area_fn_;
};

/// The protocols of Fig. 3 plus the baseline/comparator emulations.
enum class ProtocolKind : uint8_t {
  kEagerSendRecv,    // Fig 3a
  kDirectWriteSend,  // Fig 3b
  kChainedWriteSend, // Fig 3c
  kWriteRndv,        // Fig 3d
  kReadRndv,         // Fig 3e
  kDirectWriteImm,   // Fig 3f
  kPilaf,            // Fig 3g: 2 metadata READs + 1 payload READ
  kFarm,             // Fig 3h: 1 metadata READ + 1 payload READ
  kRfp,              // Fig 3i: WRITE request, READ response
  kHerd,             // comparator: WRITE request, SEND response
  kHybridEagerRndv,  // baseline: eager <=4KB, Write-RNDV above
  kArGrpc,           // comparator: eager <=4KB, Read-RNDV above
};

std::string_view to_string(ProtocolKind k);

/// The pre-known-buffer protocols of Figs. 3b/3c/3f (proto/direct.h).
constexpr bool is_direct(ProtocolKind k) {
  return k == ProtocolKind::kDirectWriteSend ||
         k == ProtocolKind::kChainedWriteSend ||
         k == ProtocolKind::kDirectWriteImm;
}

struct ChannelConfig {
  sim::PollMode client_poll = sim::PollMode::kBusy;
  sim::PollMode server_poll = sim::PollMode::kBusy;
  /// Size of the pre-known per-connection message buffers used by the
  /// Direct-*/server-bypass protocols (and the rendezvous buffer pool).
  uint32_t max_msg = 256 << 10;
  /// Hybrid protocols switch from eager to rendezvous above this.
  uint32_t rndv_threshold = 4096;
  /// Sliding window: how many calls may be in flight on the channel at
  /// once. Every protocol allocates `window` slots of its per-connection
  /// rings; call() blocks (and counts a window_stall) when all slots are
  /// busy. window=1 is the one-outstanding-call channel, on which
  /// concurrent callers take turns.
  uint32_t window = 1;
  /// When set, the server side of recv-consuming protocols (Direct-WriteIMM
  /// and event-polled bypass) attaches its QP to this shared receive queue
  /// instead of posting per-connection recvs. Owned by the caller
  /// (typically thrift::TServerRdma), which also replenishes it.
  verbs::SharedReceiveQueue* server_srq = nullptr;
  /// NUMA placement of the driving threads relative to their NICs.
  bool client_numa_local = true;
  bool server_numa_local = true;
  /// Per-core sharded servers: when >= 0, the server endpoint's CQs charge
  /// their polling costs to this core, and busy waits skip the per-wait
  /// spinner registration (the owning shard registers ONE persistent
  /// polling thread via Cpu::pin_spinner that every connection on the
  /// shard multiplexes onto). -1 keeps the legacy floating behaviour.
  int server_core = -1;
  /// Shard-scope counter set owned by the steering server; the channel
  /// mirrors shard-attributable events into it (CQE polls via the server
  /// CQs, window stalls). Null = not sharded.
  obs::CounterSet* shard_counters = nullptr;

  // Chainable named setters, so configurations read as a sentence:
  //   ChannelConfig{}.with_poll(kEvent).with_max_msg(64 << 10)
  ChannelConfig& with_client_poll(sim::PollMode m) {
    client_poll = m;
    return *this;
  }
  ChannelConfig& with_server_poll(sim::PollMode m) {
    server_poll = m;
    return *this;
  }
  ChannelConfig& with_poll(sim::PollMode m) {
    client_poll = m;
    server_poll = m;
    return *this;
  }
  ChannelConfig& with_max_msg(uint32_t bytes) {
    max_msg = bytes;
    return *this;
  }
  ChannelConfig& with_window(uint32_t n) {
    window = n == 0 ? 1 : n;
    return *this;
  }
  ChannelConfig& with_server_srq(verbs::SharedReceiveQueue* srq) {
    server_srq = srq;
    return *this;
  }
  ChannelConfig& with_server_core(int core) {
    server_core = core;
    return *this;
  }
  ChannelConfig& with_shard_counters(obs::CounterSet* shard) {
    shard_counters = shard;
    return *this;
  }
  ChannelConfig& with_numa(bool client_local, bool server_local) {
    client_numa_local = client_local;
    server_numa_local = server_local;
    return *this;
  }
};

using LeasedResult = Result<LeasedReply, RpcError>;

class RpcChannel {
 public:
  virtual ~RpcChannel() = default;

  /// Issues one RPC: sends `req`, resolves to the server handler's response
  /// or the RpcError that ended the attempt. `resp_size_hint` bounds the
  /// expected response (protocols that fetch the response with RDMA READ
  /// size their read from it; 0 = max_msg). Non-transport failures
  /// (handler exceptions, oversized messages) propagate as exceptions.
  sim::Task<CallResult> call(View req, uint32_t resp_size_hint = 0);

  /// Like call(), but the response may be lent from the channel's response
  /// slot (the Direct protocols). Other protocols fall back to call()
  /// semantics with an owned buffer.
  sim::Task<LeasedResult> call_leased(View req, uint32_t resp_size_hint = 0);

  /// Lends one of the channel's registered send blocks for the next
  /// request, or an empty lease when the channel has none free (or stages
  /// every request anyway). A request that call() finds inside a lent block
  /// is posted from there without a staging copy.
  virtual SendBlock lease_send_block() { return {}; }

  /// Stops the server-side serve loop(s) so the simulation can run dry.
  virtual void shutdown() = 0;

  /// Hard teardown: shutdown() plus transitioning the underlying QPs into
  /// the error state so in-flight NIC work flushes instead of lingering.
  /// Used by the reliability layer before abandoning a timed-out channel.
  virtual void abort() { shutdown(); }

  virtual ProtocolKind kind() const = 0;

  // ---- Live reconfiguration (adaptive hints) ----------------------------
  // The adaptive controller re-selects polling and window online; protocol
  // changes need a channel rebuild (epoch swap). Defaults are conservative
  // no-ops so non-reconfigurable channels simply report "rebuild me".

  /// Switches the polling discipline each side uses from the next CQ wait
  /// on. Takes effect immediately and never touches in-flight calls (the
  /// discipline is consumed per wait).
  virtual void set_poll_modes(sim::PollMode /*client*/,
                              sim::PollMode /*server*/) {}

  /// Bounds the number of in-flight calls to `n` without reallocating:
  /// shrinking withholds free slots as they come home (in-flight calls
  /// finish untouched), growing re-releases withheld ones. Returns false if
  /// `n` exceeds what the channel allocated — that needs an epoch swap.
  virtual bool resize_window(uint32_t /*n*/) { return false; }

  /// This channel's counter scope (null when unbound). Lets the adaptive
  /// layer read window_stalls and copy deltas without friending obs.
  virtual const obs::CounterSet* counters() const {
    return obs_ ? &obs_->counters.channel(obs_id_) : nullptr;
  }

 protected:
  /// Protocol-specific call body. Throws RpcError for transport failures
  /// (the call() wrapper folds those into the Result).
  virtual sim::Task<Buffer> do_call(View req, uint32_t resp_size_hint) = 0;

  /// Protocol-specific leased-call body; the default materializes through
  /// do_call. Overrides lend the response in place.
  virtual sim::Task<LeasedReply> do_call_leased(View req,
                                                uint32_t resp_size_hint) {
    co_return LeasedReply(co_await do_call(req, resp_size_hint));
  }

  /// Hooks this channel into the fabric's observability layer: allocates a
  /// channel-scoped counter set and remembers the client node id as the
  /// trace pid. Every protocol and wrapper constructor calls it once, except
  /// hint::AdaptiveChannel's: that wrapper stays unbound so a frozen run
  /// registers the same channel scopes as its static twin, and its calls
  /// count and trace only in the inner channel they ride.
  void bind_obs(verbs::Fabric& fabric, uint32_t client_node_id) {
    obs_ = &fabric.obs();
    sim_clock_ = &fabric.simulator();
    obs_id_ = obs_->counters.register_channel();
    obs_pid_ = client_node_id;
  }
  obs::CounterSet* channel_counters() {
    return obs_ ? &obs_->counters.channel(obs_id_) : nullptr;
  }
  uint32_t obs_channel_id() const { return obs_id_; }
  uint32_t obs_pid() const { return obs_pid_; }

  /// Bookkeeping shared by call() and call_leased(), kept in plain
  /// functions so neither coroutine pays an extra frame. begin_call returns
  /// the span start (empty when tracing is off).
  std::optional<sim::Time> begin_call() {
    if (!obs_ || !obs_->tracer.enabled()) return std::nullopt;
    return sim_clock_->now();
  }
  /// Counts a failed call and closes the call/ or call-failed/ span.
  void end_call(std::optional<sim::Time> t0, bool failed) {
    if (failed && obs_) {
      obs_->counters.channel(obs_id_).add(obs::Ctr::kFailedCalls);
      if (counts_node_failures_)
        obs_->counters.node(obs_pid_).add(obs::Ctr::kFailedCalls);
    }
    if (t0)
      obs_->tracer.complete(
          (failed ? "call-failed/" : "call/") + std::string(to_string(kind())),
          "rpc", *t0, sim_clock_->now() - *t0, obs_pid_, obs_id_);
  }

  /// False on a channel that forwards each call to an inner channel of its
  /// own, which already counts the failure on the node.
  bool counts_node_failures_ = true;
  obs::Obs* obs_ = nullptr;
  sim::Simulator* sim_clock_ = nullptr;
  uint32_t obs_id_ = 0;
  uint32_t obs_pid_ = 0;
};

inline sim::Task<CallResult> RpcChannel::call(View req,
                                              uint32_t resp_size_hint) {
  const std::optional<sim::Time> t0 = begin_call();
  try {
    Buffer resp = co_await do_call(req, resp_size_hint);
    end_call(t0, false);
    co_return CallResult(std::move(resp));
  } catch (const RpcError& e) {
    end_call(t0, true);
    co_return CallResult(e);
  }
}

inline sim::Task<LeasedResult> RpcChannel::call_leased(
    View req, uint32_t resp_size_hint) {
  const std::optional<sim::Time> t0 = begin_call();
  try {
    LeasedReply resp = co_await do_call_leased(req, resp_size_hint);
    end_call(t0, false);
    co_return LeasedResult(std::move(resp));
  } catch (const RpcError& e) {
    end_call(t0, true);
    co_return LeasedResult(e);
  }
}

/// Creates a connected channel of the given protocol between two nodes and
/// spawns its server loop with `handler`. The returned channel is ready for
/// call() from a client-side task. This is the single construction entry
/// point for protocol channels (their constructors are private).
std::unique_ptr<RpcChannel> make_channel(ProtocolKind kind,
                                         verbs::Node& client,
                                         verbs::Node& server, Handler handler,
                                         ChannelConfig cfg);

/// Convenience helpers for moving bytes in and out of Buffers.
inline Buffer to_buffer(std::string_view s) {
  auto p = reinterpret_cast<const std::byte*>(s.data());
  return Buffer(p, p + s.size());
}
inline std::string_view as_string(View b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace hatrpc::proto
