// The TRdma bridge layer of paper §4.3 (Fig. 9): TRdma / TServerRdma are
// the RDMA counterparts of TSocket / TServerSocket, keeping the same
// programming model (write -> flush -> read) so Thrift's generated code and
// runtime can drive either transport unchanged. A TRdmaEndPoint wraps one
// protocol channel of the underlying RDMA engine; TRdmaTransport performs
// the connection "handshake" (channel creation = QP/MR setup + exchange).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "hint/adaptive.h"
#include "proto/buffer_pool.h"
#include "proto/channel.h"
#include "thrift/protocol.h"
#include "thrift/transport.h"

namespace hatrpc::thrift {

/// The per-function plan cache of paper §4.3 ("caching the RPC function
/// type"), made invalidation-aware for adaptive hints: every published
/// plan carries an epoch that bumps when the plan CHANGES. Clients stamp
/// the epoch they resolved; when a runtime controller republishes a
/// re-selected plan, stamped snapshots go stale and the next flush()
/// re-resolves instead of trusting a dead plan.
class PlanCache {
 public:
  struct Snapshot {
    hint::Plan plan;
    uint64_t epoch = 0;
  };

  /// Opts the cache into race checking (per-function kUpdate accesses:
  /// publish-vs-resolve ordering is racy BY DESIGN — that is what the
  /// epoch validation in fresh() exists for).
  void bind_racecheck(sim::Simulator* sim) { rc_sim_ = sim; }

  /// Publishes `plan` for `fn`. Idempotent: the epoch bumps only when the
  /// plan actually differs from the cached one. Returns the entry's epoch.
  uint64_t publish(const std::string& fn, const hint::Plan& plan) {
    rc_touch(fn);
    Entry& e = map_[fn];
    if (e.epoch == 0 || !(e.plan == plan)) {
      e.plan = plan;
      ++e.epoch;
    }
    return e.epoch;
  }

  /// Current snapshot for `fn`; nullopt when never published.
  std::optional<Snapshot> resolve(const std::string& fn) const {
    rc_touch(fn);
    auto it = map_.find(fn);
    if (it == map_.end()) return std::nullopt;
    return Snapshot{it->second.plan, it->second.epoch};
  }

  /// Epoch validation: is a snapshot stamped `epoch` still current?
  bool fresh(const std::string& fn, uint64_t epoch) const {
    rc_touch(fn);
    auto it = map_.find(fn);
    return it != map_.end() && it->second.epoch == epoch;
  }

  size_t size() const { return map_.size(); }

 private:
  struct Entry {
    hint::Plan plan;
    uint64_t epoch = 0;
  };

  void rc_touch(const std::string& fn) const {
    if (rc_sim_)
      rc_sim_->rc_update(this, std::hash<std::string>{}(fn),
                         "PlanCache.entry", RC_HERE);
  }

  std::map<std::string, Entry> map_;  // ordered: deterministic iteration
  sim::Simulator* rc_sim_ = nullptr;
};

/// Interface point between the Thrift layer and the RDMA engine: one
/// established protocol channel.
class TRdmaEndPoint {
 public:
  explicit TRdmaEndPoint(std::unique_ptr<proto::RpcChannel> ch)
      : channel_(std::move(ch)) {}

  proto::RpcChannel& channel() { return *channel_; }
  void shutdown() { channel_->shutdown(); }

 private:
  std::unique_ptr<proto::RpcChannel> channel_;
};

/// Client-side RDMA transport with TSocket-compatible buffer semantics:
/// write() appends to an outbound buffer, flush() performs the RPC, read()
/// consumes the response. (This is exactly how Thrift's generated client
/// stubs drive a transport.)
class TRdma final : public MessageTransport {
 public:
  explicit TRdma(TRdmaEndPoint& ep) : ep_(ep) {}

  /// Expected response size for the next flush (function-level payload
  /// hints plumb through here, paper §4.3 "dynamic hints").
  void set_response_size_hint(uint32_t bytes) { resp_hint_ = bytes; }

  /// Binds the transport to `fn`'s cached plan: each flush() validates its
  /// stamped epoch against the cache and — on a miss (the controller
  /// republished a re-selected plan) — re-resolves, re-stamping the
  /// response-size hint from the fresh plan. The client half of the §4.3
  /// plan-cache invalidation protocol.
  void bind_plan(PlanCache& cache, std::string fn) {
    plan_cache_ = &cache;
    plan_fn_ = std::move(fn);
    plan_epoch_ = 0;
  }
  /// How many times the bound plan went stale and was re-resolved.
  uint64_t plan_refreshes() const { return plan_refreshes_; }

  void write(View data) { out_.insert(out_.end(), data.begin(), data.end()); }

  /// Sends the buffered request through the RDMA engine and latches the
  /// response for read(). Transport failures surface as RpcError (the
  /// Result's error arm re-raised), matching TSocket's exception shape.
  sim::Task<void> flush() {
    refresh_plan();
    const Buffer req = std::move(out_);
    out_.clear();
    proto::CallResult r = co_await ep_.channel().call(req, resp_hint_);
    in_ = std::move(r).value();
    rpos_ = 0;
  }

  sim::Task<size_t> read(std::byte* p, size_t max) {
    size_t n = std::min(max, in_.size() - rpos_);
    std::memcpy(p, in_.data() + rpos_, n);
    rpos_ += n;
    co_return n;
  }

  // MessageTransport view (whole-message granularity).
  sim::Task<void> send(View msg) override {
    write(msg);
    co_await flush();
  }
  sim::Task<std::optional<Buffer>> recv() override {
    Buffer b(in_.begin() + static_cast<ptrdiff_t>(rpos_), in_.end());
    rpos_ = in_.size();
    co_return b;
  }
  void close() override { ep_.shutdown(); }

 private:
  void refresh_plan() {
    if (!plan_cache_ || plan_cache_->fresh(plan_fn_, plan_epoch_)) return;
    if (auto s = plan_cache_->resolve(plan_fn_)) {
      plan_epoch_ = s->epoch;
      if (s->plan.expected_payload > 0)
        resp_hint_ = s->plan.expected_payload;
      ++plan_refreshes_;
    }
  }

  TRdmaEndPoint& ep_;
  Buffer out_;
  Buffer in_;
  size_t rpos_ = 0;
  uint32_t resp_hint_ = 0;
  PlanCache* plan_cache_ = nullptr;
  std::string plan_fn_;
  uint64_t plan_epoch_ = 0;
  uint64_t plan_refreshes_ = 0;
};

/// TRdmaTransport — the connection-establishment half of the bridge layer
/// (paper §4.3: "a class that is responsible for RDMA handshaking. Upon
/// connection establishment, a TRdmaEndPoint is created"). Mirrors the
/// standard RDMA-CM deployment pattern: an out-of-band TCP exchange carries
/// the connect request (protocol kind, channel geometry, static hints) and
/// the accept reply, after which the verbs resources (QPs, CQs, registered
/// buffers) exist on both sides and the endpoint is live. The handshake
/// costs real simulated time (TCP connect + one request/reply round trip).
class TRdmaTransport {
 public:
  TRdmaTransport(SocketNet& net, verbs::Node& server, uint16_t port,
                 proto::Handler processor)
      : net_(net), server_(server), processor_(std::move(processor)) {
    listener_ = net_.listen(server_, port);
    port_ = port;
    net_.simulator().spawn(accept_loop());
  }

  /// Client side: performs the handshake and returns the live endpoint.
  sim::Task<TRdmaEndPoint*> connect(verbs::Node& client,
                                    proto::ProtocolKind kind,
                                    proto::ChannelConfig cfg) {
    SimSocket* sock = co_await net_.connect(client, server_, port_);
    TFramedTransport framed(sock);
    // ConnectRequest: protocol kind + the geometry the static hints chose.
    TMemoryBuffer req;
    TBinaryProtocol p(req);
    p.writeByte(static_cast<int8_t>(kind));
    p.writeI32(static_cast<int32_t>(client.id()));
    p.writeI32(static_cast<int32_t>(cfg.max_msg));
    p.writeI32(static_cast<int32_t>(cfg.eager_slots));
    p.writeI32(static_cast<int32_t>(cfg.window));
    p.writeByte(cfg.client_poll == sim::PollMode::kBusy ? 1 : 0);
    p.writeByte(cfg.server_poll == sim::PollMode::kBusy ? 1 : 0);
    co_await framed.send(req.view());
    // AcceptReply carries the endpoint id (stand-in for the QP number /
    // rkey blob a real reply would carry).
    auto reply = co_await framed.recv();
    if (!reply)
      throw TTransportException(TTransportException::Kind::kEndOfFile,
                                "rdma handshake rejected");
    TMemoryBuffer rb = TMemoryBuffer::wrap(*reply);
    TBinaryProtocol rp(rb);
    int32_t ep_index = rp.readI32();
    sock->close();
    co_return endpoints_.at(static_cast<size_t>(ep_index)).get();
  }

  void stop() {
    listener_->close();
    for (auto& ep : endpoints_) ep->shutdown();
  }

  size_t connections() const { return endpoints_.size(); }

 private:
  sim::Task<void> accept_loop() {
    while (SimSocket* sock = co_await listener_->accept()) {
      TFramedTransport framed(sock);
      auto req = co_await framed.recv();
      if (!req) continue;
      TMemoryBuffer rb = TMemoryBuffer::wrap(*req);
      TBinaryProtocol rp(rb);
      auto kind = static_cast<proto::ProtocolKind>(rp.readByte());
      auto client_id = static_cast<uint32_t>(rp.readI32());
      proto::ChannelConfig cfg;
      cfg.max_msg = static_cast<uint32_t>(rp.readI32());
      cfg.eager_slots = static_cast<uint32_t>(rp.readI32());
      cfg.window = static_cast<uint32_t>(rp.readI32());
      cfg.client_poll = rp.readByte() ? sim::PollMode::kBusy
                                      : sim::PollMode::kEvent;
      cfg.server_poll = rp.readByte() ? sim::PollMode::kBusy
                                      : sim::PollMode::kEvent;
      // Create the verbs resources on both ends (QP exchange + buffer
      // registration) and reply with the endpoint handle.
      verbs::Node& client = *server_.fabric().node(client_id);
      endpoints_.push_back(std::make_unique<TRdmaEndPoint>(
          proto::make_channel(kind, client, server_, processor_, cfg)));
      TMemoryBuffer reply;
      TBinaryProtocol wp(reply);
      wp.writeI32(static_cast<int32_t>(endpoints_.size() - 1));
      co_await framed.send(reply.view());
    }
  }

  SocketNet& net_;
  verbs::Node& server_;
  proto::Handler processor_;
  Listener* listener_ = nullptr;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<TRdmaEndPoint>> endpoints_;
};

/// Server-side counterpart of TServerSocket: the RDMA engine delivers each
/// request to the processor registered at channel-creation time, so
/// TServerRdma is the factory/owner of endpoints on the server node.
///
/// The server is split into Options::shards per-core shards, each owning
/// an independent polling context that never contends with its siblings:
/// a private SRQ (its own pre-posted recv pool), a private slab of pooled
/// buffers, a private counter scope (shard_accepts, shard_polls,
/// window_stalls), and — when bind_cores is set — a pinned core whose
/// single busy-polling thread (Cpu::pin_spinner) serves every connection
/// steered onto the shard. Doorbell coalescing batches are per QP, hence
/// never shared across shards either. Connections are steered round robin
/// at accept time. The default, one unbound shard, is the plain
/// single-context server.
class TServerRdma {
 public:
  struct Options {
    /// When nonzero the server creates a shared receive queue per shard,
    /// pre-posts this many recv tokens on each, and attaches every accepted
    /// recv-consuming channel to its shard's (the ibv_srq deployment
    /// pattern: one recv pool instead of per-connection recv rings, so
    /// posted-recv memory scales with the expected burst, not with the
    /// connection count).
    uint32_t srq_depth = 0;
    /// Number of per-core shards; at least 1.
    uint32_t shards = 1;
    /// Pin shard i to core i % cores. Off by default; the scalability
    /// bench turns it on to study per-core saturation and over-subscription
    /// collapse.
    bool bind_cores = false;
    /// Per-shard private buffer slab (pool_blocks blocks of pool_block
    /// bytes, pre-registered): response staging memory a shard's handlers
    /// can lease without ever touching another shard's pool. 0 = none.
    uint32_t pool_block = 0;
    uint32_t pool_blocks = 0;
  };

  /// Per-shard processor factory: lets a sharded server give each shard
  /// its own handler — typically one that charges handler compute on the
  /// shard's pinned core and stages responses in the shard's private pool.
  using ShardProcessorFactory = std::function<proto::Handler(
      uint32_t shard, int core, proto::BufferPool* pool)>;

  struct Shard {
    uint32_t index = 0;
    int core = -1;  // pinned core, -1 when bind_cores is off
    uint32_t ctr_id = 0;
    obs::CounterSet* ctrs = nullptr;
    verbs::SharedReceiveQueue* srq = nullptr;
    std::optional<proto::BufferPool> pool;
    std::optional<sim::Cpu::SpinGuard> spinner;  // the shard's polling thread
    proto::Handler processor;  // empty = use the server-wide processor
    std::vector<std::unique_ptr<TRdmaEndPoint>> endpoints;
  };

  TServerRdma(verbs::Node& node, proto::Handler processor)
      : TServerRdma(node, std::move(processor), Options{}) {}

  TServerRdma(verbs::Node& node, proto::Handler processor, Options opts)
      : node_(node), processor_(std::move(processor)), opts_(opts) {
    init_shards(nullptr);
  }

  TServerRdma(verbs::Node& node, ShardProcessorFactory factory, Options opts)
      : node_(node), opts_(opts) {
    init_shards(&factory);
  }

  /// Accepts a new connection from `client` using `kind`; the simulation
  /// analogue of TRdmaTransport's QP handshake + buffer exchange. The
  /// connection is steered to a shard first, which stamps its SRQ, core
  /// and counter scope into the channel config.
  TRdmaEndPoint* accept(verbs::Node& client, proto::ProtocolKind kind,
                        proto::ChannelConfig cfg) {
    Shard& sh = stamp_shard(cfg);
    const proto::Handler& h = sh.processor ? sh.processor : processor_;
    sh.endpoints.push_back(std::make_unique<TRdmaEndPoint>(
        proto::make_channel(kind, client, node_, h, cfg)));
    return sh.endpoints.back().get();
  }

  /// Adaptive accept: like accept(), but wraps the connection in an
  /// AdaptiveChannel seeded with `prior`, so the runtime controller
  /// re-selects protocol/polling/window from live counters. Shard
  /// resources (SRQ, core, counter scope) are stamped
  /// into the config every rebuilt epoch inherits, so plan changes never
  /// migrate a connection off its shard. When `fn` is given, the
  /// function's footprint scope (shared across connections carrying the
  /// same function) feeds the controller, and the adopted plan is
  /// published into `cache` under `fn`.
  TRdmaEndPoint* accept_adaptive(verbs::Node& client, hint::Plan prior,
                                 proto::ChannelConfig cfg,
                                 const hint::AdaptiveParams& params = {},
                                 PlanCache* cache = nullptr,
                                 const std::string& fn = {}) {
    obs::FunctionFootprint* fp = fn.empty() ? nullptr : footprint_for(fn);
    Shard& sh = stamp_shard(cfg);
    const proto::Handler& h = sh.processor ? sh.processor : processor_;
    auto ch = hint::make_adaptive_channel(client, node_, h, cfg, prior,
                                          params, fp);
    if (cache) cache->bind_racecheck(&node_.fabric().simulator());
    if (cache && !fn.empty()) cache->publish(fn, ch->plan());
    sh.endpoints.push_back(std::make_unique<TRdmaEndPoint>(std::move(ch)));
    return sh.endpoints.back().get();
  }

  /// Server half of the §4.3 plan-cache invalidation: republishes an
  /// adaptive endpoint's currently adopted plan. Returns true when the
  /// cache entry changed (every client snapshot stamped with the old epoch
  /// goes stale and re-resolves on its next flush).
  static bool refresh_plan(PlanCache& cache, const std::string& fn,
                           TRdmaEndPoint& ep) {
    auto* ad = dynamic_cast<hint::AdaptiveChannel*>(&ep.channel());
    if (!ad) return false;
    auto cur = cache.resolve(fn);
    if (cur && cur->plan == ad->plan()) return false;
    cache.publish(fn, ad->plan());
    return true;
  }

  void stop() {
    for (Shard& sh : shards_) {
      for (auto& ep : sh.endpoints) ep->shutdown();
      if (sh.srq) sh.srq->close();
      sh.spinner.reset();  // the polling thread parks; the core frees up
    }
  }

  verbs::Node& node() { return node_; }
  size_t connections() const {
    size_t n = 0;
    for (const Shard& sh : shards_) n += sh.endpoints.size();
    return n;
  }

  size_t shard_count() const { return shards_.size(); }
  const Shard& shard(uint32_t i) const { return shards_.at(i); }
  Shard& shard(uint32_t i) { return shards_.at(i); }

 private:
  /// Steers the next connection onto a shard, round robin in accept
  /// order, and stamps the shard's resources into `cfg` (shared by accept
  /// and accept_adaptive).
  Shard& stamp_shard(proto::ChannelConfig& cfg) {
    Shard& sh = shards_[accepted_++ % shards_.size()];
    sh.ctrs->add(obs::Ctr::kShardAccepts);
    if (sh.srq) cfg.with_server_srq(sh.srq);
    if (sh.core >= 0) cfg.with_server_core(sh.core);
    cfg.with_shard_counters(sh.ctrs);
    // The shard's polling thread starts spinning with its first busy-mode
    // connection (an idle shard's core stays free for its siblings).
    if (sh.core >= 0 && cfg.server_poll == sim::PollMode::kBusy &&
        !sh.spinner)
      sh.spinner.emplace(node_.cpu().pin_spinner(sh.core));
    return sh;
  }

  /// Find-or-register the function's footprint scope: connections carrying
  /// the same function share one scope, so the controller observes the
  /// AGGREGATE concurrency (the quantity the Fig-6 map classifies on).
  obs::FunctionFootprint* footprint_for(const std::string& fn) {
    auto& reg = node_.fabric().obs().footprints;
    for (uint32_t i = 0; i < reg.function_count(); ++i)
      if (reg.function(i).name() == fn) return &reg.function(i);
    return &reg.function(reg.register_function(fn));
  }

  void init_shards(const ShardProcessorFactory* factory) {
    if (opts_.shards == 0)
      throw std::invalid_argument("TServerRdma: shards must be at least 1");
    auto& counters = node_.fabric().obs().counters;
    shards_.reserve(opts_.shards);
    for (uint32_t i = 0; i < opts_.shards; ++i) {
      // Build the shard in place: the factory (and any handler it returns)
      // may capture the pool's address, which must be its final home inside
      // shards_, not a local about to be moved from.
      Shard& sh = shards_.emplace_back();
      sh.index = i;
      if (opts_.bind_cores) sh.core = static_cast<int>(i) % node_.cpu().cores();
      sh.ctr_id = counters.register_shard();
      sh.ctrs = &counters.shard(sh.ctr_id);
      if (opts_.srq_depth > 0) {
        sh.srq = node_.create_srq();
        for (uint32_t r = 0; r < opts_.srq_depth; ++r)
          sh.srq->post_recv(verbs::RecvWr{.wr_id = r});
      }
      if (opts_.pool_block > 0 && opts_.pool_blocks > 0)
        sh.pool.emplace(node_, opts_.pool_block, opts_.pool_blocks, sh.ctrs);
      if (factory && *factory)
        sh.processor = (*factory)(i, sh.core,
                                  sh.pool ? &*sh.pool : nullptr);
    }
  }

  verbs::Node& node_;
  proto::Handler processor_;
  Options opts_;
  std::vector<Shard> shards_;
  uint64_t accepted_ = 0;  // round-robin cursor
};

}  // namespace hatrpc::thrift
