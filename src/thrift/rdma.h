// The server half of the §4.3 bridge (Fig. 9): TServerRdma is the RDMA
// counterpart of TServerSocket. Accepting a connection creates one protocol
// channel (QP/MR setup + exchange) that delivers each request to the
// processor registered at accept time; Thrift's generated clients drive
// such a channel through core::HatConnection.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "proto/buffer_pool.h"
#include "proto/channel.h"

namespace hatrpc::thrift {

/// Server-side counterpart of TServerSocket: the RDMA engine delivers each
/// request to the processor registered at channel-creation time, so
/// TServerRdma is the factory and owner of channels on the server node.
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
    int core = -1;  // pinned core, -1 when bind_cores is off
    obs::CounterSet* ctrs = nullptr;
    verbs::SharedReceiveQueue* srq = nullptr;
    std::optional<proto::BufferPool> pool;
    std::optional<sim::Cpu::SpinGuard> spinner;  // the shard's polling thread
    proto::Handler processor;  // empty = use the server-wide processor
    std::vector<std::unique_ptr<proto::RpcChannel>> channels;
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

  /// Accepts a new connection from `client` using `kind`: the simulation
  /// analogue of the QP handshake + buffer exchange. The connection is
  /// steered onto a shard, round robin in accept order, whose SRQ, core and
  /// counter scope are stamped into the channel config.
  proto::RpcChannel& accept(verbs::Node& client, proto::ProtocolKind kind,
                            proto::ChannelConfig cfg) {
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
    const proto::Handler& h = sh.processor ? sh.processor : processor_;
    sh.channels.push_back(proto::make_channel(kind, client, node_, h, cfg));
    return *sh.channels.back();
  }

  void stop() {
    for (Shard& sh : shards_) {
      for (auto& ch : sh.channels) ch->shutdown();
      if (sh.srq) sh.srq->close();
      sh.spinner.reset();  // the polling thread parks; the core frees up
    }
  }

  size_t shard_count() const { return shards_.size(); }
  const Shard& shard(uint32_t i) const { return shards_.at(i); }
  Shard& shard(uint32_t i) { return shards_.at(i); }

 private:
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
      if (opts_.bind_cores) sh.core = static_cast<int>(i) % node_.cpu().cores();
      sh.ctrs = &counters.shard(counters.register_shard());
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
