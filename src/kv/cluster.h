// Cluster-scale HatKV (DESIGN.md §11): consistent-hash sharding, chain
// replication with version-stamped records, Storm-style one-sided reads
// with torn/stale validation, and client-driven failover.
//
//   * ShardMap — the key→shard routing table plus each shard's replica
//     chain [head..tail]. The directory distributes it to clients through
//     the hint map (hint::Key::kShardMap), the same channel the paper uses
//     for protocol hints; clients re-fetch it after reporting a failure.
//   * ShardHandler/ShardReplica — one replica of one shard: a HatShard
//     service over its own mdblite environment. Records carry a per-shard
//     monotonic version; Put at the head assigns the version, applies
//     locally, and forwards down the chain before acking, so an ack means
//     every live replica holds the write. A per-replica applied-op cache
//     keyed by (client_id, seq) makes Put idempotent across failover
//     replays (the cross-channel analogue of ReliableChannel's seq dedupe).
//   * ReadView/ReadViewClient — each replica exports a registered bucket
//     region; GETs are served by one RDMA READ of the key's slot. Slots
//     are framed by duplicated version words written non-atomically, so a
//     concurrent READ can observe a torn slot (head != tail) and falls
//     back to the RPC path; a version below the client's acked floor is
//     stale (the read raced a failover) and falls back too.
//   * Cluster — the control plane: authoritative map, failure reports,
//     epoch bumps, chain re-wiring, and crash-recovery (a restarted node
//     rejoins each of its shards as the tail after draining a resync
//     stream from the head).
//   * ClusterClient — per-client-node routing: resolves the shard map from
//     the hints, keeps one ReliableChannel per (shard, head replica),
//     detects replica death via timeouts/kRetryExcErr-class errors,
//     reports it, re-resolves the map, and replays the in-flight op
//     against the surviving replica under the same (client_id, seq).
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster_gen.h"
#include "core/engine.h"
#include "kv/hatkv.h"
#include "kv/mdblite.h"
#include "proto/reliable.h"
#include "verbs/endpoint.h"

namespace hatrpc::kv {

inline uint64_t fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Avalanche finalizer (splitmix64). Plain FNV-1a leaves the last few input
/// bytes almost no influence over the HIGH bits of the hash, and ring order
/// compares high bits first — sequential keys ("user0".."user3999") would
/// collapse onto a handful of ring arcs no matter how many vnodes the map
/// uses. Every ring placement and lookup must go through this.
inline uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// ---------------------------------------------------------------------------
// ShardMap

struct ShardMap {
  struct Replica {
    uint32_t node = 0;         // verbs node id hosting the replica
    uint64_t incarnation = 0;  // bumped every time the node restarts
    bool operator==(const Replica&) const = default;
  };
  struct Shard {
    std::vector<Replica> chain;  // [head .. tail]; empty = unavailable
  };

  uint64_t epoch = 0;
  uint32_t vnodes = 16;  // ring points per shard
  std::vector<Shard> shards;

  /// Consistent-hash lookup: first ring point at or after the key's hash.
  uint32_t shard_of(std::string_view key) const;

  /// (Re)builds the ring from shards.size() and vnodes. Must be called
  /// after changing either; decode() does it automatically.
  void build_ring();

  /// Deterministic text form, small enough to ride in a hint value.
  std::string encode() const;
  static ShardMap decode(std::string_view s);

 private:
  std::vector<std::pair<uint64_t, uint32_t>> ring_;  // (point, shard), sorted
};

// ---------------------------------------------------------------------------
// One-sided read view (Storm-style version-validated READ path)

/// A record fetched through the one-sided path.
struct ViewRecord {
  std::string value;
  uint64_t version = 0;
};

/// Server side: a registered region of hash-bucket slots the replica
/// publishes committed records into. Slot layout:
///   [u64 head_version][u32 key_len][u32 val_len]
///   [key bytes, kKeyMax][value bytes, kValMax][u64 tail_version]
/// The two version words are written first and last with CPU work in
/// between, so a concurrent remote READ can snapshot head != tail — the
/// torn window one-sided readers must validate against.
class ReadView {
 public:
  static constexpr uint32_t kBuckets = 1024;
  static constexpr uint32_t kKeyMax = 64;
  static constexpr uint32_t kValMax = 1152;
  static constexpr uint32_t kSlotBytes = 8 + 4 + 4 + kKeyMax + kValMax + 8;

  explicit ReadView(verbs::Node& node)
      : node_(node), mr_(node.pd().alloc_mr(kBuckets * kSlotBytes)) {
    std::memset(mr_->data(), 0, mr_->size());
  }

  static uint32_t bucket_of(std::string_view key) {
    return static_cast<uint32_t>(fnv1a64(key) % kBuckets);
  }

  verbs::RemoteAddr base_remote() const { return mr_->remote(0); }
  verbs::MemoryRegion* mr() { return mr_; }

  /// Publishes a committed record into its bucket (last writer wins on
  /// bucket collisions — colliding keys simply miss and use RPC).
  sim::Task<void> publish(std::string_view key, std::string_view value,
                          uint64_t version);

 private:
  verbs::Node& node_;
  verbs::MemoryRegion* mr_;
};

/// Client side: one connected QP pair + a scratch slot per (client,
/// replica). read() issues one RDMA READ of the key's bucket and validates
/// the snapshot; returns nullopt on miss / torn slot / foreign key, and
/// throws RpcError on transport failure (the failover trigger).
class ReadViewClient {
 public:
  ReadViewClient(verbs::Node& client, verbs::Node& server,
                 verbs::RemoteAddr base);

  sim::Task<std::optional<ViewRecord>> read(std::string_view key);

 private:
  verbs::Endpoint cl_;
  verbs::Endpoint sv_;
  verbs::MemoryRegion* scratch_;
  verbs::RemoteAddr base_;
  sim::Simulator* rc_sim_;
  uint64_t next_wr_ = 1;
};

// ---------------------------------------------------------------------------
// Shard replica (server side)

/// One replica of one shard: the generated HatShard service over its own
/// mdblite environment, records stamped [u64 version][payload], plus the
/// applied-op cache ("applied" named db) that makes Put replays idempotent
/// across failovers. Forwards applied records down the chain.
class ShardHandler : public hatshard::HatShardIf {
 public:
  struct ChainLink {
    uint32_t node = 0;
    uint64_t incarnation = 0;
    hatshard::HatShardClient* stub = nullptr;  // owned by the Cluster
  };

  ShardHandler(verbs::Node& node, uint32_t shard_id, HatKVConfig cfg)
      : node_(node), shard_(shard_id), cfg_(cfg),
        env_(EnvOptions{.page_size = 4096, .max_readers = cfg.max_readers}),
        readers_(node.fabric().simulator(), cfg.max_readers),
        writer_(node.fabric().simulator(), 1), view_(node) {}

  sim::Task<hatshard::VersionedValue> Get(const std::string& key) override;
  sim::Task<int64_t> Put(const std::string& key, const std::string& value,
                         int64_t client_id, int64_t seq) override;
  sim::Task<int64_t> Replicate(const std::string& key,
                               const std::string& value, int64_t version,
                               int64_t client_id, int64_t seq) override;

  /// Replicas strictly downstream of this one in chain order (the Cluster
  /// rewires these on every membership change). forward() tries them in
  /// order and skips dead ones, so a mid-chain crash doesn't wedge writes.
  void set_downstream(std::vector<ChainLink> links) {
    downstream_ = std::move(links);
  }
  /// Server-side failure detection: invoked (not awaited) when a chain
  /// forward hits a dead peer, so the directory converges without waiting
  /// for a client report.
  void set_peer_down(std::function<void(uint32_t, uint64_t)> cb) {
    peer_down_ = std::move(cb);
  }
  /// Fencing: once the directory removes this replica from its chain, it
  /// must refuse every op. Without this a client holding a stale map can
  /// reconnect to a RESTARTED node, reach the old handler, and get writes
  /// solo-acked into state nobody will ever read (the deposed-head
  /// problem classic chain replication solves with config epochs).
  void depose() {
    deposed_ = true;
    peer_down_ = nullptr;  // a zombie must not file failure reports
  }
  bool deposed() const { return deposed_; }

  ReadView& view() { return view_; }
  uint32_t shard() const { return shard_; }

  /// Streams every record of this replica's snapshot to a rejoining tail
  /// (client_id 0 = resync: version-guarded apply, no dedupe entry).
  sim::Task<uint64_t> resync_to(hatshard::HatShardClient& stub);

  /// Synchronous snapshot read for white-box verification (no costs).
  std::optional<ViewRecord> peek(const std::string& key);
  uint64_t applied_ops() const { return applied_ops_; }
  uint64_t replays() const { return replays_; }

 private:
  static std::string encode_record(uint64_t version, std::string_view value);
  static ViewRecord decode_record(std::string_view raw);
  static std::string op_key(int64_t client_id, int64_t seq);

  /// Version-guarded local apply + view publish + dedupe bookkeeping.
  /// Caller holds the writer semaphore.
  sim::Task<void> apply(const std::string& key, const std::string& value,
                        uint64_t version, int64_t client_id, int64_t seq);
  /// Forwards down the chain to the first live successor.
  sim::Task<void> forward(const std::string& key, const std::string& value,
                          uint64_t version, int64_t client_id, int64_t seq);
  sim::Cpu::Compute charge_pages(uint64_t pages);
  sim::Task<void> charge_commit(const CommitInfo& info);
  /// Applied-op cache lookup; nullopt when (client_id, seq) is unseen.
  std::optional<uint64_t> applied_version(int64_t client_id, int64_t seq);

  verbs::Node& node_;
  uint32_t shard_;
  HatKVConfig cfg_;
  Env env_;
  sim::Semaphore readers_;
  sim::Semaphore writer_;
  ReadView view_;
  std::vector<ChainLink> downstream_;
  std::function<void(uint32_t, uint64_t)> peer_down_;
  uint64_t next_version_ = 0;
  uint64_t applied_ops_ = 0;
  uint64_t replays_ = 0;
  bool deposed_ = false;
};

/// One replica's full server stack: engine + handler on a node. A node
/// hosts several of these (one per shard it serves).
class ShardReplica {
 public:
  ShardReplica(verbs::Node& node, uint32_t shard, uint64_t incarnation,
               HatKVConfig kv_cfg, core::EngineConfig engine_cfg)
      : node_(node), shard_(shard), incarnation_(incarnation),
        server_(node, hatshard::HatShard_hints(), engine_cfg),
        handler_(node, shard, kv_cfg) {
    hatshard::register_HatShard(server_.dispatcher(), handler_);
  }

  verbs::Node& node() { return node_; }
  uint32_t shard() const { return shard_; }
  uint64_t incarnation() const { return incarnation_; }
  core::HatServer& server() { return server_; }
  ShardHandler& handler() { return handler_; }
  void stop() { server_.stop(); }

 private:
  verbs::Node& node_;
  uint32_t shard_;
  uint64_t incarnation_;
  core::HatServer server_;
  ShardHandler handler_;
};

// ---------------------------------------------------------------------------
// Cluster (directory / control plane)

struct ClusterConfig {
  uint32_t shards = 8;
  uint32_t replication = 2;  // chain length per shard
  uint32_t vnodes = 16;
  core::EngineConfig engine{};  // replica servers + chain connections
  HatKVConfig storage{};
  /// Client→head channels: bounded per-attempt timeout plus a total
  /// deadline so failover detection is fast and tail latency bounded.
  proto::ProtocolKind client_protocol = proto::ProtocolKind::kDirectWriteImm;
  proto::ChannelConfig client_channel{};
  proto::RetryPolicy client_retry{};
  bool one_sided_reads = true;
  /// Modeled latency of one directory interaction (report/fetch).
  sim::Duration control_latency = std::chrono::microseconds(2);

  ClusterConfig() {
    client_channel.client_poll = sim::PollMode::kEvent;
    client_channel.server_poll = sim::PollMode::kEvent;
    client_channel.max_msg = 16 << 10;
    client_retry.max_attempts = 3;
    client_retry.timeout = std::chrono::microseconds(500);
    client_retry.total_deadline = std::chrono::milliseconds(3);
    engine.channel.client_poll = sim::PollMode::kEvent;
    engine.channel.server_poll = sim::PollMode::kEvent;
  }
};

class Cluster {
 public:
  /// Lays shard s's chain over nodes (s + rank) % nodes.size() and starts
  /// one ShardReplica per (shard, rank).
  Cluster(verbs::Fabric& fabric, std::vector<verbs::Node*> server_nodes,
          ClusterConfig cfg);

  const ClusterConfig& config() const { return cfg_; }
  const ShardMap& map() const { return map_; }
  uint64_t epoch() const { return map_.epoch; }
  sim::Simulator& simulator() { return sim_; }

  /// The service hints with the current shard map attached at service
  /// level under hint::Key::kShardMap — how clients learn the routing.
  hint::ServiceHints hints() const;

  // -- Control-plane interactions (each models control_latency of RPC) ----
  /// Client-driven failure report: ignored when stale (wrong incarnation
  /// or already handled); otherwise removes the replica from every chain,
  /// bumps the epoch, and rewires the survivors.
  sim::Task<void> report_down(uint32_t node_id, uint64_t incarnation);
  /// Re-fetches the routing table (decode(encode()) — the same bytes a
  /// hint re-resolution would carry).
  sim::Task<ShardMap> fetch_map();

  /// Server-side failure note from a chain forward (no client involved).
  void note_peer_down(uint32_t node_id, uint64_t incarnation);

  /// Rejoin after FaultPlan's kNodeRestart fired: bumps the node's
  /// incarnation, rebuilds its replicas with fresh state, appends each as
  /// its shard's tail, and drains a resync stream from each head.
  sim::Task<void> recover(uint32_t node_id);

  /// Live replica lookup (nullptr when the node lost this shard).
  ShardReplica* replica(uint32_t shard, uint32_t node_id);
  verbs::Node* node(uint32_t id) { return nodes_.at(id); }
  uint64_t incarnation(uint32_t node_id) const {
    return incarnation_.at(node_id);
  }
  uint64_t resynced_records() const { return resynced_; }

  void stop();

 private:
  void remove_from_chains(uint32_t node_id, uint64_t incarnation);
  /// Reinstalls every live replica's downstream links from the map.
  void rebuild_chains();
  hatshard::HatShardClient* chain_stub(uint32_t from_node, uint32_t shard,
                                       const ShardMap::Replica& to);
  sim::Task<void> down_task(uint32_t node_id, uint64_t incarnation);

  verbs::Fabric& fabric_;
  sim::Simulator& sim_;
  std::vector<verbs::Node*> nodes_;
  ClusterConfig cfg_;
  ShardMap map_;
  std::vector<uint64_t> incarnation_;
  std::vector<bool> down_;
  std::vector<std::vector<uint32_t>> placement_;  // shard -> hosting nodes
  struct ChainConn {
    std::unique_ptr<core::HatConnection> conn;
    std::unique_ptr<hatshard::HatShardClient> stub;
  };
  // Destroyed after the replicas below: HatServer teardown closes the
  // HatConnections it tracks, so the connection objects must still exist.
  std::map<std::tuple<uint32_t, uint32_t, uint32_t, uint64_t>, ChainConn>
      chains_;  // (from_node, shard, to_node, to_incarnation)
  std::map<std::pair<uint32_t, uint32_t>, std::unique_ptr<ShardReplica>>
      live_;  // (shard, node)
  std::vector<std::unique_ptr<ShardReplica>> graveyard_;
  uint64_t resynced_ = 0;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Cluster client

/// HatCaller over a ReliableChannel: the thrift envelope + serialization
/// charges of the engine path, with the reliability layer's retry/
/// reconnect/deadline machinery underneath.
class ReliableCaller : public core::HatCaller {
 public:
  ReliableCaller(proto::ReliableChannel& ch, verbs::Node& client,
                 const core::EngineConfig& cfg)
      : ch_(ch), cpu_(client.cpu()), cfg_(cfg) {}

  sim::Task<core::Reply> call(std::string method,
                              core::Envelope envelope) override;

 private:
  proto::ReliableChannel& ch_;
  sim::Cpu& cpu_;
  core::EngineConfig cfg_;
  int32_t seq_ = 0;
};

class ClusterClient {
 public:
  struct GetResult {
    std::string value;
    uint64_t version = 0;
    bool found = false;
    bool one_sided = false;
  };

  /// Resolves the shard map from the cluster's hint hierarchy (the same
  /// lookup any hint consumer performs).
  ClusterClient(verbs::Node& node, Cluster& cluster, uint64_t client_id);

  sim::Task<GetResult> Get(const std::string& key);
  /// Returns the committed version. Safe to replay: the (client_id, seq)
  /// identity rides to the shard's applied-op cache.
  sim::Task<uint64_t> Put(const std::string& key, const std::string& value);
  sim::Task<std::vector<GetResult>> MultiGet(
      const std::vector<std::string>& keys);
  sim::Task<std::vector<uint64_t>> MultiPut(
      const std::vector<std::pair<std::string, std::string>>& pairs);

  void close();

  const ShardMap& map() const { return map_; }
  uint64_t client_id() const { return client_id_; }

 private:
  struct Conn {
    std::unique_ptr<proto::ReliableChannel> ch;
    std::unique_ptr<ReliableCaller> caller;
    std::unique_ptr<hatshard::HatShardClient> stub;
  };
  using ReplicaKey = std::tuple<uint32_t, uint32_t, uint64_t>;

  /// Throws RpcError(kChannelClosed) when the map entry is stale (replica
  /// object gone) — callers treat that like any replica death.
  Conn& conn_to(uint32_t shard, const ShardMap::Replica& r);
  ReadViewClient& view_client(uint32_t shard, const ShardMap::Replica& r);
  sim::Task<void> failover(const ShardMap::Replica& dead);
  sim::Task<void> refresh_map();
  void drop_replica(const ShardMap::Replica& dead);
  uint64_t acked_floor(const std::string& key) const {
    auto it = acked_.find(key);
    return it == acked_.end() ? 0 : it->second;
  }

  verbs::Node& node_;
  Cluster& cluster_;
  uint64_t client_id_;
  ShardMap map_;
  std::map<ReplicaKey, Conn> conns_;
  std::map<ReplicaKey, std::unique_ptr<ReadViewClient>> views_;
  std::vector<Conn> retired_;  // aborted conns kept until teardown
  int64_t next_seq_ = 0;
  /// Session floor per key: highest version this client wrote or read.
  /// One-sided results below it are stale and fall back to RPC.
  std::unordered_map<std::string, uint64_t> acked_;
  static constexpr int kMaxFailovers = 4;
};

}  // namespace hatrpc::kv
