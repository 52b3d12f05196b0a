#include "kv/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "sim/rc_annotate.h"

namespace hatrpc::kv {

using sim::Task;

// ---------------------------------------------------------------------------
// ShardMap

void ShardMap::build_ring() {
  ring_.clear();
  ring_.reserve(size_t(shards.size()) * vnodes);
  for (uint32_t s = 0; s < shards.size(); ++s) {
    for (uint32_t v = 0; v < vnodes; ++v) {
      std::string point = "s" + std::to_string(s) + "v" + std::to_string(v);
      ring_.emplace_back(mix64(fnv1a64(point)), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

uint32_t ShardMap::shard_of(std::string_view key) const {
  if (ring_.empty()) return 0;
  const uint64_t h = mix64(fnv1a64(key));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<uint64_t, uint32_t>& p, uint64_t v) {
        return p.first < v;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::string ShardMap::encode() const {
  std::string out = "hsm1|" + std::to_string(epoch) + "|" +
                    std::to_string(vnodes) + "|" +
                    std::to_string(shards.size()) + "|";
  for (size_t s = 0; s < shards.size(); ++s) {
    if (s) out += ';';
    const auto& chain = shards[s].chain;
    for (size_t r = 0; r < chain.size(); ++r) {
      if (r) out += ',';
      out += std::to_string(chain[r].node) + ":" +
             std::to_string(chain[r].incarnation);
    }
  }
  return out;
}

ShardMap ShardMap::decode(std::string_view s) {
  auto fail = [] { throw hint::HintError("malformed shard map"); };
  auto take = [&](char delim) {
    size_t p = s.find(delim);
    if (p == std::string_view::npos) fail();
    std::string_view tok = s.substr(0, p);
    s.remove_prefix(p + 1);
    return tok;
  };
  auto num = [&](std::string_view tok) -> uint64_t {
    if (tok.empty()) fail();
    uint64_t v = 0;
    for (char c : tok) {
      if (c < '0' || c > '9') fail();
      v = v * 10 + uint64_t(c - '0');
    }
    return v;
  };
  if (take('|') != "hsm1") fail();
  ShardMap m;
  m.epoch = num(take('|'));
  m.vnodes = static_cast<uint32_t>(num(take('|')));
  const uint64_t nshards = num(take('|'));
  m.shards.resize(nshards);
  for (uint64_t i = 0; i < nshards; ++i) {
    std::string_view seg;
    if (i + 1 < nshards) {
      seg = take(';');
    } else {
      seg = s;
      s = {};
    }
    while (!seg.empty()) {
      size_t p = seg.find(',');
      std::string_view entry =
          p == std::string_view::npos ? seg : seg.substr(0, p);
      seg = p == std::string_view::npos ? std::string_view{}
                                        : seg.substr(p + 1);
      size_t colon = entry.find(':');
      if (colon == std::string_view::npos) fail();
      Replica r;
      r.node = static_cast<uint32_t>(num(entry.substr(0, colon)));
      r.incarnation = num(entry.substr(colon + 1));
      m.shards[i].chain.push_back(r);
    }
  }
  m.build_ring();
  return m;
}

// ---------------------------------------------------------------------------
// ReadView

Task<void> ReadView::publish(std::string_view key, std::string_view value,
                             uint64_t version) {
  // Publish cost: two store phases with real CPU between them, so the
  // torn window a remote READ can race is an actual span of virtual time.
  static constexpr auto kPhase = std::chrono::nanoseconds(120);
  std::byte* slot = mr_->data() + size_t(bucket_of(key)) * kSlotBytes;
  // The slot is racy BY DESIGN against remote READs (readers validate the
  // head/tail version pair), so both sides mark it with the relaxed update
  // class: update/update pairs never conflict, but a strict access sneaking
  // into the region would.
  sim::Simulator& rsim = node_.fabric().simulator();
  rsim.rc_update(slot, 0, "ReadView.slot", RC_HERE);
  auto put_u64 = [](std::byte* p, uint64_t v) { std::memcpy(p, &v, 8); };
  auto put_u32 = [](std::byte* p, uint32_t v) { std::memcpy(p, &v, 4); };
  if (key.size() > kKeyMax || value.size() > kValMax) {
    // Oversized records are not served one-sided: tombstone the slot so
    // readers fall back to RPC instead of seeing a stale resident.
    put_u64(slot, 0);
    put_u64(slot + kSlotBytes - 8, 0);
    co_return;
  }
  put_u64(slot, version);  // head first: mid-update reads show head != tail
  co_await node_.cpu().compute(kPhase);
  put_u32(slot + 8, static_cast<uint32_t>(key.size()));
  put_u32(slot + 12, static_cast<uint32_t>(value.size()));
  std::memcpy(slot + 16, key.data(), key.size());
  std::memcpy(slot + 16 + kKeyMax, value.data(), value.size());
  co_await node_.cpu().compute(kPhase);
  put_u64(slot + kSlotBytes - 8, version);  // tail last: slot whole again
  rsim.rc_update(slot, 0, "ReadView.slot", RC_HERE);
}

ReadViewClient::ReadViewClient(verbs::Node& client, verbs::Node& server,
                               verbs::RemoteAddr base)
    : cl_(verbs::make_endpoint(client, sim::PollMode::kBusy)),
      sv_(verbs::make_endpoint(server, sim::PollMode::kBusy)),
      scratch_(client.pd().alloc_mr(ReadView::kSlotBytes)), base_(base),
      rc_sim_(&client.fabric().simulator()) {
  // One-sided: the server endpoint only anchors the QP; nothing ever
  // polls its CQs.
  verbs::connect(cl_, sv_);
}

Task<std::optional<ViewRecord>> ReadViewClient::read(std::string_view key) {
  const uint32_t bucket = ReadView::bucket_of(key);
  co_await cl_.qp->post_send(verbs::SendWr{
      .wr_id = next_wr_++,
      .opcode = verbs::Opcode::kRead,
      .local = {scratch_->data(), ReadView::kSlotBytes},
      .remote = {base_.addr + uint64_t(bucket) * ReadView::kSlotBytes,
                 base_.rkey}});
  verbs::Wc wc = co_await cl_.send_wc();
  if (!wc.ok()) proto::throw_wc("view read", wc.status);
  // Same key the publisher uses: the remote address the READ targeted IS
  // the server slot's address in the sim. Relaxed class — a snapshot
  // racing a publish is the validated-torn-read path, not a bug.
  rc_sim_->rc_update(
      reinterpret_cast<const void*>(base_.addr +
                                    uint64_t(bucket) * ReadView::kSlotBytes),
      0, "ReadView.slot", RC_HERE);
  const std::byte* p = scratch_->data();
  auto u64 = [](const std::byte* q) {
    uint64_t v;
    std::memcpy(&v, q, 8);
    return v;
  };
  auto u32 = [](const std::byte* q) {
    uint32_t v;
    std::memcpy(&v, q, 4);
    return v;
  };
  const uint64_t head = u64(p);
  const uint64_t tail = u64(p + ReadView::kSlotBytes - 8);
  if (head == 0 || head != tail) co_return std::nullopt;  // empty or torn
  const uint32_t klen = u32(p + 8);
  const uint32_t vlen = u32(p + 12);
  if (klen == 0 || klen > ReadView::kKeyMax || vlen > ReadView::kValMax)
    co_return std::nullopt;
  if (std::string_view(reinterpret_cast<const char*>(p + 16), klen) != key)
    co_return std::nullopt;  // bucket collision: a different resident
  co_return ViewRecord{
      std::string(reinterpret_cast<const char*>(p + 16 + ReadView::kKeyMax),
                  vlen),
      head};
}

// ---------------------------------------------------------------------------
// ShardHandler

std::string ShardHandler::encode_record(uint64_t version,
                                        std::string_view value) {
  std::string rec(8 + value.size(), '\0');
  std::memcpy(rec.data(), &version, 8);
  std::memcpy(rec.data() + 8, value.data(), value.size());
  return rec;
}

ViewRecord ShardHandler::decode_record(std::string_view raw) {
  ViewRecord r;
  if (raw.size() < 8) return r;
  std::memcpy(&r.version, raw.data(), 8);
  r.value.assign(raw.data() + 8, raw.size() - 8);
  return r;
}

std::string ShardHandler::op_key(int64_t client_id, int64_t seq) {
  return std::to_string(client_id) + ":" + std::to_string(seq);
}

sim::Cpu::Compute ShardHandler::charge_pages(uint64_t pages) {
  return node_.cpu().compute(cfg_.op_fixed +
                             cfg_.page_cpu * static_cast<int64_t>(pages));
}

Task<void> ShardHandler::charge_commit(const CommitInfo& info) {
  if (cfg_.sync_commits) {
    co_await node_.cpu().compute(
        cfg_.commit_io * static_cast<int64_t>(std::max<uint64_t>(
                             info.pages_written, 1)));
  }
}

std::optional<uint64_t> ShardHandler::applied_version(int64_t client_id,
                                                      int64_t seq) {
  // Caller holds the writer semaphore, so a short read transaction is
  // always admissible (mdblite runs readers beside the single writer).
  Txn txn = env_.begin(false);
  auto hit = txn.get("applied", op_key(client_id, seq));
  if (!hit || hit->size() != 8) return std::nullopt;
  uint64_t v;
  std::memcpy(&v, hit->data(), 8);
  return v;
}

Task<hatshard::VersionedValue> ShardHandler::Get(const std::string& key) {
  if (deposed_) {
    throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                          "replica deposed (stale chain epoch)");
  }
  co_await readers_.acquire();
  hatshard::VersionedValue out;
  uint64_t pages = 0;
  {
    Txn txn = env_.begin(false);
    auto raw = txn.get(key);
    pages = txn.pages_touched();
    if (raw) {
      ViewRecord rec = decode_record(*raw);
      out.value = std::move(rec.value);
      out.version = static_cast<int64_t>(rec.version);
      out.found = true;
    }
  }
  readers_.release();
  co_await charge_pages(pages);
  co_return out;
}

Task<void> ShardHandler::apply(const std::string& key,
                               const std::string& value, uint64_t version,
                               int64_t client_id, int64_t seq) {
  next_version_ = std::max(next_version_, version);
  uint64_t pages = 0;
  bool newer = false;
  {
    Txn txn = env_.begin(true);
    auto existing = txn.get(key);
    const uint64_t have =
        existing ? decode_record(*existing).version : 0;
    newer = version > have;
    if (newer) txn.put(key, encode_record(version, value));
    if (client_id != 0) {
      std::string stamp(8, '\0');
      std::memcpy(stamp.data(), &version, 8);
      txn.put("applied", op_key(client_id, seq), stamp);
    }
    pages = txn.pages_touched();
    CommitInfo info = txn.commit();
    co_await charge_pages(pages);
    co_await charge_commit(info);
  }
  if (newer) co_await view_.publish(key, value, version);
  ++applied_ops_;
}

Task<void> ShardHandler::forward(const std::string& key,
                                 const std::string& value, uint64_t version,
                                 int64_t client_id, int64_t seq) {
  // Copy: the directory may rewire downstream_ while we await a hop.
  std::vector<ChainLink> links = downstream_;
  for (const ChainLink& l : links) {
    try {
      co_await l.stub->Replicate(key, value, static_cast<int64_t>(version),
                                 client_id, seq);
      node_.counters().add(obs::Ctr::kChainForwards);
      co_return;  // the successor forwards further down itself
    } catch (const std::exception&) {
      // A failed hop has two readings and only one is "dead successor":
      // if WE crashed mid-forward, our own QPs are what died, and acking
      // solo would acknowledge a write that lives only in state the
      // directory is about to discard. Fail the op instead — the client
      // replays it against the re-formed chain.
      if (node_.crashed() || deposed_) {
        throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                              "head crashed or deposed mid-forward");
      }
      // Dead successor: tell the directory (async) and try the next one,
      // so a mid-chain crash degrades the chain instead of wedging it.
      if (peer_down_) peer_down_(l.node, l.incarnation);
    }
  }
  // No live successor (tail, or every successor just died): ack solo —
  // unless this node itself is gone or deposed, in which case nothing
  // may ack (the write would live only in discarded state).
  if (node_.crashed() || deposed_) {
    throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                          "node crashed or deposed mid-op");
  }
}

Task<int64_t> ShardHandler::Put(const std::string& key,
                                const std::string& value, int64_t client_id,
                                int64_t seq) {
  if (deposed_) {
    throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                          "replica deposed (stale chain epoch)");
  }
  co_await writer_.acquire();
  if (auto hit = applied_version(client_id, seq)) {
    // A failover replay of an op this chain already committed: answer
    // with the original version, do not re-execute or re-forward.
    ++replays_;
    node_.counters().add(obs::Ctr::kReplays);
    writer_.release();
    co_return static_cast<int64_t>(*hit);
  }
  const uint64_t version = next_version_ + 1;
  try {
    co_await apply(key, value, version, client_id, seq);
    co_await forward(key, value, version, client_id, seq);
  } catch (...) {
    writer_.release();
    throw;
  }
  writer_.release();
  co_return static_cast<int64_t>(version);
}

Task<int64_t> ShardHandler::Replicate(const std::string& key,
                                      const std::string& value,
                                      int64_t version, int64_t client_id,
                                      int64_t seq) {
  if (deposed_) {
    throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                          "replica deposed (stale chain epoch)");
  }
  co_await writer_.acquire();
  const uint64_t v = static_cast<uint64_t>(version);
  try {
    co_await apply(key, value, v, client_id, seq);
    co_await forward(key, value, v, client_id, seq);
  } catch (...) {
    writer_.release();
    throw;
  }
  writer_.release();
  co_return version;
}

std::optional<ViewRecord> ShardHandler::peek(const std::string& key) {
  Txn txn = env_.begin(false);
  auto raw = txn.get(key);
  if (!raw) return std::nullopt;
  return decode_record(*raw);
}

Task<uint64_t> ShardHandler::resync_to(hatshard::HatShardClient& stub) {
  // Snapshot under a reader slot, then stream without holding it so the
  // resync does not starve foreground readers.
  co_await readers_.acquire();
  std::vector<std::pair<std::string, std::string>> records;
  uint64_t pages = 0;
  {
    Txn txn = env_.begin(false);
    Cursor c(txn);
    for (bool ok = c.first(); ok; ok = c.next())
      records.emplace_back(c.key(), c.value());
    pages = txn.pages_touched();
  }
  readers_.release();
  co_await charge_pages(pages);
  for (const auto& [key, raw] : records) {
    ViewRecord rec = decode_record(raw);
    // client_id 0 = resync: version-guarded apply, no dedupe entry.
    co_await stub.Replicate(key, rec.value,
                            static_cast<int64_t>(rec.version), 0, 0);
    node_.counters().add(obs::Ctr::kResyncOps);
  }
  co_return records.size();
}

// ---------------------------------------------------------------------------
// Cluster

Cluster::Cluster(verbs::Fabric& fabric, std::vector<verbs::Node*> server_nodes,
                 ClusterConfig cfg)
    : fabric_(fabric), sim_(fabric.simulator()),
      nodes_(std::move(server_nodes)), cfg_(cfg) {
  if (nodes_.empty()) throw std::invalid_argument("cluster needs nodes");
  const uint32_t n = static_cast<uint32_t>(nodes_.size());
  const uint32_t rf = std::min(cfg_.replication, n);
  incarnation_.assign(n, 1);
  down_.assign(n, false);
  map_.epoch = 1;
  map_.vnodes = cfg_.vnodes;
  map_.shards.resize(cfg_.shards);
  placement_.resize(cfg_.shards);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    for (uint32_t r = 0; r < rf; ++r) {
      const uint32_t host = (s + r) % n;
      placement_[s].push_back(host);
      map_.shards[s].chain.push_back({host, 1});
      live_[{s, host}] = std::make_unique<ShardReplica>(
          *nodes_[host], s, 1, cfg_.storage, cfg_.engine);
    }
  }
  map_.build_ring();
  rebuild_chains();
}

hint::ServiceHints Cluster::hints() const {
  hint::ServiceHints h = hatshard::HatShard_hints();
  h.service().add(hint::Side::kShared, hint::Key::kShardMap,
                  hint::parse_value(hint::Key::kShardMap, map_.encode()));
  return h;
}

hatshard::HatShardClient* Cluster::chain_stub(uint32_t from_node,
                                              uint32_t shard,
                                              const ShardMap::Replica& to) {
  auto key = std::make_tuple(from_node, shard, to.node, to.incarnation);
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    auto rit = live_.find({shard, to.node});
    if (rit == live_.end()) return nullptr;
    ChainConn cc;
    cc.conn = std::make_unique<core::HatConnection>(*nodes_[from_node],
                                                    rit->second->server());
    cc.stub = std::make_unique<hatshard::HatShardClient>(*cc.conn);
    it = chains_.emplace(key, std::move(cc)).first;
  }
  return it->second.stub.get();
}

void Cluster::rebuild_chains() {
  for (uint32_t s = 0; s < map_.shards.size(); ++s) {
    const auto& chain = map_.shards[s].chain;
    for (size_t i = 0; i < chain.size(); ++i) {
      auto rit = live_.find({s, chain[i].node});
      if (rit == live_.end()) continue;
      std::vector<ShardHandler::ChainLink> links;
      for (size_t j = i + 1; j < chain.size(); ++j) {
        if (hatshard::HatShardClient* stub =
                chain_stub(chain[i].node, s, chain[j])) {
          links.push_back({chain[j].node, chain[j].incarnation, stub});
        }
      }
      rit->second->handler().set_downstream(std::move(links));
      rit->second->handler().set_peer_down(
          [this](uint32_t node, uint64_t inc) { note_peer_down(node, inc); });
    }
  }
}

void Cluster::remove_from_chains(uint32_t node_id, uint64_t incarnation) {
  for (uint32_t s = 0; s < map_.shards.size(); ++s) {
    auto& chain = map_.shards[s].chain;
    std::erase_if(chain, [&](const ShardMap::Replica& r) {
      return r.node == node_id && r.incarnation == incarnation;
    });
    auto rit = live_.find({s, node_id});
    if (rit != live_.end() && rit->second->incarnation() == incarnation) {
      // Keep the dead replica's processor alive for any channel still
      // unwinding against it, but fence it: a client with a stale map can
      // reconnect once the node restarts, and a deposed handler must
      // refuse every op rather than solo-ack into discarded state.
      rit->second->handler().depose();
      rit->second->stop();
      graveyard_.push_back(std::move(rit->second));
      live_.erase(rit);
    }
  }
}

Task<void> Cluster::down_task(uint32_t node_id, uint64_t incarnation) {
  co_await sim_.sleep(cfg_.control_latency);
  if (node_id >= down_.size()) co_return;
  if (down_[node_id] || incarnation_[node_id] != incarnation) co_return;
  // Confirm with the directory's own liveness probe before acting: a
  // client timing out against a slow-but-alive replica must not collapse
  // its chains (the reporter still rebuilds its own channel and retries).
  if (!nodes_[node_id]->crashed()) co_return;
  down_[node_id] = true;
  remove_from_chains(node_id, incarnation);
  ++map_.epoch;
  rebuild_chains();
}

Task<void> Cluster::report_down(uint32_t node_id, uint64_t incarnation) {
  co_await down_task(node_id, incarnation);
}

void Cluster::note_peer_down(uint32_t node_id, uint64_t incarnation) {
  sim_.spawn(down_task(node_id, incarnation));
}

Task<ShardMap> Cluster::fetch_map() {
  co_await sim_.sleep(cfg_.control_latency);
  // Round-trip through the encoded form: clients get exactly the bytes a
  // hint re-resolution would carry.
  co_return ShardMap::decode(map_.encode());
}

Task<void> Cluster::recover(uint32_t node_id) {
  co_await sim_.sleep(cfg_.control_latency);
  if (node_id >= down_.size() || !down_[node_id]) co_return;
  down_[node_id] = false;
  const uint64_t inc = ++incarnation_[node_id];
  // Rebuild this node's replicas with fresh (empty) state and append each
  // as its shard's tail BEFORE resyncing: once it is in the chain, every
  // new write reaches it, so the snapshot stream below cannot miss one
  // (overlap is harmless — applies are version-guarded).
  std::vector<uint32_t> myshards;
  for (uint32_t s = 0; s < placement_.size(); ++s) {
    for (uint32_t host : placement_[s]) {
      if (host == node_id) myshards.push_back(s);
    }
  }
  for (uint32_t s : myshards) {
    live_[{s, node_id}] = std::make_unique<ShardReplica>(
        *nodes_[node_id], s, inc, cfg_.storage, cfg_.engine);
    map_.shards[s].chain.push_back({node_id, inc});
  }
  ++map_.epoch;
  rebuild_chains();
  for (uint32_t s : myshards) {
    const auto& chain = map_.shards[s].chain;
    if (chain.empty() || chain.front().node == node_id) continue;
    auto head = live_.find({s, chain.front().node});
    if (head == live_.end()) continue;
    hatshard::HatShardClient* stub =
        chain_stub(chain.front().node, s, {node_id, inc});
    if (!stub) continue;
    resynced_ += co_await head->second->handler().resync_to(*stub);
  }
}

ShardReplica* Cluster::replica(uint32_t shard, uint32_t node_id) {
  auto it = live_.find({shard, node_id});
  return it == live_.end() ? nullptr : it->second.get();
}

void Cluster::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& [key, rep] : live_) rep->stop();
  for (auto& rep : graveyard_) rep->stop();
}

// ---------------------------------------------------------------------------
// ReliableCaller / ClusterClient

Task<core::Reply> ReliableCaller::call(std::string method,
                                       core::Envelope envelope) {
  core::HatDispatcher::stamp_seqid(envelope.bytes(), ++seq_);
  co_await cpu_.compute(
      cfg_.serialize_fixed +
      sim::transfer_time(envelope.size(), cfg_.serialize_gbps));
  proto::CallResult r = co_await ch_.call(envelope.view(), 2048);
  core::Buffer reply = std::move(r).value();  // throws RpcError on failure
  co_await cpu_.compute(
      cfg_.serialize_fixed +
      sim::transfer_time(reply.size(), cfg_.serialize_gbps));
  co_return core::HatDispatcher::reply_of(std::move(reply), method);
}

ClusterClient::ClusterClient(verbs::Node& node, Cluster& cluster,
                             uint64_t client_id)
    : node_(node), cluster_(cluster), client_id_(client_id) {
  // Routing arrives through the hint hierarchy: resolve the service-level
  // shard-map hint exactly like any other hint consumer.
  hint::ServiceHints h = cluster_.hints();
  const hint::Value* v =
      h.lookup("Get", hint::Key::kShardMap, hint::Perspective::kClient);
  if (!v) throw hint::HintError("cluster hints carry no shard map");
  map_ = ShardMap::decode(v->raw);
}

ClusterClient::Conn& ClusterClient::conn_to(uint32_t shard,
                                            const ShardMap::Replica& r) {
  ReplicaKey key{shard, r.node, r.incarnation};
  auto it = conns_.find(key);
  if (it != conns_.end()) return it->second;
  ShardReplica* rep = cluster_.replica(shard, r.node);
  if (!rep || rep->incarnation() != r.incarnation) {
    throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                          "shard map entry is stale");
  }
  const ClusterConfig& cfg = cluster_.config();
  proto::RetryPolicy policy = cfg.client_retry;
  policy.jitter_seed = client_id_ * 7919 + shard * 131 + r.node + 1;
  Conn c;
  c.ch = proto::make_reliable_channel(cfg.client_protocol, node_,
                                      rep->node(), rep->server().processor(),
                                      cfg.client_channel, policy);
  c.caller = std::make_unique<ReliableCaller>(*c.ch, node_, cfg.engine);
  c.stub = std::make_unique<hatshard::HatShardClient>(*c.caller);
  return conns_.emplace(std::move(key), std::move(c)).first->second;
}

ReadViewClient& ClusterClient::view_client(uint32_t shard,
                                           const ShardMap::Replica& r) {
  ReplicaKey key{shard, r.node, r.incarnation};
  auto it = views_.find(key);
  if (it != views_.end()) return *it->second;
  ShardReplica* rep = cluster_.replica(shard, r.node);
  if (!rep || rep->incarnation() != r.incarnation) {
    throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                          "shard map entry is stale");
  }
  auto rv = std::make_unique<ReadViewClient>(
      node_, rep->node(), rep->handler().view().base_remote());
  return *views_.emplace(std::move(key), std::move(rv)).first->second;
}

void ClusterClient::drop_replica(const ShardMap::Replica& dead) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (std::get<1>(it->first) == dead.node &&
        std::get<2>(it->first) == dead.incarnation) {
      it->second.ch->abort();
      retired_.push_back(std::move(it->second));
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = views_.begin(); it != views_.end();) {
    if (std::get<1>(it->first) == dead.node &&
        std::get<2>(it->first) == dead.incarnation) {
      it = views_.erase(it);
    } else {
      ++it;
    }
  }
}

Task<void> ClusterClient::refresh_map() {
  map_ = co_await cluster_.fetch_map();
  node_.counters().add(obs::Ctr::kShardMapRefreshes);
}

Task<void> ClusterClient::failover(const ShardMap::Replica& dead) {
  node_.counters().add(obs::Ctr::kFailovers);
  co_await cluster_.report_down(dead.node, dead.incarnation);
  co_await refresh_map();
  drop_replica(dead);
}

Task<uint64_t> ClusterClient::Put(const std::string& key,
                                  const std::string& value) {
  const uint32_t shard = map_.shard_of(key);
  // One identity for the op's whole life: every retry and every failover
  // replay carries the same (client_id, seq), so the shard's applied-op
  // cache can answer a duplicate with the original version.
  const int64_t seq = ++next_seq_;
  for (int attempt = 0; attempt <= kMaxFailovers; ++attempt) {
    if (map_.shards.at(shard).chain.empty()) {
      throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                            "shard has no live replicas");
    }
    const ShardMap::Replica head = map_.shards[shard].chain.front();
    bool head_died = false;
    try {
      Conn& c = conn_to(shard, head);
      const int64_t v = co_await c.stub->Put(
          key, value, static_cast<int64_t>(client_id_), seq);
      const uint64_t uv = static_cast<uint64_t>(v);
      uint64_t& floor = acked_[key];
      floor = std::max(floor, uv);
      co_return uv;
    } catch (const std::exception&) {
      // Timeouts/retry-exhaustion surface as RpcError; a deposed replica's
      // refusal rides back as a thrift exception reply. Either way the
      // head is useless: re-resolve and replay under the same identity.
      head_died = true;
    }
    if (head_died) co_await failover(head);
  }
  throw proto::RpcError(proto::RpcErrc::kRetriesExhausted,
                        "put still failing after " +
                            std::to_string(kMaxFailovers) + " failovers");
}

Task<ClusterClient::GetResult> ClusterClient::Get(const std::string& key) {
  const uint32_t shard = map_.shard_of(key);
  for (int attempt = 0; attempt <= kMaxFailovers; ++attempt) {
    if (map_.shards.at(shard).chain.empty()) {
      throw proto::RpcError(proto::RpcErrc::kChannelClosed,
                            "shard has no live replicas");
    }
    // One-sided fast path against the tail: one RDMA READ, validated
    // against torn frames and this session's acked-version floor.
    if (cluster_.config().one_sided_reads) {
      const ShardMap::Replica tail = map_.shards[shard].chain.back();
      bool tail_died = false;
      try {
        ReadViewClient& rv = view_client(shard, tail);
        node_.counters().add(obs::Ctr::kOneSidedReads);
        std::optional<ViewRecord> rec = co_await rv.read(key);
        if (rec && rec->version >= acked_floor(key)) {
          uint64_t& floor = acked_[key];
          floor = std::max(floor, rec->version);
          co_return GetResult{std::move(rec->value), rec->version, true,
                              true};
        }
        // Miss, torn, collision, or stale (raced a failover/replication):
        // the RPC path below is authoritative.
        node_.counters().add(obs::Ctr::kOneSidedFallbacks);
      } catch (const proto::RpcError&) {
        tail_died = true;
      }
      if (tail_died) {
        const ShardMap::Replica dead = tail;
        co_await failover(dead);
        continue;
      }
    }
    const ShardMap::Replica head = map_.shards[shard].chain.front();
    bool head_died = false;
    try {
      Conn& c = conn_to(shard, head);
      hatshard::VersionedValue vv = co_await c.stub->Get(key);
      const uint64_t uv = static_cast<uint64_t>(vv.version);
      if (vv.found) {
        uint64_t& floor = acked_[key];
        floor = std::max(floor, uv);
      }
      co_return GetResult{std::move(vv.value), uv, vv.found, false};
    } catch (const std::exception&) {
      head_died = true;
    }
    if (head_died) co_await failover(head);
  }
  throw proto::RpcError(proto::RpcErrc::kRetriesExhausted,
                        "get still failing after " +
                            std::to_string(kMaxFailovers) + " failovers");
}

Task<std::vector<ClusterClient::GetResult>> ClusterClient::MultiGet(
    const std::vector<std::string>& keys) {
  std::vector<GetResult> out;
  out.reserve(keys.size());
  for (const std::string& k : keys) out.push_back(co_await Get(k));
  co_return out;
}

Task<std::vector<uint64_t>> ClusterClient::MultiPut(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<uint64_t> versions;
  versions.reserve(pairs.size());
  for (const auto& [k, v] : pairs) versions.push_back(co_await Put(k, v));
  co_return versions;
}

void ClusterClient::close() {
  for (auto& [key, c] : conns_) c.ch->abort();
  for (auto& c : retired_) c.ch->abort();
}

}  // namespace hatrpc::kv
