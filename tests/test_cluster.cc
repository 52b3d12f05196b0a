// Cluster-scale HatKV (DESIGN.md §11): consistent-hash shard map carried
// through the hint machinery, chain replication with version-stamped
// records, Storm-style one-sided reads with torn/stale validation, and
// client-driven failover under seeded node crashes. Invariants:
//   * the shard map round-trips byte-exact through its hint encoding and
//     spreads keys across every shard;
//   * an acknowledged Put is durable on EVERY live replica of its chain;
//   * a replayed (client_id, seq) is answered from the applied-op cache
//     with the original version — never re-executed;
//   * a deposed replica refuses every op (the zombie-head fence);
//   * torn one-sided snapshots are detected and rejected;
//   * a crash → restart → resync cycle leaves the rejoined replica able to
//     serve the full keyspace after the OTHER replica dies;
//   * same-seed crash runs are byte-identical.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kv/cluster.h"

namespace hatrpc {
namespace {

using sim::Simulator;
using sim::Task;
using verbs::FaultPlan;
using namespace std::chrono_literals;

TEST(ShardMap, EncodeDecodeRoundTrip) {
  kv::ShardMap m;
  m.epoch = 42;
  m.vnodes = 8;
  m.shards.resize(3);
  m.shards[0].chain = {{0, 1}, {1, 1}};
  m.shards[1].chain = {{1, 2}, {2, 1}};
  m.shards[2].chain = {};  // an unavailable shard survives the trip too
  m.build_ring();
  std::string enc = m.encode();
  kv::ShardMap d = kv::ShardMap::decode(enc);
  EXPECT_EQ(d.epoch, 42u);
  EXPECT_EQ(d.vnodes, 8u);
  ASSERT_EQ(d.shards.size(), 3u);
  EXPECT_EQ(d.shards[0].chain, m.shards[0].chain);
  EXPECT_EQ(d.shards[1].chain, m.shards[1].chain);
  EXPECT_TRUE(d.shards[2].chain.empty());
  EXPECT_EQ(d.encode(), enc);
  // Routing is a pure function of the encoded bytes.
  for (int i = 0; i < 64; ++i) {
    std::string key = "user" + std::to_string(i * 977);
    EXPECT_EQ(d.shard_of(key), m.shard_of(key));
  }
}

TEST(ShardMap, RejectsMalformedEncodings) {
  EXPECT_THROW(kv::ShardMap::decode("not-a-map"), hint::HintError);
  EXPECT_THROW(kv::ShardMap::decode("hsm1|1|16"), hint::HintError);
  EXPECT_THROW(kv::ShardMap::decode("hsm1|1|16|2|0:x"), hint::HintError);
  EXPECT_THROW(kv::ShardMap::decode(""), hint::HintError);
}

TEST(ShardMap, ConsistentHashSpreadsKeys) {
  kv::ShardMap m;
  m.vnodes = 16;
  m.shards.resize(8);
  m.build_ring();
  std::map<uint32_t, int> hits;
  for (int i = 0; i < 4000; ++i)
    ++hits[m.shard_of("user" + std::to_string(i))];
  EXPECT_EQ(hits.size(), 8u) << "some shard owns no keys";
  for (const auto& [s, n] : hits)
    EXPECT_GT(n, 100) << "shard " << s << " is starved";
}

/// Small-cluster fixture: `servers` fabric nodes, a client node, and one
/// ClusterClient. Test bodies run inside the simulator; the client object
/// outlives sim.run() (its channels' dispatch tasks unwind at later sim
/// events).
struct ClusterRig {
  Simulator sim;
  verbs::Fabric fabric{sim};
  std::vector<verbs::Node*> servers;
  verbs::Node* client_node = nullptr;
  std::unique_ptr<kv::Cluster> cluster;
  std::unique_ptr<kv::ClusterClient> client;

  explicit ClusterRig(uint32_t nodes, kv::ClusterConfig cfg = small_config()) {
    if (!fabric.check().on())
      fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
    for (uint32_t i = 0; i < nodes; ++i) servers.push_back(fabric.add_node());
    client_node = fabric.add_node();
    cluster = std::make_unique<kv::Cluster>(fabric, servers, cfg);
    client = std::make_unique<kv::ClusterClient>(*client_node, *cluster, 1);
  }

  static kv::ClusterConfig small_config() {
    kv::ClusterConfig cfg;
    cfg.shards = 4;
    cfg.replication = 2;
    return cfg;
  }

  void finish() {
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u) << "cluster run leaked tasks";
    verbs::AuditReport audit = fabric.audit();
    EXPECT_TRUE(audit.clean()) << audit.str();
    EXPECT_EQ(audit.violations, 0u) << audit.str();
  }
};

TEST(Cluster, PutGetAcrossShardsWithReplication) {
  ClusterRig rig(3);
  sim::WaitGroup wg(rig.sim);
  wg.add(1);
  rig.sim.spawn([](ClusterRig& rig, sim::WaitGroup& wg) -> Task<void> {
    for (int i = 0; i < 40; ++i) {
      std::string key = "key" + std::to_string(i);
      uint64_t v = co_await rig.client->Put(key, "val" + std::to_string(i));
      EXPECT_GT(v, 0u);
    }
    for (int i = 0; i < 40; ++i) {
      std::string key = "key" + std::to_string(i);
      kv::ClusterClient::GetResult got = co_await rig.client->Get(key);
      EXPECT_TRUE(got.found) << key;
      EXPECT_EQ(got.value, "val" + std::to_string(i));
    }
    rig.client->close();
    rig.cluster->stop();
    wg.done();
  }(rig, wg));
  rig.finish();
  // The keyspace crossed several shards and the one-sided path served
  // at least part of the read traffic.
  std::set<uint32_t> used;
  for (int i = 0; i < 40; ++i)
    used.insert(rig.cluster->map().shard_of("key" + std::to_string(i)));
  EXPECT_GT(used.size(), 1u);
  EXPECT_GT(rig.client_node->counters().get(obs::Ctr::kOneSidedReads), 0u);

  // Chain replication: every acknowledged record is on BOTH replicas of
  // its shard at the same version.
  for (int i = 0; i < 40; ++i) {
    std::string key = "key" + std::to_string(i);
    const uint32_t s = rig.cluster->map().shard_of(key);
    const auto& chain = rig.cluster->map().shards[s].chain;
    ASSERT_EQ(chain.size(), 2u);
    std::vector<uint64_t> versions;
    for (const auto& r : chain) {
      kv::ShardReplica* rep = rig.cluster->replica(s, r.node);
      ASSERT_NE(rep, nullptr);
      auto rec = rep->handler().peek(key);
      ASSERT_TRUE(rec.has_value()) << key << " missing on node " << r.node;
      versions.push_back(rec->version);
    }
    EXPECT_EQ(versions[0], versions[1]) << key;
  }
}

TEST(Cluster, DuplicatePutIsAnsweredFromAppliedOpCache) {
  ClusterRig rig(2);
  rig.sim.spawn([](ClusterRig& rig) -> Task<void> {
    const uint32_t s = rig.cluster->map().shard_of("dup-key");
    const uint32_t head = rig.cluster->map().shards[s].chain.front().node;
    kv::ShardHandler& h = rig.cluster->replica(s, head)->handler();
    // The same (client_id, seq) twice — the cross-channel analogue of a
    // failover replay. Second call must return the first version without
    // re-executing.
    int64_t v1 = co_await h.Put("dup-key", "v", 7, 3);
    uint64_t applied_after_first = h.applied_ops();
    int64_t v2 = co_await h.Put("dup-key", "v", 7, 3);
    EXPECT_EQ(v1, v2);
    EXPECT_EQ(h.applied_ops(), applied_after_first);
    EXPECT_EQ(h.replays(), 1u);
    // A different seq from the same client is a new op.
    int64_t v3 = co_await h.Put("dup-key", "v2", 7, 4);
    EXPECT_GT(v3, v1);
    rig.client->close();
    rig.cluster->stop();
  }(rig));
  rig.finish();
}

TEST(Cluster, DeposedReplicaRefusesEveryOp) {
  // The zombie-head fence: once the directory removes a replica from its
  // chain, that replica must fail ops instead of solo-acking writes into
  // state nobody will ever read (a client with a stale map can reconnect
  // to a restarted node and still reach the old handler).
  ClusterRig rig(2);
  rig.sim.spawn([](ClusterRig& rig) -> Task<void> {
    kv::ShardHandler& h = rig.cluster->replica(0, 0)->handler();
    co_await h.Put("k", "v", 1, 1);
    h.depose();
    EXPECT_TRUE(h.deposed());
    bool put_threw = false, get_threw = false, rep_threw = false;
    try {
      co_await h.Put("k2", "v2", 1, 2);
    } catch (const proto::RpcError&) {
      put_threw = true;
    }
    try {
      co_await h.Get("k");
    } catch (const proto::RpcError&) {
      get_threw = true;
    }
    try {
      co_await h.Replicate("k3", "v3", 99, 1, 3);
    } catch (const proto::RpcError&) {
      rep_threw = true;
    }
    EXPECT_TRUE(put_threw);
    EXPECT_TRUE(get_threw);
    EXPECT_TRUE(rep_threw);
    rig.client->close();
    rig.cluster->stop();
  }(rig));
  rig.finish();
}

TEST(Cluster, TornSlotFallsBackNeverServesMixedRecord) {
  // Write a deliberately torn slot (head != tail) straight into the view
  // region: the one-sided reader must reject it, and rejection must not
  // leak the half-written value.
  ClusterRig rig(2);
  rig.sim.spawn([](ClusterRig& rig) -> Task<void> {
    kv::ShardHandler& h = rig.cluster->replica(0, 0)->handler();
    co_await h.view().publish("torn-key", "good-value", 5);
    kv::ReadViewClient rv(*rig.client_node, *rig.servers[0],
                          h.view().base_remote());
    // Intact slot first: the READ path serves it.
    auto ok = co_await rv.read("torn-key");
    EXPECT_TRUE(ok.has_value());
    if (ok) {
      EXPECT_EQ(ok->value, "good-value");
      EXPECT_EQ(ok->version, 5u);
    }
    // Now tear it: bump the head version word only, as a writer that has
    // not reached the tail store yet would.
    std::byte* slot =
        h.view().mr()->data() +
        size_t(kv::ReadView::bucket_of("torn-key")) * kv::ReadView::kSlotBytes;
    uint64_t head = 6;
    std::memcpy(slot, &head, 8);
    auto torn = co_await rv.read("torn-key");
    EXPECT_FALSE(torn.has_value()) << "torn slot served one-sided";
    // Foreign resident: a key hashing elsewhere must miss, not mismatch.
    auto foreign = co_await rv.read("some-other-key");
    EXPECT_FALSE(foreign.has_value());
    rig.client->close();
    rig.cluster->stop();
  }(rig));
  rig.finish();
}

TEST(Cluster, StaleOneSidedReadFallsBackToRpc) {
  // A client whose acked floor is ahead of the tail's published version
  // (e.g. its read raced replication) must not accept the stale snapshot.
  ClusterRig rig(2);
  rig.sim.spawn([](ClusterRig& rig) -> Task<void> {
    uint64_t v1 = co_await rig.client->Put("stale-key", "v1");
    EXPECT_GT(v1, 0u);
    // Regress the TAIL's published view to an older version while the
    // authoritative record stays at v1 (replication lag in miniature).
    const uint32_t s = rig.cluster->map().shard_of("stale-key");
    const uint32_t tail = rig.cluster->map().shards[s].chain.back().node;
    kv::ShardHandler& h = rig.cluster->replica(s, tail)->handler();
    co_await h.view().publish("stale-key", "old-value", v1 - 1);
    kv::ClusterClient::GetResult got = co_await rig.client->Get("stale-key");
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "v1") << "stale one-sided value served";
    EXPECT_GE(got.version, v1);
    EXPECT_FALSE(got.one_sided);
    rig.client->close();
    rig.cluster->stop();
  }(rig));
  rig.finish();
  EXPECT_GT(rig.client_node->counters().get(obs::Ctr::kOneSidedFallbacks), 0u);
}

TEST(Cluster, FailoverPreservesEveryAckedWrite) {
  // Crash the head of shard 0 mid-workload: clients must fail over to the
  // surviving replica, replay under the same identity, and every write
  // acked before OR after the crash must remain readable at (at least)
  // its acked version.
  ClusterRig rig(3);
  std::map<std::string, uint64_t> acked;
  rig.sim.spawn(
      [](ClusterRig& rig, std::map<std::string, uint64_t>& acked) -> Task<void> {
        auto plan = std::make_unique<FaultPlan>(17);
        plan->crash_node_at(rig.servers[0]->id(), sim::Time(800us));
        rig.fabric.set_fault_plan(std::move(plan));
        for (int i = 0; i < 120; ++i) {
          std::string key = "fk" + std::to_string(i);
          uint64_t v = co_await rig.client->Put(key, "fv" + std::to_string(i));
          uint64_t& floor = acked[key];
          floor = std::max(floor, v);
          co_await rig.sim.sleep(15us);  // stretch the run across the crash
        }
        for (const auto& [key, version] : acked) {
          kv::ClusterClient::GetResult got = co_await rig.client->Get(key);
          EXPECT_TRUE(got.found) << key;
          EXPECT_GE(got.version, version) << key;
        }
        rig.client->close();
        rig.cluster->stop();
      }(rig, acked));
  rig.finish();
  EXPECT_EQ(acked.size(), 120u);
  EXPECT_GT(rig.client_node->counters().get(obs::Ctr::kFailovers), 0u);
  EXPECT_GT(rig.client_node->counters().get(obs::Ctr::kShardMapRefreshes), 0u);
  // The crashed node is out of every chain.
  for (const auto& shard : rig.cluster->map().shards) {
    for (const auto& r : shard.chain) EXPECT_NE(r.node, 0u);
  }
}

TEST(Cluster, CrashRestartResyncThenSurviveSecondCrash) {
  // The full recovery story: node 0 dies, restarts, rejoins every one of
  // its shards as tail, and drains a resync stream. Then the OTHER
  // replica of shard 0's chain dies — the rejoined node must serve the
  // whole keyspace alone, proving the resync really carried the data.
  ClusterRig rig(2);
  std::map<std::string, uint64_t> acked;
  rig.sim.spawn(
      [](ClusterRig& rig, std::map<std::string, uint64_t>& acked) -> Task<void> {
        auto plan = std::make_unique<FaultPlan>(23);
        plan->crash_node_at(rig.servers[0]->id(), sim::Time(500us));
        plan->restart_node_at(rig.servers[0]->id(), sim::Time(1500us));
        rig.fabric.set_fault_plan(std::move(plan));
        for (int i = 0; i < 60; ++i) {
          std::string key = "rk" + std::to_string(i);
          uint64_t v = co_await rig.client->Put(key, "rv" + std::to_string(i));
          uint64_t& floor = acked[key];
          floor = std::max(floor, v);
          co_await rig.sim.sleep(15us);
        }
        co_await rig.sim.sleep_until(sim::Time(1600us));
        co_await rig.cluster->recover(0);
        EXPECT_GT(rig.cluster->resynced_records(), 0u);
        EXPECT_EQ(rig.cluster->incarnation(0), 2u);
        // Now kill node 1. Every shard's only survivor is the rejoined
        // node 0 (incarnation 2).
        rig.servers[1]->crash();
        co_await rig.cluster->report_down(1, 1);
        for (const auto& [key, version] : acked) {
          kv::ClusterClient::GetResult got = co_await rig.client->Get(key);
          EXPECT_TRUE(got.found) << key;
          EXPECT_GE(got.version, version) << key;
        }
        rig.client->close();
        rig.cluster->stop();
      }(rig, acked));
  rig.finish();
  for (const auto& shard : rig.cluster->map().shards) {
    ASSERT_EQ(shard.chain.size(), 1u);
    EXPECT_EQ(shard.chain[0].node, 0u);
    EXPECT_EQ(shard.chain[0].incarnation, 2u);
  }
}

TEST(Cluster, ShardMapRidesTheHintChannel) {
  // Clients learn routing the same way they learn protocol hints: a
  // service-level kShardMap entry whose raw value decodes to the map.
  ClusterRig rig(2);
  hint::ServiceHints h = rig.cluster->hints();
  const hint::Value* v =
      h.lookup("Put", hint::Key::kShardMap, hint::Perspective::kClient);
  ASSERT_NE(v, nullptr);
  kv::ShardMap decoded = kv::ShardMap::decode(v->raw);
  EXPECT_EQ(decoded.encode(), rig.cluster->map().encode());
  // And the generated per-function protocol hints still resolve beside it.
  EXPECT_NE(h.lookup("Get", hint::Key::kPerfGoal, hint::Perspective::kClient),
            nullptr);
  rig.client->close();
  rig.cluster->stop();
  rig.finish();
}

TEST(Cluster, SameSeedCrashRunsAreDeterministic) {
  auto run = [](uint64_t seed) {
    ClusterRig rig(2);
    rig.sim.spawn([](ClusterRig& rig) -> Task<void> {
      auto plan = std::make_unique<FaultPlan>(31);
      plan->crash_node_at(rig.servers[0]->id(), sim::Time(400us));
      plan->restart_node_at(rig.servers[0]->id(), sim::Time(900us));
      rig.fabric.set_fault_plan(std::move(plan));
      for (int i = 0; i < 40; ++i) {
        std::string key = "dk" + std::to_string(i);
        co_await rig.client->Put(key, "dv" + std::to_string(i));
        co_await rig.client->Get(key);
        co_await rig.sim.sleep(20us);
      }
      co_await rig.cluster->recover(0);
      rig.client->close();
      rig.cluster->stop();
    }(rig));
    rig.finish();
    return std::tuple(rig.fabric.fault_plan()->trace(),
                      rig.sim.events_processed(),
                      rig.client_node->counters().get(obs::Ctr::kFailovers),
                      rig.cluster->map().encode());
  };
  auto a = run(9);
  auto b = run(9);
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<2>(a), 0u) << "crash schedule never triggered failover";
}

}  // namespace
}  // namespace hatrpc
