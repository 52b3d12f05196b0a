// Cluster-scale HatKV under seeded faults (DESIGN.md §11): YCSB A/B across
// a sharded, chain-replicated cluster while the FaultPlan crashes a server
// node mid-run and restarts it later. Emits BENCH_cluster.json with
// throughput and latency percentiles per phase (before / during / after the
// crash window), the failover time, and the safety invariants the CI chaos
// job asserts: zero lost acknowledged writes and a clean fabric audit.
//
// The run IS the experiment (one seeded timeline), so same-seed runs are
// byte-identical (the report's `host` block is empty).
//
//   bench_cluster --seed 1 --client-nodes 100 --records 4000
//                 --out BENCH_cluster.json

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "kv/cluster.h"
#include "obs/histogram.h"
#include "report.h"
#include "ycsb/ycsb.h"

namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using hatbench::Fixed;
using hatbench::Json;
using sim::Task;

constexpr uint32_t kShards = 8;
constexpr uint32_t kReplication = 2;
constexpr uint32_t kServerNodes = 8;
constexpr char kWorkloads[] = {'a', 'b'};
// Fault schedule, relative to the start of the run phase (virtual us).
constexpr int64_t kCrashAtUs = 1500;
constexpr int64_t kRecoverAtUs = 3000;
constexpr int64_t kRunUntilUs = 6000;

struct Options {
  uint64_t seed = 1;
  uint32_t client_nodes = 100;
  uint64_t records = 4000;
  std::string out = "BENCH_cluster.json";
};

struct PhaseStats {
  obs::Histogram lat;
  uint64_t ops = 0;
};

/// Everything the client tasks and the control task share about the
/// seeded timeline.
struct RunShared {
  sim::Time run_start{};
  sim::Time crash_at{};
  sim::Time restart_at{};
  sim::Time run_end{};
  std::optional<sim::Time> recover_done;
  std::set<uint32_t> affected;  // shards whose chain head was the victim
  sim::Event start;             // released once the fault plan is armed
  std::optional<sim::Time> first_recovered_write;
  PhaseStats before, during, after;
  // Acked-write ledger: key -> (highest acked version, its value).
  std::map<std::string, std::pair<uint64_t, std::string>> ledger;
  uint64_t op_errors = 0;
  // Set by the control task.
  sim::Duration load_span{}, run_span{};
  sim::Duration recovery_span{};  // crash -> recover() finished
  uint64_t lost_acked_writes = 0, replica_lag = 0;

  explicit RunShared(sim::Simulator& sim) : start(sim) {}

  PhaseStats& phase_of(sim::Time t) {
    if (t <= crash_at) return before;
    if (recover_done && t >= *recover_done) return after;
    return during;
  }
};

ycsb::WorkloadSpec spec_for(char workload, uint64_t records) {
  ycsb::WorkloadSpec spec = workload == 'a' ? ycsb::WorkloadSpec::workload_a()
                                            : ycsb::WorkloadSpec::workload_b();
  spec.record_count = records;
  return spec;
}

Task<void> client_task(sim::Simulator& sim, kv::ClusterClient& client,
                       ycsb::WorkloadSpec spec, const kv::ShardMap& routing,
                       uint32_t c, uint32_t clients, RunShared& sh,
                       sim::WaitGroup& loaded, sim::WaitGroup& done) {
  ycsb::WorkloadGenerator gen(spec, uint64_t(c) * 101 + 7);
  sim::Rng vrng(uint64_t(c) * 13 + 1);
  // Load phase: each client loads its stripe of the keyspace.
  for (uint64_t k = c; k < spec.record_count; k += clients) {
    std::string key = gen.key_of(k);
    std::string value = gen.make_value(vrng);
    uint64_t v = co_await client.Put(key, value);
    auto& slot = sh.ledger[key];
    if (v > slot.first) slot = {v, std::move(value)};
  }
  loaded.done();
  co_await sh.start.wait();
  // Run phase: fixed virtual-time window so the crash lands mid-run, kept
  // open past recovery (run_end is stretched when recover() finishes) so
  // the post-recovery phase is always exercised.
  while (sim.now() < sh.run_end || !sh.recover_done) {
    ycsb::Op op = gen.next();
    const sim::Time t0 = sim.now();
    bool wrote = false;
    try {
      switch (op.type) {
        case ycsb::OpType::kGet:
          co_await client.Get(op.keys[0]);
          break;
        case ycsb::OpType::kPut: {
          uint64_t v = co_await client.Put(op.keys[0], op.values[0]);
          auto& slot = sh.ledger[op.keys[0]];
          if (v > slot.first) slot = {v, op.values[0]};
          wrote = true;
          break;
        }
        case ycsb::OpType::kMultiGet:
          co_await client.MultiGet(op.keys);
          break;
        case ycsb::OpType::kMultiPut: {
          std::vector<std::pair<std::string, std::string>> pairs;
          pairs.reserve(op.keys.size());
          for (size_t j = 0; j < op.keys.size(); ++j)
            pairs.emplace_back(op.keys[j], op.values[j]);
          std::vector<uint64_t> versions = co_await client.MultiPut(pairs);
          for (size_t j = 0; j < pairs.size(); ++j) {
            auto& slot = sh.ledger[pairs[j].first];
            if (versions[j] > slot.first)
              slot = {versions[j], pairs[j].second};
          }
          wrote = true;
          break;
        }
      }
    } catch (const std::exception&) {
      ++sh.op_errors;  // an op that exhausted every failover; expect none
      continue;
    }
    const sim::Time t1 = sim.now();
    PhaseStats& ph = sh.phase_of(t1);
    ++ph.ops;
    ph.lat.record(t1 - t0);
    // Failover time: first acknowledged WRITE on a shard that lost its
    // head, measured from the crash instant (reads can ride the live tail
    // one-sided, so only writes prove the chain re-formed).
    if (wrote && t1 > sh.crash_at && !sh.first_recovered_write &&
        sh.affected.count(routing.shard_of(op.keys[0]))) {
      sh.first_recovered_write = t1;
    }
  }
  done.done();
}

double kops(uint64_t ops, sim::Duration span) {
  double secs = sim::to_seconds(span);
  return secs > 0 ? double(ops) / secs / 1e3 : 0.0;
}

Fixed us(sim::Duration d) { return Fixed{sim::to_micros(d), 3}; }

Json phase_json(const PhaseStats& ph, sim::Duration span) {
  return Json::object()
      .put("ops", ph.ops)
      .put("kops", Fixed{kops(ph.ops, span), 3})
      .put("p50_us", Fixed{double(ph.lat.percentile_ns(0.50)) / 1e3, 3})
      .put("p99_us", Fixed{double(ph.lat.percentile_ns(0.99)) / 1e3, 3})
      .put("mean_us", Fixed{ph.lat.mean_ns() / 1e3, 3});
}

/// Runs one YCSB workload through the crash schedule and returns its
/// report entry; `ok` is false if a safety invariant failed.
Json run_workload(char workload, const Options& opt, bool& ok) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  if (!fabric.check().on())
    fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
  std::vector<verbs::Node*> servers;
  for (uint32_t i = 0; i < kServerNodes; ++i)
    servers.push_back(fabric.add_node());
  std::vector<verbs::Node*> client_nodes;
  for (uint32_t i = 0; i < opt.client_nodes; ++i)
    client_nodes.push_back(fabric.add_node());

  kv::ClusterConfig ccfg;
  ccfg.shards = kShards;
  ccfg.replication = kReplication;
  kv::Cluster cluster(fabric, servers, ccfg);
  const kv::ShardMap routing = cluster.map();  // shard_of is epoch-stable

  std::vector<std::unique_ptr<kv::ClusterClient>> clients;
  for (uint32_t c = 0; c < opt.client_nodes; ++c)
    clients.push_back(std::make_unique<kv::ClusterClient>(*client_nodes[c],
                                                          cluster, c + 1));

  RunShared sh(sim);
  sim::WaitGroup loaded(sim), done(sim);
  loaded.add(opt.client_nodes);
  done.add(opt.client_nodes);
  const ycsb::WorkloadSpec spec = spec_for(workload, opt.records);
  for (uint32_t c = 0; c < opt.client_nodes; ++c) {
    sim.spawn(client_task(sim, *clients[c], spec, routing, c,
                          opt.client_nodes, sh, loaded, done));
  }

  // Created by the control task, destroyed only after sim.run() drains:
  // tearing a client down while its aborted channels' dispatch tasks are
  // still unwinding inside the simulator is a use-after-free.
  std::unique_ptr<kv::ClusterClient> verifier;
  const uint32_t victim = 0;  // cluster-local node index AND fabric node id
  // Control task: arm the fault plan once loading finishes (so the crash
  // deterministically lands mid-run), drive recovery, verify the ledger.
  sim.spawn([](sim::Simulator& sim, verbs::Fabric& fabric,
               kv::Cluster& cluster, RunShared& sh, sim::WaitGroup& loaded,
               sim::WaitGroup& done, const Options& opt, uint32_t victim,
               std::vector<std::unique_ptr<kv::ClusterClient>>& clients,
               std::vector<verbs::Node*>& client_nodes,
               std::unique_ptr<kv::ClusterClient>& verifier) -> Task<void> {
    co_await loaded.wait();
    sh.run_start = sim.now();
    sh.load_span = sh.run_start - sim::Time{};
    sh.crash_at = sh.run_start + std::chrono::microseconds(kCrashAtUs);
    sh.restart_at = sh.run_start + std::chrono::microseconds(kRecoverAtUs);
    sh.run_end = sh.run_start + std::chrono::microseconds(kRunUntilUs);
    for (uint32_t s = 0; s < cluster.map().shards.size(); ++s) {
      const auto& chain = cluster.map().shards[s].chain;
      if (!chain.empty() && chain.front().node == victim)
        sh.affected.insert(s);
    }
    auto plan = std::make_unique<verbs::FaultPlan>(opt.seed);
    plan->crash_node_at(cluster.node(victim)->id(), sh.crash_at);
    plan->restart_node_at(cluster.node(victim)->id(), sh.restart_at);
    fabric.set_fault_plan(std::move(plan));
    sh.start.set();

    // Rejoin shortly after the hardware restart fires.
    co_await sim.sleep_until(sh.restart_at + 10us);
    co_await cluster.recover(victim);
    sh.recover_done = sim.now();
    sh.recovery_span = *sh.recover_done - sh.crash_at;
    // Resync can outlast the nominal window; stretch the run so the
    // post-recovery phase is always measured for run_until - recover_at.
    sh.run_end = std::max(
        sh.run_end, *sh.recover_done +
                        std::chrono::microseconds(kRunUntilUs - kRecoverAtUs));

    co_await done.wait();
    sh.run_span = sim.now() - sh.run_start;
    // Quiesce, then verify: every acknowledged write must be readable at
    // its acked (or a newer) version, end-to-end and on every live
    // replica of its chain.
    co_await sim.sleep(200us);
    verifier = std::make_unique<kv::ClusterClient>(*client_nodes[0], cluster,
                                                   1'000'000);
    for (const auto& [key, acked] : sh.ledger) {
      kv::ClusterClient::GetResult got = co_await verifier->Get(key);
      if (!got.found || got.version < acked.first ||
          (got.version == acked.first && got.value != acked.second)) {
        ++sh.lost_acked_writes;
      }
      const uint32_t s = cluster.map().shard_of(key);
      for (const auto& r : cluster.map().shards[s].chain) {
        kv::ShardReplica* rep = cluster.replica(s, r.node);
        if (!rep) continue;
        auto rec = rep->handler().peek(key);
        if (!rec || rec->version < acked.first) ++sh.replica_lag;
      }
    }
    verifier->close();
    for (auto& c : clients) c->close();
    cluster.stop();
  }(sim, fabric, cluster, sh, loaded, done, opt, victim, clients,
    client_nodes, verifier));

  sim.run();

  const uint64_t total_ops = sh.before.ops + sh.during.ops + sh.after.ops;
  std::optional<sim::Duration> failover_time;
  if (sh.first_recovered_write)
    failover_time = *sh.first_recovered_write - sh.crash_at;
  auto sum = [&](obs::Ctr ctr) {
    uint64_t t = 0;
    for (verbs::Node* n : servers) t += n->counters().get(ctr);
    for (verbs::Node* n : client_nodes) t += n->counters().get(ctr);
    return t;
  };
  const uint64_t failovers = sum(obs::Ctr::kFailovers);
  const verbs::AuditReport audit = fabric.audit();
  ok = sh.lost_acked_writes == 0 && sh.replica_lag == 0 &&
       sh.op_errors == 0 && audit.clean();

  const sim::Duration before_span = std::chrono::microseconds(kCrashAtUs);
  const sim::Duration after_span =
      std::max(sh.run_span - before_span - sh.recovery_span,
               sim::Duration::zero());
  Json failover = Json::object().put("detected", failover_time.has_value());
  if (failover_time)
    failover.put("first_write_after_crash_us", us(*failover_time));
  else
    failover.put("first_write_after_crash_us", nullptr);
  Json fault_trace = Json::array();
  if (fabric.fault_plan())
    for (const std::string& line : fabric.fault_plan()->trace())
      fault_trace.push(line);

  char first_write[32] = "n/a";
  if (failover_time)
    std::snprintf(first_write, sizeof first_write, "%.3f",
                  sim::to_micros(*failover_time));
  std::printf(
      "workload %c: ops=%llu kops=%.3f failovers=%llu "
      "failover_first_write_us=%s lost_acked_writes=%llu replica_lag=%llu "
      "audit=%s\n",
      workload, static_cast<unsigned long long>(total_ops),
      kops(total_ops, sh.run_span), static_cast<unsigned long long>(failovers),
      first_write, static_cast<unsigned long long>(sh.lost_acked_writes),
      static_cast<unsigned long long>(sh.replica_lag),
      audit.clean() ? "clean" : "DIRTY");

  return Json::object()
      .put("workload", std::string(1, workload))
      .put("totals",
           Json::object()
               .put("ops", total_ops)
               .put("kops", Fixed{kops(total_ops, sh.run_span), 3})
               .put("load_span_us", us(sh.load_span))
               .put("run_span_us", us(sh.run_span))
               .put("failovers", failovers)
               .put("map_refreshes", sum(obs::Ctr::kShardMapRefreshes))
               .put("one_sided_reads", sum(obs::Ctr::kOneSidedReads))
               .put("one_sided_fallbacks", sum(obs::Ctr::kOneSidedFallbacks))
               .put("chain_forwards", sum(obs::Ctr::kChainForwards))
               .put("replays", sum(obs::Ctr::kReplays))
               .put("resynced_records", cluster.resynced_records())
               .put("retry_attempts", sum(obs::Ctr::kRetryAttempts))
               .put("reconnects", sum(obs::Ctr::kReconnects))
               .put("deadline_exceeded", sum(obs::Ctr::kDeadlineExceeded)))
      .put("phases", Json::object()
                         .put("before", phase_json(sh.before, before_span))
                         .put("during", phase_json(sh.during, sh.recovery_span))
                         .put("after", phase_json(sh.after, after_span)))
      .put("failover", failover.put("recovery_span_us", us(sh.recovery_span)))
      .put("invariants", Json::object()
                             .put("acked_writes", sh.ledger.size())
                             .put("lost_acked_writes", sh.lost_acked_writes)
                             .put("replica_lag", sh.replica_lag)
                             .put("op_errors", sh.op_errors)
                             .put("audit_clean", audit.clean())
                             .put("audit_violations", audit.violations)
                             .put("leaked_tasks", sim.live_tasks())
                             .put("fault_trace", fault_trace));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  hatbench::parse_flags(argc, argv,
                        {{"--seed", &opt.seed},
                         {"--client-nodes", &opt.client_nodes},
                         {"--records", &opt.records},
                         {"--out", &opt.out}});

  hatbench::Report rep{"cluster", opt.seed};
  rep.config.put("shards", kShards)
      .put("replication", kReplication)
      .put("server_nodes", kServerNodes)
      .put("client_nodes", opt.client_nodes)
      .put("records", opt.records)
      .put("crash_at_us", kCrashAtUs)
      .put("recover_at_us", kRecoverAtUs)
      .put("run_until_us", kRunUntilUs);
  Json workloads = Json::array();
  bool ok = true;
  for (char workload : kWorkloads) {
    bool workload_ok = false;
    workloads.push(run_workload(workload, opt, workload_ok));
    ok &= workload_ok;
  }
  rep.virt.put("workloads", workloads);
  if (!rep.write(opt.out)) return 1;
  std::printf("wrote %s\n", opt.out.c_str());
  if (!ok) {
    std::fprintf(stderr, "INVARIANT VIOLATION (see %s)\n", opt.out.c_str());
    return 1;
  }
  return 0;
}
