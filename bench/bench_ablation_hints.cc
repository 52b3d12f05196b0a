// Ablations of the design choices behind the hint scheme:
//   * Threshold  — the Hybrid-EagerRNDV eager/rendezvous switch (§4.3 fixes
//     it at 4 KB): sweep the threshold for a 16 KB workload;
//   * Numa       — NUMA binding on/off at under-subscription (§5.2 binds
//     only there);
//   * Readers    — the HatKV reader-table sizing from the concurrency hint
//     (§4.4): an undersized table turns into queueing delay;
//   * Commit     — sync vs group commits for write bursts (§4.4 "commit
//     strategies off the critical path").
// Rows give simulated nanoseconds: a mean call latency (`latency_ns`) or a
// burst's span (`span_ns`).
//
//   bench_ablation_hints [--out F] [--filter S]
#include "common.h"

#include "kv/hatkv.h"

namespace {

using namespace hatbench;

// --- (a) eager/rendezvous threshold ---------------------------------------

sim::Duration threshold_latency(uint32_t threshold) {
  constexpr size_t kBytes = 16 << 10;
  Testbed bed;
  proto::ChannelConfig cfg;
  cfg.rndv_threshold = threshold;
  cfg.max_msg = 1 << 20;
  auto ch = proto::make_channel(proto::ProtocolKind::kHybridEagerRndv,
                                *bed.client_node(0), *bed.server,
                                checksum_handler(*bed.server), cfg);
  sim::Time total{};
  bed.sim.spawn([](Testbed& bed, proto::RpcChannel& ch,
                   sim::Time& total) -> Task<void> {
    proto::Buffer payload(kBytes, std::byte{0x3c});
    for (int i = 0; i < 32; ++i)
      (co_await ch.call(payload, uint32_t(kBytes))).value();
    total = bed.sim.now();
    ch.shutdown();
  }(bed, *ch, total));
  bed.sim.run();
  return total / 32;
}

// --- (c)/(d) HatKV backend hints --------------------------------------------

sim::Duration run_kv_burst(uint32_t max_readers, bool sync_commits,
                           double get_ratio) {
  using namespace hatrpc;
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* sn = fabric.add_node();
  kv::HatKVConfig cfg = kv::HatKVConfig::from_hints(hatkv::HatKV_hints());
  cfg.max_readers = max_readers;
  cfg.sync_commits = sync_commits;
  kv::HatKVServer server(*sn, {}, cfg);
  constexpr int kClients = 64;
  std::vector<std::unique_ptr<core::HatConnection>> conns;
  std::vector<verbs::Node*> cnodes;
  for (int i = 0; i < 4; ++i) cnodes.push_back(fabric.add_node());
  sim::WaitGroup wg(sim);
  wg.add(kClients);
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<core::HatConnection>(
        *cnodes[size_t(c) % 4], server.server()));
    sim.spawn([](core::HatConnection& conn, int c, double get_ratio,
                 sim::WaitGroup& wg) -> Task<void> {
      hatkv::HatKVClient client(conn);
      sim::Rng rng(uint64_t(c) * 31 + 5);
      std::string value(1000, 'v');
      for (int i = 0; i < 30; ++i) {
        if (rng.uniform01() < get_ratio) {
          // Batched reads hold a reader slot for the whole storage scan.
          std::vector<std::string> keys;
          for (int k = 0; k < 10; ++k)
            keys.push_back("k" + std::to_string(rng.bounded(512)));
          co_await client.MultiGet(keys);
        } else {
          co_await client.Put("k" + std::to_string(rng.bounded(512)), value);
        }
      }
      wg.done();
    }(*conns.back(), c, get_ratio, wg));
  }
  sim::Time end{};
  sim.spawn([](sim::Simulator& sim, sim::WaitGroup& wg, sim::Time& end,
               kv::HatKVServer& server) -> Task<void> {
    co_await wg.wait();
    end = sim.now();
    server.stop();
  }(sim, wg, end, server));
  sim.run();
  return end;
}

}  // namespace

int main(int argc, char** argv) {
  Figure fig("ablation_hints", argc, argv);
  for (uint32_t threshold : {1u << 10, 4u << 10, 16u << 10, 64u << 10}) {
    fig.add("Ablation/Threshold16KBmsg/" + std::to_string(threshold >> 10) +
                "KB",
            [=](Json& row) {
              row.put("latency_ns", threshold_latency(threshold).count());
            });
  }
  // (b) NUMA binding at under-subscription.
  for (bool bind : {true, false}) {
    fig.add(std::string("Ablation/NumaBinding/") +
                (bind ? "bound" : "unbound"),
            [=](Json& row) {
              BenchProbe probe;
              const sim::Duration lat =
                  measure_latency(probe, proto::ProtocolKind::kDirectWriteImm,
                                  512, sim::PollMode::kBusy, 64, bind);
              row.put("latency_ns", lat.count());
              probe.report(row);
            });
  }
  for (uint32_t readers : {4u, 16u, 136u}) {
    fig.add("Ablation/ReaderTable64clients/" + std::to_string(readers),
            [=](Json& row) {
              row.put("span_ns", run_kv_burst(readers, false, 0.95).count());
            });
  }
  for (bool sync : {false, true}) {
    fig.add(std::string("Ablation/CommitStrategy/") + (sync ? "sync" : "group"),
            [=](Json& row) {
              row.put("span_ns", run_kv_burst(136, sync, 0.2).count());
            });
  }
  return fig.run();
}
