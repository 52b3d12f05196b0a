// Scalability study (ROADMAP item 3 / DESIGN.md §13): one RDMA server,
// sharded per core, under a 1→1024-client closed-loop sweep. Each config is
// a fresh deterministic simulation: clients (event-polled, spread over
// client nodes) drive Direct-WriteIMM channels against a TServerRdma whose
// shard count, polling discipline and per-channel window are swept. The
// handler charges its compute on the shard's pinned core, so the run
// reproduces the three regimes the CPU model predicts:
//
//   knee      per-shard scaling stops when the pinned cores saturate
//             (concurrent handlers on one core stretch under processor
//             sharing);
//   collapse  busy-polling shards > physical cores — two spinners time-slice
//             one core, and throughput drops below the peak;
//   crossover past the collapse point event polling (which frees the core
//             between completions) overtakes busy polling.
//
// Same-seed runs must be byte-identical, so the report holds only
// virtual-time-derived numbers (its `host` block is empty; wall-clock goes
// to stdout) and CI cmp's two runs of the reduced sweep.
//
//   bench_scalability --seed 1 --out BENCH_scalability.json
//     [--clients 1,4,...] [--windows 1,32] [--shards 0,1,...]
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "sim/sync.h"
#include "thrift/rdma.h"
#include "verbs/fabric.h"

namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using hatbench::Fixed;
using hatbench::Json;
using sim::Task;

constexpr uint32_t kOpsPerClient = 40;
constexpr uint32_t kBytes = 128;
constexpr uint32_t kMaxMsg = 1024;
constexpr uint32_t kClientsPerNode = 8;

struct Options {
  uint64_t seed = 1;
  std::vector<uint32_t> clients = {1, 4, 16, 64, 256, 1024};
  std::vector<uint32_t> windows = {1, 32};
  // 0 = the unbound baseline (one shard, no core binding); the tail value
  // over-subscribes the 28 simulated cores to provoke the collapse.
  std::vector<uint32_t> shards = {0, 1, 4, 8, 16, 28, 56};
  std::string out = "BENCH_scalability.json";
};

struct Row {
  uint32_t shards = 0;
  sim::PollMode mode = sim::PollMode::kBusy;
  uint32_t window = 1;
  uint32_t clients = 1;
  uint64_t calls = 0;
  sim::Time end{};
  double mops = 0;
  double mean_lat_us = 0;
  uint64_t shard_accepts = 0;
  uint64_t shard_polls = 0;
  uint64_t window_stalls = 0;
  double wall_s = 0;  // stdout only, never serialized
};

const char* mode_name(sim::PollMode m) {
  return m == sim::PollMode::kBusy ? "busy" : "event";
}

// Handler compute pinned to the shard's core (-1 = floating): a fixed
// dispatch cost plus a payload-proportional term, the same work model the
// figure benchmarks use.
proto::Handler pinned_handler(verbs::Node& server, int core) {
  return [&server, core](proto::View req) -> Task<proto::Buffer> {
    co_await server.cpu().compute(
        1000ns + sim::transfer_time(req.size(), 20.0), core);
    co_return proto::Buffer(req.begin(), req.end());
  };
}

Row run_config(uint64_t seed, uint32_t shards, sim::PollMode mode,
               uint32_t window, uint32_t clients) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server = fabric.add_node();
  std::vector<verbs::Node*> client_nodes;
  const uint32_t nodes = (clients + kClientsPerNode - 1) / kClientsPerNode;
  for (uint32_t n = 0; n < std::max(1u, nodes); ++n)
    client_nodes.push_back(fabric.add_node());

  thrift::TServerRdma::Options so;
  so.shards = std::max(1u, shards);
  so.bind_cores = shards > 0;
  // Per-SRQ depth covers the shard's worst-case concurrent inbound burst
  // (its share of the connections, window deep each); channels replenish
  // consumed tokens, so the depth never needs to grow mid-run.
  const uint32_t per_shard_conns = (clients + so.shards - 1) / so.shards;
  so.srq_depth = per_shard_conns * window + 64;

  thrift::TServerRdma srv(
      *server,
      [server](uint32_t, int core, proto::BufferPool*) {
        return pinned_handler(*server, core);
      },
      so);

  proto::ChannelConfig cfg;
  cfg.with_client_poll(sim::PollMode::kEvent)  // keep client CPU out of the
      .with_server_poll(mode)                  // study; sweep the server side
      .with_window(window)
      .with_max_msg(kMaxMsg);
  std::vector<proto::RpcChannel*> chs;
  for (uint32_t c = 0; c < clients; ++c)
    chs.push_back(&srv.accept(*client_nodes[c / kClientsPerNode],
                              proto::ProtocolKind::kDirectWriteImm, cfg));

  // A window needs enough calls per client to actually fill it.
  const uint32_t iters = std::max(kOpsPerClient, 2 * window);
  sim::WaitGroup wg(sim);
  sim::Duration lat_sum{};
  const std::byte fill{uint8_t(0x2a ^ (seed & 0xff))};
  for (uint32_t c = 0; c < clients; ++c) {
    for (uint32_t l = 0; l < window; ++l) {
      uint32_t lane_iters = iters / window + (l < iters % window ? 1 : 0);
      if (lane_iters == 0) continue;
      wg.add(1);
      sim.spawn([](sim::Simulator& sim, proto::RpcChannel& ch, uint32_t bytes,
                   std::byte fill, uint32_t lane_iters, sim::WaitGroup& wg,
                   sim::Duration& lat_sum) -> Task<void> {
        proto::Buffer payload(bytes, fill);
        for (uint32_t i = 0; i < lane_iters; ++i) {
          sim::Time c0 = sim.now();
          (co_await ch.call(payload, bytes)).value();
          lat_sum += sim.now() - c0;
        }
        wg.done();
      }(sim, *chs[c], kBytes, fill, lane_iters, wg, lat_sum));
    }
  }
  sim::Time end{};
  sim.spawn([](sim::Simulator& sim, sim::WaitGroup& wg, sim::Time& end,
               thrift::TServerRdma& srv) -> Task<void> {
    co_await wg.wait();
    end = sim.now();
    srv.stop();
  }(sim, wg, end, srv));

  auto t0 = std::chrono::steady_clock::now();
  sim.run();

  Row row;
  row.shards = shards;
  row.mode = mode;
  row.window = window;
  row.clients = clients;
  row.calls = uint64_t(clients) * iters;
  row.end = end;
  double secs = sim::to_seconds(end);
  row.mops = secs > 0 ? double(row.calls) / secs / 1e6 : 0;
  row.mean_lat_us =
      sim::to_seconds(lat_sum / int64_t(row.calls ? row.calls : 1)) * 1e6;
  auto& counters = fabric.obs().counters;
  row.shard_accepts = counters.shard_total(obs::Ctr::kShardAccepts);
  row.shard_polls = counters.shard_total(obs::Ctr::kShardPolls);
  row.window_stalls = counters.shard_total(obs::Ctr::kWindowStalls);
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  return row;
}

// --- analysis -------------------------------------------------------------

using SeriesKey = std::tuple<uint32_t, sim::PollMode, uint32_t>;  // shards,
                                                                  // mode, win

/// First client count whose throughput falls below 80% of the linear
/// extrapolation from the smallest point — the saturation knee. 0 = the
/// series stayed linear over the swept range.
uint32_t find_knee(const std::vector<const Row*>& pts) {
  if (pts.size() < 2 || pts.front()->mops <= 0) return 0;
  const double base = pts.front()->mops / pts.front()->clients;
  for (size_t i = 1; i < pts.size(); ++i) {
    double linear = base * pts[i]->clients;
    if (pts[i]->mops < 0.8 * linear) return pts[i]->clients;
  }
  return 0;
}

/// The (shards, mode, window) members every series and analysis row opens
/// with.
Json key_json(const SeriesKey& key) {
  return Json::object()
      .put("shards", std::get<0>(key))
      .put("mode", mode_name(std::get<1>(key)))
      .put("window", std::get<2>(key));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  hatbench::parse_flags(argc, argv,
                        {{"--seed", &opt.seed},
                         {"--clients", &opt.clients},
                         {"--windows", &opt.windows},
                         {"--shards", &opt.shards},
                         {"--out", &opt.out}});
  for (uint32_t w : opt.windows) {
    if (w == 0) {
      std::fprintf(stderr, "--windows: a window must be at least 1\n");
      return 2;
    }
  }

  std::vector<Row> rows;
  double wall_total = 0;
  for (uint32_t shards : opt.shards) {
    for (sim::PollMode mode : {sim::PollMode::kBusy, sim::PollMode::kEvent}) {
      for (uint32_t window : opt.windows) {
        for (uint32_t clients : opt.clients) {
          Row r = run_config(opt.seed, shards, mode, window, clients);
          wall_total += r.wall_s;
          std::printf(
              "shards=%-3u %-5s w=%-3u c=%-5u  %8.4f Mops  "
              "lat=%9.2fus  stalls=%-8llu (%.2fs wall)\n",
              r.shards, mode_name(r.mode), r.window, r.clients, r.mops,
              r.mean_lat_us, (unsigned long long)r.window_stalls, r.wall_s);
          rows.push_back(std::move(r));
        }
      }
    }
  }

  // Group into (shards, mode, window) series ordered by client count; the
  // sweep above already emits clients in ascending order per series.
  std::map<SeriesKey, std::vector<const Row*>> series;
  for (const Row& r : rows)
    series[{r.shards, r.mode, r.window}].push_back(&r);

  hatbench::Report rep{"scalability", opt.seed};
  rep.config.put("clients", opt.clients)
      .put("windows", opt.windows)
      .put("shards", opt.shards)
      .put("ops_per_client", kOpsPerClient)
      .put("bytes", kBytes)
      .put("max_msg", kMaxMsg)
      .put("cores", 28);

  // Knee per series: where linear client scaling stops.
  Json series_json = Json::array(), knees = Json::array();
  for (const auto& [key, pts] : series) {
    Json points = Json::array();
    for (const Row* r : pts)
      points.push(Json::object()
                      .put("clients", r->clients)
                      .put("mops", Fixed{r->mops, 4})
                      .put("mean_lat_us", Fixed{r->mean_lat_us, 4})
                      .put("end_ns", r->end.count())
                      .put("calls", r->calls)
                      .put("shard_accepts", r->shard_accepts)
                      .put("shard_polls", r->shard_polls)
                      .put("window_stalls", r->window_stalls));
    series_json.push(key_json(key).put("points", points));
    const Row* peak = pts.front();
    for (const Row* p : pts)
      if (p->mops > peak->mops) peak = p;
    knees.push(key_json(key)
                   .put("knee_clients", find_knee(pts))
                   .put("peak_mops", Fixed{peak->mops, 4})
                   .put("peak_clients", peak->clients));
  }

  // Over-subscription collapse: at the largest client count, compare the
  // best shard count against the largest (over-subscribed) one.
  const uint32_t cmax = opt.clients.back();
  Json collapse = Json::array();
  for (sim::PollMode mode : {sim::PollMode::kBusy, sim::PollMode::kEvent}) {
    for (uint32_t window : opt.windows) {
      uint32_t peak_shards = 0, over_shards = 0;
      double peak_mops = 0, over_mops = 0;
      for (uint32_t shards : opt.shards) {
        auto it = series.find({shards, mode, window});
        if (it == series.end()) continue;
        for (const Row* p : it->second) {
          if (p->clients != cmax) continue;
          if (p->mops > peak_mops) {
            peak_mops = p->mops;
            peak_shards = shards;
          }
          if (shards >= over_shards) {
            over_shards = shards;
            over_mops = p->mops;
          }
        }
      }
      collapse.push(
          Json::object()
              .put("mode", mode_name(mode))
              .put("window", window)
              .put("clients", cmax)
              .put("peak_shards", peak_shards)
              .put("peak_mops", Fixed{peak_mops, 4})
              .put("oversub_shards", over_shards)
              .put("oversub_mops", Fixed{over_mops, 4})
              .put("collapsed", over_shards > peak_shards &&
                                    over_mops < 0.7 * peak_mops));
    }
  }

  // Event-vs-busy crossover on the over-subscribed shard count: the client
  // count where freeing the core between completions starts to win.
  const uint32_t smax = opt.shards.back();
  Json crossovers = Json::array();
  for (uint32_t window : opt.windows) {
    auto bi = series.find({smax, sim::PollMode::kBusy, window});
    auto ei = series.find({smax, sim::PollMode::kEvent, window});
    uint32_t crossover = 0;
    if (bi != series.end() && ei != series.end()) {
      for (size_t i = 0; i < bi->second.size() && i < ei->second.size(); ++i) {
        if (ei->second[i]->mops > bi->second[i]->mops) {
          crossover = ei->second[i]->clients;
          break;
        }
      }
    }
    crossovers.push(Json::object()
                        .put("shards", smax)
                        .put("window", window)
                        .put("crossover_clients", crossover));
  }
  rep.virt.put("series", series_json)
      .put("analysis", Json::object()
                           .put("knees", knees)
                           .put("collapse", collapse)
                           .put("event_vs_busy_oversub", crossovers));

  if (!rep.write(opt.out)) return 1;
  std::printf("wrote %s (%.1fs simulated wall total)\n", opt.out.c_str(),
              wall_total);
  return 0;
}
