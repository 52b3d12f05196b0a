// Shared harness for the figure benchmarks.
//
// All timing is SIMULATED time: each scenario builds a fresh deterministic
// simulation, runs it to completion, and reports virtual durations through
// google-benchmark's manual-time mode (so the printed "Time" column is
// virtual microseconds, reproducible to the nanosecond across runs).
//
// Topology mirrors the paper's testbed (§5.1): one server node and up to
// nine client nodes of 28 cores each, connected by the simulated EDR
// fabric. Clients are spread round-robin over the client nodes; NUMA
// binding is applied only when a scenario says so.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "hint/selection.h"
#include "obs/obs.h"
#include "proto/channel.h"
#include "sim/rng.h"

namespace hatbench {

using namespace hatrpc;
using sim::Task;
using namespace std::chrono_literals;

constexpr int kClientNodes = 9;  // paper: 10-node cluster, 1 server

// ---- Observability: --trace <file> + per-scenario percentile/counter ----
// Each scenario runs in its own Testbed (its own Fabric-level Obs); when
// tracing is on, scenarios absorb their events into one process-wide sink
// under a fresh pid block so node timelines don't collide across scenarios.

inline std::string& trace_path() {
  static std::string path;
  return path;
}

inline obs::Tracer& trace_sink() {
  static obs::Tracer sink;
  return sink;
}

inline uint32_t next_trace_pid(uint32_t nodes_in_scenario) {
  static uint32_t next = 0;
  uint32_t base = next;
  next += nodes_in_scenario;
  return base;
}

/// Channel window used by the throughput scenarios (`--window N`). 1 keeps
/// the classic one-outstanding-call-per-connection closed loop.
inline uint32_t& bench_window() {
  static uint32_t w = 1;
  return w;
}

/// Zero-copy send path (`--zero-copy`): payloads go out inline or as gather
/// SGE lists instead of through the legacy staging copies.
inline bool& bench_zero_copy() {
  static bool zc = false;
  return zc;
}

/// Strips `--trace <file>` / `--trace=<file>`, `--window <n>` /
/// `--window=<n>` and `--zero-copy[=0|1]` from argv (call BEFORE
/// benchmark::Initialize, which rejects flags it doesn't know).
inline void parse_bench_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path() = argv[++i];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path() = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      bench_window() = uint32_t(std::max(1, std::atoi(argv[++i])));
    } else if (std::strncmp(argv[i], "--window=", 9) == 0) {
      bench_window() = uint32_t(std::max(1, std::atoi(argv[i] + 9)));
    } else if (std::strcmp(argv[i], "--zero-copy") == 0) {
      bench_zero_copy() = true;
    } else if (std::strncmp(argv[i], "--zero-copy=", 12) == 0) {
      bench_zero_copy() = std::atoi(argv[i] + 12) != 0;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!trace_path().empty()) trace_sink().enable();
}

/// Writes the merged Chrome about:tracing JSON if --trace was given.
inline void write_trace() {
  if (trace_path().empty()) return;
  std::ofstream os(trace_path());
  trace_sink().write_json(os);
  std::cerr << "trace: " << trace_sink().event_count() << " events -> "
            << trace_path() << "\n";
}

struct Testbed;

/// Per-scenario observability capture: call-latency histogram plus the
/// scenario's fabric-wide counter totals, scaled per call for reporting.
struct BenchProbe {
  obs::Histogram hist;
  obs::CounterSet totals;
  uint64_t calls = 0;

  void finish(Testbed& bed, uint64_t timed_calls, const std::string& label);
  /// Emits the percentile/counter table into the benchmark's counters.
  void report(benchmark::State& state) const {
    state.counters["p50_us"] = double(hist.percentile_ns(0.50)) / 1e3;
    state.counters["p95_us"] = double(hist.percentile_ns(0.95)) / 1e3;
    state.counters["p99_us"] = double(hist.percentile_ns(0.99)) / 1e3;
    double per = calls ? double(calls) : 1.0;
    state.counters["doorbells_per_call"] =
        double(totals.get(obs::Ctr::kDoorbells)) / per;
    state.counters["wqes_per_call"] =
        double(totals.get(obs::Ctr::kWqesPosted)) / per;
    state.counters["copy_bytes_per_call"] =
        double(totals.get(obs::Ctr::kCopyBytes)) / per;
    state.counters["dma_bytes_per_call"] =
        double(totals.get(obs::Ctr::kDmaBytes)) / per;
    state.counters["inline_wqes_per_call"] =
        double(totals.get(obs::Ctr::kInlineWqes)) / per;
    state.counters["gather_sges_per_call"] =
        double(totals.get(obs::Ctr::kGatherSges)) / per;
  }
};

/// The payload ladder of Figs. 4 and 11.
inline const std::vector<size_t>& latency_sizes() {
  static const std::vector<size_t> sizes{4,    64,    512,   4096,
                                         16384, 65536, 262144, 524288};
  return sizes;
}

/// Client-count ladder of Figs. 5 and 12-14 (under / full / over
/// subscription splits at 16 and 28).
inline const std::vector<int>& client_counts() {
  static const std::vector<int> counts{1, 4, 16, 28, 64, 128, 256, 512};
  return counts;
}

struct Testbed {
  sim::Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* server = nullptr;
  std::vector<verbs::Node*> client_nodes;

  Testbed() {
    server = fabric.add_node();
    for (int i = 0; i < kClientNodes; ++i)
      client_nodes.push_back(fabric.add_node());
    if (!trace_path().empty()) fabric.obs().tracer.enable();
  }

  verbs::Node* client_node(int client_index) {
    return client_nodes[size_t(client_index) % client_nodes.size()];
  }
};

inline void BenchProbe::finish(Testbed& bed, uint64_t timed_calls,
                               const std::string& label) {
  calls += timed_calls;
  for (size_t i = 0; i < size_t(obs::Ctr::kCount); ++i) {
    obs::Ctr c = obs::Ctr(i);
    totals.add(c, bed.fabric.obs().counters.node_total(c));
  }
  if (!trace_path().empty()) {
    uint32_t base = next_trace_pid(uint32_t(1 + kClientNodes));
    trace_sink().absorb(bed.fabric.obs().tracer, base);
    trace_sink().set_process_name(base, label + "/server");
  }
}

/// Echo-with-checksum handler (the ATB server work model: Thrift processor
/// dispatch + a checksum whose cost grows with payload, §5.3). The reply is
/// written into the channel's response area when it fits (Direct), and
/// built in a Buffer otherwise.
inline proto::Handler checksum_handler(verbs::Node& server,
                                       bool echo_payload = true) {
  return [&server, echo_payload](
             proto::View req,
             std::span<std::byte> area) -> Task<proto::Response> {
    co_await server.cpu().compute(1000ns +
                                  sim::transfer_time(req.size(), 20.0));
    const size_t n = echo_payload ? req.size() : 8;
    if (n > area.size()) {
      if (echo_payload) co_return proto::Buffer(req.begin(), req.end());
      co_return proto::Buffer(8);
    }
    if (echo_payload)
      std::copy(req.begin(), req.end(), area.begin());
    else
      std::fill_n(area.data(), n, std::byte{0});
    co_return proto::Response::written(n);
  };
}

/// One benchmark call. Under --zero-copy the response is taken as a lease
/// into the recv ring (in-place delivery, no client materialization copy)
/// and released right after it is touched — the pattern a real consumer of
/// the fig05 profile would use. Staged channels keep the owned-buffer path
/// so their numbers are untouched.
inline Task<void> bench_call(proto::RpcChannel& ch, proto::View req,
                             uint32_t resp_hint) {
  if (bench_zero_copy()) {
    auto r = co_await ch.call_leased(req, resp_hint);
    proto::LeasedReply reply = std::move(r).value();
    benchmark::DoNotOptimize(reply.bytes().size());
    reply.release();
    co_return;
  }
  auto r = co_await ch.call(req, resp_hint);
  r.value();
}

/// Single-client mean RPC latency over `iters` calls.
inline sim::Duration measure_latency(proto::ProtocolKind kind, size_t bytes,
                                     sim::PollMode poll, int iters = 64,
                                     bool numa_local = true,
                                     BenchProbe* probe = nullptr) {
  Testbed bed;
  proto::ChannelConfig cfg;
  cfg.with_poll(poll)
      .with_max_msg(std::max<uint32_t>(64 << 10, uint32_t(bytes) * 2))
      .with_numa(numa_local, numa_local)
      .with_zero_copy(bench_zero_copy());
  auto ch = proto::make_channel(kind, *bed.client_node(0), *bed.server,
                                checksum_handler(*bed.server), cfg);
  sim::Time total{};
  bed.sim.spawn([](Testbed& bed, proto::RpcChannel& ch, size_t bytes,
                   int iters, sim::Time& total,
                   BenchProbe* probe) -> Task<void> {
    proto::Buffer payload(bytes, std::byte{0x2a});
    // Warm-up call (connection/buffer effects).
    co_await bench_call(ch, payload, uint32_t(bytes));
    sim::Time t0 = bed.sim.now();
    for (int i = 0; i < iters; ++i) {
      sim::Time c0 = bed.sim.now();
      co_await bench_call(ch, payload, uint32_t(bytes));
      if (probe) probe->hist.record(bed.sim.now() - c0);
    }
    total = bed.sim.now() - t0;
    ch.shutdown();
  }(bed, *ch, bytes, iters, total, probe));
  bed.sim.run();
  if (probe)
    probe->finish(bed, uint64_t(iters) + 1,
                  "lat/" + std::string(proto::to_string(kind)) + "/" +
                      std::to_string(bytes) + "B");
  return total / iters;
}

struct ThroughputResult {
  double mops = 0;            // aggregate million ops/s (calls / elapsed)
  sim::Duration mean_latency{};  // mean of the real per-call durations
  sim::Duration elapsed{};    // virtual makespan of the whole run
};

/// Multi-client closed-loop throughput: `clients` concurrent clients, each
/// issuing `iters` calls on its own connection. When bench_window() > 1 the
/// channels are windowed and each client drives `window` concurrent lanes
/// (its iters split across them), so the window is actually filled.
/// Achieved ops/s is total calls over the elapsed VIRTUAL time of the whole
/// run; mean latency is averaged over the real per-call durations (under
/// pipelining the two are no longer each other's reciprocal).
inline ThroughputResult measure_throughput(proto::ProtocolKind kind,
                                           size_t bytes, int clients,
                                           sim::PollMode poll, int iters = 30,
                                           bool numa_bind = false,
                                           BenchProbe* probe = nullptr) {
  Testbed bed;
  const uint32_t window = bench_window();
  proto::ChannelConfig cfg;
  // NUMA binding is beneficial (and applied) only under-subscription.
  bool numa_local = numa_bind && clients <= 16;
  cfg.with_poll(poll)
      .with_max_msg(std::max<uint32_t>(64 << 10, uint32_t(bytes) * 2))
      .with_numa(numa_local, numa_local)
      .with_window(window)
      .with_zero_copy(bench_zero_copy());

  std::vector<std::unique_ptr<proto::RpcChannel>> channels;
  for (int c = 0; c < clients; ++c)
    channels.push_back(proto::make_channel(kind, *bed.client_node(c),
                                           *bed.server,
                                           checksum_handler(*bed.server),
                                           cfg));
  sim::WaitGroup wg(bed.sim);
  sim::Duration lat_sum{};
  for (int c = 0; c < clients; ++c) {
    for (uint32_t l = 0; l < window; ++l) {
      // Spread the client's call budget over its window lanes.
      int lane_iters = iters / int(window) +
                       (int(l) < iters % int(window) ? 1 : 0);
      if (lane_iters == 0) continue;
      wg.add(1);
      bed.sim.spawn([](Testbed& bed, proto::RpcChannel& ch, size_t bytes,
                       int lane_iters, sim::WaitGroup& wg,
                       sim::Duration& lat_sum,
                       BenchProbe* probe) -> Task<void> {
        proto::Buffer payload(bytes, std::byte{0x5a});
        for (int i = 0; i < lane_iters; ++i) {
          sim::Time c0 = bed.sim.now();
          co_await bench_call(ch, payload, uint32_t(bytes));
          lat_sum += bed.sim.now() - c0;
          if (probe) probe->hist.record(bed.sim.now() - c0);
        }
        wg.done();
      }(bed, *channels[size_t(c)], bytes, lane_iters, wg, lat_sum, probe));
    }
  }
  sim::Time end{};
  bed.sim.spawn([](Testbed& bed, sim::WaitGroup& wg, sim::Time& end,
                   std::vector<std::unique_ptr<proto::RpcChannel>>& channels)
                    -> Task<void> {
    co_await wg.wait();
    end = bed.sim.now();
    for (auto& ch : channels) ch->shutdown();
  }(bed, wg, end, channels));
  bed.sim.run();
  uint64_t total_calls = uint64_t(clients) * uint64_t(iters);
  if (probe)
    probe->finish(bed, total_calls,
                  "thr/" + std::string(proto::to_string(kind)) + "/" +
                      std::to_string(bytes) + "B/c" +
                      std::to_string(clients));

  ThroughputResult r;
  double secs = sim::to_seconds(end);
  r.mops = secs > 0 ? double(total_calls) / secs / 1e6 : 0;
  r.mean_latency = lat_sum / int64_t(total_calls ? total_calls : 1);
  r.elapsed = end;
  return r;
}

/// The plan HatRPC derives for the given hint triple (used by the ATB
/// benchmarks to place the "HatRPC" series).
inline hint::Plan hatrpc_plan(hint::PerfGoal goal, uint32_t clients,
                              uint32_t payload) {
  return hint::select_plan_raw(goal, clients, payload, /*numa=*/true,
                               hint::SelectionParams{});
}

inline std::string poll_name(sim::PollMode m) {
  return m == sim::PollMode::kBusy ? "busy" : "event";
}

}  // namespace hatbench
