// Shared harness for the figure benchmarks.
//
// All timing is SIMULATED time: each row builds a fresh deterministic
// simulation, runs it to completion, and writes virtual nanoseconds, call
// counts and counter totals as integers into its bench/report.h row, so a
// report is byte-identical on every run and machine.
//
// Topology mirrors the paper's testbed (§5.1): one server node and up to
// nine client nodes of 28 cores each, connected by the simulated EDR
// fabric. Clients are spread round-robin over the client nodes; NUMA
// binding is applied only when a scenario says so.
#pragma once

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hint/selection.h"
#include "obs/obs.h"
#include "proto/channel.h"
#include "report.h"
#include "sim/rng.h"

namespace hatbench {

using namespace hatrpc;
using sim::Task;
using namespace std::chrono_literals;

constexpr int kClientNodes = 9;  // paper: 10-node cluster, 1 server

// ---- Observability: --trace <file> ----------------------------------------
// Each row runs in its own Testbed (its own Fabric-level Obs); when tracing
// is on, rows absorb their events into one process-wide sink under a fresh
// pid block so node timelines don't collide across rows.

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

/// `--trace FILE`: the rows' events as one Chrome about:tracing file.
inline Flag trace_flag() { return {"--trace", &trace_path()}; }

/// Channel window of the throughput rows (fig05's `--window N`). 1 keeps
/// the classic one-outstanding-call-per-connection closed loop.
inline uint32_t& bench_window() {
  static uint32_t w = 1;
  return w;
}

/// Runs `fig`'s rows with `--trace` honoured: the sink is enabled before
/// the first row, and the merged trace written after the last.
inline int run_traced(Figure& fig) {
  if (!trace_path().empty()) trace_sink().enable();
  const int status = fig.run();
  if (!trace_path().empty()) {
    std::ofstream os(trace_path());
    trace_sink().write_json(os);
    std::cerr << "trace: " << trace_sink().event_count() << " events -> "
              << trace_path() << "\n";
  }
  return status;
}

struct Testbed;

/// What one scenario measured: the call-latency histogram, the fabric-wide
/// counter totals over `calls` calls, and how many echoes came back wrong.
struct BenchProbe {
  obs::Histogram hist;
  obs::CounterSet totals;
  uint64_t calls = 0;
  uint64_t echo_mismatches = 0;

  void finish(Testbed& bed, uint64_t timed_calls, const std::string& label);
  /// Adds the row fields. Totals are whole-run sums: divide by `calls` for
  /// the per-call figures.
  void report(Json& row) const {
    row.put("calls", calls)
        .put("p50_ns", hist.percentile_ns(0.50))
        .put("p95_ns", hist.percentile_ns(0.95))
        .put("p99_ns", hist.percentile_ns(0.99))
        .put("doorbells", totals.get(obs::Ctr::kDoorbells))
        .put("wqes", totals.get(obs::Ctr::kWqesPosted))
        .put("copy_bytes", totals.get(obs::Ctr::kCopyBytes))
        .put("dma_bytes", totals.get(obs::Ctr::kDmaBytes))
        .put("echo_mismatches", echo_mismatches);
  }
};

/// The protocols of Figs. 4 and 5: the nine RDMA protocols and the hybrid
/// baseline.
inline constexpr proto::ProtocolKind kFigureProtocols[] = {
    proto::ProtocolKind::kEagerSendRecv,
    proto::ProtocolKind::kDirectWriteSend,
    proto::ProtocolKind::kChainedWriteSend,
    proto::ProtocolKind::kWriteRndv,
    proto::ProtocolKind::kReadRndv,
    proto::ProtocolKind::kDirectWriteImm,
    proto::ProtocolKind::kPilaf,
    proto::ProtocolKind::kFarm,
    proto::ProtocolKind::kRfp,
    proto::ProtocolKind::kHybridEagerRndv,
};

/// The fixed-protocol baselines of the ATB figures (11-14), by series name.
inline constexpr std::pair<const char*, proto::ProtocolKind> kAtbBaselines[] =
    {
        {"Hybrid-EagerRNDV", proto::ProtocolKind::kHybridEagerRndv},
        {"Direct-Write-Send", proto::ProtocolKind::kDirectWriteSend},
        {"RFP", proto::ProtocolKind::kRfp},
        {"Direct-WriteIMM", proto::ProtocolKind::kDirectWriteImm},
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

/// Fills `payload` with the bytes of `client`'s call number `call`: a
/// Weyl sequence of 64-bit words whose start and step SplitMix64 derives
/// from both, so an echo that carries a fragment of any other call, or of
/// another place in this one, compares unequal.
inline void fill_payload(std::span<std::byte> payload, uint64_t client,
                         uint64_t call) {
  sim::SplitMix64 sm(kFigureSeed ^ (client << 32) ^ (call << 1));
  uint64_t word = sm.next();
  const uint64_t step = sm.next() | 1;
  const size_t whole = payload.size() / 8 * 8;
  for (size_t at = 0; at < whole; at += 8, word += step)
    std::memcpy(payload.data() + at, &word, 8);
  if (whole < payload.size())
    std::memcpy(payload.data() + whole, &word, payload.size() - whole);
}

/// True if `reply` holds exactly the bytes of `sent`.
inline bool echoed(proto::View reply, proto::View sent) {
  return reply.size() == sent.size() &&
         std::memcmp(reply.data(), sent.data(), sent.size()) == 0;
}

/// Echo-with-checksum handler (the ATB server work model: Thrift processor
/// dispatch + a checksum whose cost grows with payload, §5.3). The reply is
/// written into the channel's response area when it fits (Direct), and
/// built in a Buffer otherwise.
inline proto::Handler checksum_handler(verbs::Node& server) {
  return [&server](proto::View req,
                   std::span<std::byte> area) -> Task<proto::Response> {
    co_await server.cpu().compute(1000ns +
                                  sim::transfer_time(req.size(), 20.0));
    if (req.size() > area.size())
      co_return proto::Buffer(req.begin(), req.end());
    std::copy(req.begin(), req.end(), area.begin());
    co_return proto::Response::written(req.size());
  };
}

/// One benchmark call; true if the reply is the request, byte for byte.
inline Task<bool> bench_call(proto::RpcChannel& ch, proto::View req,
                             uint32_t resp_hint) {
  auto r = co_await ch.call(req, resp_hint);
  co_return echoed(r.value(), req);
}

/// Single-client mean RPC latency over `iters` timed calls, after one
/// warm-up call; `probe` covers all `iters + 1`.
inline sim::Duration measure_latency(BenchProbe& probe,
                                     proto::ProtocolKind kind, size_t bytes,
                                     sim::PollMode poll, int iters = 64,
                                     bool numa_local = true) {
  Testbed bed;
  proto::ChannelConfig cfg;
  cfg.with_poll(poll)
      .with_max_msg(std::max<uint32_t>(64 << 10, uint32_t(bytes) * 2))
      .with_numa(numa_local, numa_local);
  auto ch = proto::make_channel(kind, *bed.client_node(0), *bed.server,
                                checksum_handler(*bed.server), cfg);
  sim::Time total{};
  bed.sim.spawn([](Testbed& bed, proto::RpcChannel& ch, size_t bytes,
                   int iters, sim::Time& total,
                   BenchProbe& probe) -> Task<void> {
    proto::Buffer payload(bytes);
    // Warm-up call (connection/buffer effects).
    fill_payload(payload, 0, 0);
    if (!co_await bench_call(ch, payload, uint32_t(bytes)))
      ++probe.echo_mismatches;
    sim::Time t0 = bed.sim.now();
    for (int i = 0; i < iters; ++i) {
      fill_payload(payload, 0, uint64_t(i) + 1);
      sim::Time c0 = bed.sim.now();
      if (!co_await bench_call(ch, payload, uint32_t(bytes)))
        ++probe.echo_mismatches;
      probe.hist.record(bed.sim.now() - c0);
    }
    total = bed.sim.now() - t0;
    ch.shutdown();
  }(bed, *ch, bytes, iters, total, probe));
  bed.sim.run();
  probe.finish(bed, uint64_t(iters) + 1,
               "lat/" + std::string(proto::to_string(kind)) + "/" +
                   std::to_string(bytes) + "B");
  return total / iters;
}

struct ThroughputResult {
  sim::Duration elapsed{};       // virtual makespan of the whole run
  sim::Duration mean_latency{};  // mean of the real per-call durations

  void report(Json& row) const {
    row.put("elapsed_ns", elapsed.count())
        .put("mean_latency_ns", mean_latency.count());
  }
};

/// Multi-client closed-loop throughput: `clients` concurrent clients, each
/// issuing `iters` calls on its own connection. When bench_window() > 1 the
/// channels are windowed and each client drives `window` concurrent lanes
/// (its iters split across them), so the window is actually filled.
/// Achieved ops/s is total calls over the elapsed VIRTUAL time of the whole
/// run; mean latency is averaged over the real per-call durations (under
/// pipelining the two are no longer each other's reciprocal).
inline ThroughputResult measure_throughput(BenchProbe& probe,
                                           proto::ProtocolKind kind,
                                           size_t bytes, int clients,
                                           sim::PollMode poll, int iters,
                                           bool numa_bind) {
  Testbed bed;
  const uint32_t window = bench_window();
  proto::ChannelConfig cfg;
  // NUMA binding is beneficial (and applied) only under-subscription.
  bool numa_local = numa_bind && clients <= 16;
  cfg.with_poll(poll)
      .with_max_msg(std::max<uint32_t>(64 << 10, uint32_t(bytes) * 2))
      .with_numa(numa_local, numa_local)
      .with_window(window);

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
                       int client, uint32_t lane, uint32_t window,
                       int lane_iters, sim::WaitGroup& wg,
                       sim::Duration& lat_sum,
                       BenchProbe& probe) -> Task<void> {
        proto::Buffer payload(bytes);
        for (int i = 0; i < lane_iters; ++i) {
          fill_payload(payload, uint64_t(client),
                       uint64_t(i) * window + lane);
          sim::Time c0 = bed.sim.now();
          if (!co_await bench_call(ch, payload, uint32_t(bytes)))
            ++probe.echo_mismatches;
          lat_sum += bed.sim.now() - c0;
          probe.hist.record(bed.sim.now() - c0);
        }
        wg.done();
      }(bed, *channels[size_t(c)], bytes, c, l, window, lane_iters, wg,
        lat_sum, probe));
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
  probe.finish(bed, total_calls,
               "thr/" + std::string(proto::to_string(kind)) + "/" +
                   std::to_string(bytes) + "B/c" + std::to_string(clients));
  return {end, lat_sum / int64_t(total_calls ? total_calls : 1)};
}

/// Calls per client of the throughput rows: fewer at scale keeps the total
/// call count sane.
inline int throughput_iters(int clients) {
  return clients >= 128 ? 10 : (clients >= 28 ? 20 : 40);
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
