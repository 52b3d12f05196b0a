// Sim-core microbenchmark: how fast the discrete-event scheduler itself
// runs, independent of any protocol model. Four seeded phases:
//
//   timers   a storm of sleeping tasks whose durations span every wheel
//            level plus the far-future overflow heap  -> events/sec
//   shallow  a handful of sleepers firing many short timers, staying under
//            the scheduler's small-queue capacity — the sparse-storm shape
//            the wheel rebuild regressed, now served by the sorted-vector
//            fast path                                 -> events/sec
//   cancels  timed waiters that are always notified before their deadline,
//            so every wait cancels its timer           -> cancels/sec
//   rpc      a small Eager-SendRecv echo workload, the end-to-end shape the
//            ROADMAP scalability sweeps care about     -> ops/sec
//
// The report's `virtual` block digests each phase's virtual-time outcome
// (end time, event counts, a counter hash) and is byte-identical for a
// seed, while the wall-clock rates go to `host`.
// The cancels phase doubles as a correctness gate: if a cancelled timer
// ever fired, the run's virtual end time would land on the abandoned
// deadlines, and the binary exits 1.
//
//   bench_sim_core --seed 1 --out BENCH_sim_core.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "proto/channel.h"
#include "report.h"
#include "sim/rng.h"
#include "sim/sync.h"
#include "verbs/fabric.h"

namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using hatbench::Fixed;
using hatbench::hex64;
using hatbench::Json;
using sim::Task;

// Phase sizes; the committed virtual block depends on them.
constexpr uint32_t kTimerTasks = 64;
constexpr uint32_t kTimersPerTask = 4000;
constexpr uint32_t kShallowTasks = 8;  // stays well under Simulator::kSmallCap
constexpr uint32_t kShallowTimersPerTask = 50000;
constexpr uint32_t kCancelWaiters = 2000;
constexpr uint32_t kCancelRounds = 10;
constexpr uint32_t kRpcClients = 4;
constexpr uint32_t kRpcOps = 20000;  // total across clients
constexpr uint32_t kRpcBytes = 64;

/// Wall-clock + virtual-time outcome of one phase. The Run fields are
/// deterministic for a given seed; wall_s is not.
struct PhaseResult {
  const char* name;
  sim::Simulator::RunResult run;
  double wall_s = 0;
  uint64_t units = 0;       // phase-specific numerator (events/cancels/ops)
  uint64_t counters_fnv = 0;  // rpc phase only: hash of the obs counter dump
};

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --- phase 1: timer storm -------------------------------------------------

Task<void> ticker(sim::Simulator& sim, uint64_t seed, uint32_t sleeps) {
  sim::Rng rng(seed);
  for (uint32_t i = 0; i < sleeps; ++i) {
    uint64_t r = rng.next();
    sim::Duration d;
    switch (r % 16) {
      case 0:
        // Beyond the wheel's 2^48 ns span: lands in the overflow heap and
        // is migrated back into the wheel as the cursor catches up.
        d = std::chrono::nanoseconds((r % 86'400'000'000'000ull) +
                                     4 * 86'400'000'000'000ull);
        break;
      case 1:
      case 2:
        d = std::chrono::nanoseconds(r % 10'000'000);  // mid-level slots
        break;
      default:
        d = std::chrono::nanoseconds(r % 4096);  // bottom wheel levels
    }
    co_await sim.sleep(d);
  }
}

PhaseResult run_timer_phase(uint64_t seed) {
  sim::Simulator sim;
  for (uint32_t t = 0; t < kTimerTasks; ++t)
    sim.spawn(ticker(sim, seed * 1000003ull + t, kTimersPerTask));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  PhaseResult res{"timers", r, wall_since(t0), r.events_processed, 0};
  return res;
}

// --- phase 2: shallow storm -----------------------------------------------

Task<void> shallow_ticker(sim::Simulator& sim, uint64_t seed, uint32_t sleeps) {
  sim::Rng rng(seed);
  for (uint32_t i = 0; i < sleeps; ++i)
    co_await sim.sleep(std::chrono::nanoseconds(rng.next() % 2048));
}

PhaseResult run_shallow_phase(uint64_t seed) {
  sim::Simulator sim;
  for (uint32_t t = 0; t < kShallowTasks; ++t)
    sim.spawn(shallow_ticker(sim, seed * 900001ull + t, kShallowTimersPerTask));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  return PhaseResult{"shallow", r, wall_since(t0), r.events_processed, 0};
}

// --- phase 3: cancel storm ------------------------------------------------

struct CancelShared {
  sim::WaitQueue q;
  uint64_t notified = 0;
  uint64_t timed_out = 0;
  explicit CancelShared(sim::Simulator& sim) : q(sim) {}
};

Task<void> cancel_waiter(sim::Simulator& sim, CancelShared& sh,
                         uint32_t rounds) {
  for (uint32_t r = 0; r < rounds; ++r) {
    // The driver notifies long before this deadline, so the wait always
    // wins and the deadline timer is always cancelled.
    bool ok = co_await sh.q.wait_until(sim.now() + 1ms);
    if (ok)
      ++sh.notified;
    else
      ++sh.timed_out;
  }
}

Task<void> cancel_driver(sim::Simulator& sim, CancelShared& sh,
                         uint32_t rounds) {
  for (uint32_t r = 0; r < rounds; ++r) {
    // Let every waiter re-link at the current timestamp, then release them.
    co_await sim.sleep(200ns);
    sh.q.notify_all();
  }
}

PhaseResult run_cancel_phase() {
  sim::Simulator sim;
  CancelShared sh(sim);
  for (uint32_t w = 0; w < kCancelWaiters; ++w)
    sim.spawn(cancel_waiter(sim, sh, kCancelRounds));
  sim.spawn(cancel_driver(sim, sh, kCancelRounds));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  PhaseResult res{"cancels", r, wall_since(t0), r.timers_cancelled, 0};
  // Correctness gate: every wait was notified, every deadline timer was
  // cancelled, and no cancelled timer fired (virtual time never reached the
  // 1ms deadlines — the run ends at rounds * 200ns).
  const uint64_t expect = uint64_t(kCancelWaiters) * kCancelRounds;
  const sim::Time last_notify{int64_t(kCancelRounds) * 200};
  if (sh.timed_out != 0 || sh.notified != expect ||
      r.timers_cancelled < expect || sim.now() != last_notify) {
    std::fprintf(stderr,
                 "cancel phase violation: notified=%llu/%llu timed_out=%llu "
                 "cancelled=%llu end_ns=%lld (cancelled timer fired?)\n",
                 (unsigned long long)sh.notified, (unsigned long long)expect,
                 (unsigned long long)sh.timed_out,
                 (unsigned long long)r.timers_cancelled,
                 (long long)sim.now().count());
    std::exit(1);
  }
  return res;
}

// --- phase 4: RPC echo ----------------------------------------------------

Task<void> rpc_client(proto::RpcChannel& ch, uint32_t bytes, uint32_t iters) {
  proto::Buffer payload(bytes, std::byte{0x2a});
  for (uint32_t i = 0; i < iters; ++i)
    (co_await ch.call(payload, bytes)).value();
  ch.shutdown();
}

PhaseResult run_rpc_phase() {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server = fabric.add_node();
  std::vector<verbs::Node*> clients;
  std::vector<std::unique_ptr<proto::RpcChannel>> channels;
  proto::ChannelConfig cfg;
  cfg.with_poll(sim::PollMode::kBusy);
  proto::Handler echo = [server](proto::View req) -> Task<proto::Buffer> {
    co_await server->cpu().compute(1000ns);
    co_return proto::Buffer(req.begin(), req.end());
  };
  for (uint32_t c = 0; c < kRpcClients; ++c) {
    clients.push_back(fabric.add_node());
    channels.push_back(
        proto::make_channel(proto::ProtocolKind::kEagerSendRecv, *clients[c],
                            *server, echo, cfg));
  }
  const uint32_t per_client = kRpcOps / kRpcClients;
  for (uint32_t c = 0; c < kRpcClients; ++c)
    sim.spawn(rpc_client(*channels[c], kRpcBytes, per_client));
  auto t0 = std::chrono::steady_clock::now();
  sim::Simulator::RunResult r = sim.run();
  PhaseResult res{"rpc", r, wall_since(t0), uint64_t(per_client) * kRpcClients,
                  0};
  // The counter dump covers every charge the workload made (doorbells,
  // WQEs, copies...) — one hash pins the whole data path's behavior.
  res.counters_fnv = fnv1a(fabric.obs().counters.dump());
  return res;
}

// --- output ---------------------------------------------------------------

double rate(uint64_t units, double secs) {
  return secs > 0 ? double(units) / secs : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  std::string out = "BENCH_sim_core.json";
  hatbench::parse_flags(argc, argv, {{"--seed", &seed}, {"--out", &out}});

  const PhaseResult phases[] = {run_timer_phase(seed), run_shallow_phase(seed),
                                run_cancel_phase(), run_rpc_phase()};

  hatbench::Report rep{"sim_core", seed};
  rep.config.put("timer_tasks", kTimerTasks)
      .put("timers_per_task", kTimersPerTask)
      .put("shallow_tasks", kShallowTasks)
      .put("shallow_timers_per_task", kShallowTimersPerTask)
      .put("cancel_waiters", kCancelWaiters)
      .put("cancel_rounds", kCancelRounds)
      .put("rpc_clients", kRpcClients)
      .put("rpc_ops", kRpcOps)
      .put("rpc_bytes", kRpcBytes)
      .put("frame_arena_pooled", sim::FrameArena::pooling_enabled());
  for (const PhaseResult& p : phases) {
    const double per_sec = rate(p.units, p.wall_s);
    const sim::Simulator::RunResult& r = p.run;
    rep.virt.put(p.name, Json::object()
                             .put("units", p.units)
                             .put("virtual_end_ns", r.end_time.count())
                             .put("events_processed", r.events_processed)
                             .put("timers_cancelled", r.timers_cancelled)
                             .put("peak_queue_depth", r.peak_queue_depth)
                             .put("live_tasks", r.live_tasks)
                             .put("counters_fnv", hex64(p.counters_fnv)));
    rep.host.put(p.name, Json::object()
                             .put("wall_s", Fixed{p.wall_s, 3})
                             .put("per_sec", Fixed{per_sec, 3}));
    std::printf("%-7s %12llu units in %7.3fs = %12.0f/s  (virtual end %lld "
                "ns)\n",
                p.name, (unsigned long long)p.units, p.wall_s, per_sec,
                (long long)r.end_time.count());
  }
  if (!rep.write(out)) return 1;
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
