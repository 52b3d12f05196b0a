// Adaptive-hints study (ROADMAP item 4 / DESIGN.md §14): a phased workload
// whose right answer changes mid-run, driven against
//
//   adaptive     hint::AdaptiveChannel starting from the small-message IDL
//                prior (Eager-SendRecv, busy/busy) and re-selecting protocol
//                and polling online from its live footprint;
//   statics      the two plans a static hint would have frozen — the
//                small-message plan (eager + busy) and the large-message
//                plan (Write-Rndv + event) — each run over the SAME phased
//                workload;
//   frozen       the adaptive channel with its controller frozen: the
//                ablation. The run must be bit-identical (counter dump and
//                virtual end time) to the eager static, or the binary exits
//                non-zero — the controller's observation path costs nothing.
//
// Phases (8 client nodes; channels spread round-robin):
//   small-under  512 B echoes, 8 channels x 1 lane -> the eager prior is
//                already right
//   large-under  64 KB echoes, 8 channels x 1 lane -> payload EWMA crosses
//                4 KB, the controller swaps the epoch to Write-Rndv
//   small-over   512 B echoes, fan-in grows to 64 channels x 3 lanes ->
//                64 busy-polled connections park 64 spinners on the
//                28-core server (the Fig-5 collapse); the controllers see
//                192 aggregate in-flight calls, drop both sides to event
//                and return the protocol to eager
//
// Each phase reports full-phase throughput AND steady-state throughput
// (first `warmup_calls` per channel excluded, for every config alike) —
// the adaptive rows pay their re-selection inside the warm-up window, and
// the analysis block compares steady states. Windows are pinned to 8 in
// this study (min_window == max_window) so the per-transition plan-switch
// budget measures protocol/polling churn only; stall-driven window sizing
// is exercised by tests/test_adaptive.cc.
//
// The report carries only virtual-time-derived numbers (its `host` block
// is empty), so same-seed runs are byte-identical and CI cmp's two of them.
//
//   bench_adaptive --seed 1 --out BENCH_adaptive.json
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "hint/adaptive.h"
#include "report.h"
#include "sim/sync.h"
#include "verbs/fabric.h"

namespace {

using namespace hatrpc;
using namespace std::chrono_literals;
using hatbench::Fixed;
using hatbench::Json;
using sim::Task;

constexpr uint32_t kChannels = 8;       // under-subscribed phases
constexpr uint32_t kOverChannels = 64;  // fan-in of the over-subscribed phase
constexpr uint32_t kSmallBytes = 512;
constexpr uint32_t kLargeBytes = 64 << 10;
// Per-channel steady-state cutoff, the same for every config.
constexpr uint32_t kWarmup = 12;

struct PhaseSpec {
  const char* name;
  uint32_t bytes;
  uint32_t channels;         // connections live during the phase
  uint32_t lanes;            // concurrent lanes per channel
  uint32_t calls_per_chan;   // total calls per channel (across its lanes)
};

struct PhaseResult {
  uint64_t calls = 0;
  sim::Duration elapsed{};
  sim::Duration lat_sum{};
  uint64_t steady_calls = 0;
  sim::Duration steady_elapsed{};
  uint64_t switches = 0;     // controller adoptions during this phase
  uint64_t max_chan_switches = 0;  // worst single channel this phase
  uint64_t epoch_swaps = 0;
  std::string plan_after;    // protocol/clientpoll/serverpoll at phase end
};

struct RunResult {
  std::vector<PhaseResult> phases;
  sim::Time end{};
  std::string dump;          // fabric counter dump (frozen-vs-static oracle)
  uint64_t total_switches = 0;
  double wall_s = 0;         // stdout only, never serialized
};

const char* poll_name(sim::PollMode m) {
  return m == sim::PollMode::kBusy ? "busy" : "event";
}

std::string plan_name(const hint::Plan& p) {
  return std::string(proto::to_string(p.protocol)) + "/" +
         poll_name(p.client_poll) + "/" + poll_name(p.server_poll);
}

// The ATB work model: dispatch cost plus a payload-proportional checksum.
proto::Handler checksum_handler(verbs::Node& server) {
  return [&server](proto::View req) -> Task<proto::Buffer> {
    co_await server.cpu().compute(1000ns +
                                  sim::transfer_time(req.size(), 20.0));
    co_return proto::Buffer(req.begin(), req.end());
  };
}

// Per-channel progress shared by its lanes (single-threaded sim: plain
// counters are race-free). `warm` fires once the channel has completed its
// steady-state cutoff for the current phase.
struct ChanProgress {
  uint32_t done = 0;
  bool warm_signalled = false;
};

enum class Mode { kAdaptive, kFrozen, kStaticEager, kStaticRndv };

hint::Plan eager_prior(uint32_t payload) {
  hint::Plan p;
  p.protocol = proto::ProtocolKind::kEagerSendRecv;
  p.client_poll = sim::PollMode::kBusy;
  p.server_poll = sim::PollMode::kBusy;
  p.expected_payload = payload;
  p.window = 8;
  return p;
}

hint::Plan rndv_plan(uint32_t payload) {
  hint::Plan p;
  p.protocol = proto::ProtocolKind::kWriteRndv;
  p.client_poll = sim::PollMode::kEvent;
  p.server_poll = sim::PollMode::kEvent;
  p.expected_payload = payload;
  p.window = 8;
  return p;
}

RunResult run_config(Mode mode, const std::vector<PhaseSpec>& phases) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server = fabric.add_node();
  std::vector<verbs::Node*> client_nodes;
  for (uint32_t c = 0; c < kChannels; ++c)
    client_nodes.push_back(fabric.add_node());  // round-robin across nodes

  const hint::Plan prior = eager_prior(kSmallBytes);
  const hint::Plan fixed =
      mode == Mode::kStaticRndv ? rndv_plan(kLargeBytes) : prior;

  proto::ChannelConfig cfg;
  cfg.with_window(8).with_max_msg(std::max(128u << 10, 2 * kLargeBytes));
  cfg.with_client_poll(fixed.client_poll).with_server_poll(fixed.server_poll);

  hint::AdaptiveParams params;
  params.min_samples = 4;
  params.cooldown = 30us;
  params.min_window = 8;  // pin the window: this study sweeps protocol+poll
  params.max_window = 8;

  // One footprint shared by every channel: the subscription signal is the
  // AGGREGATE in-flight count, which is what over-subscribes the server.
  obs::FunctionFootprint fp;

  std::vector<std::unique_ptr<proto::RpcChannel>> statics;
  std::vector<std::unique_ptr<hint::AdaptiveChannel>> adaptives;
  std::vector<proto::RpcChannel*> chans;
  // Connections are accepted lazily so the over-subscribed phase models a
  // live fan-in increase rather than 64 idle spinners from t=0.
  auto add_channel = [&] {
    verbs::Node& cn = *client_nodes[chans.size() % client_nodes.size()];
    if (mode == Mode::kStaticEager || mode == Mode::kStaticRndv) {
      statics.push_back(proto::make_channel(fixed.protocol, cn, *server,
                                            checksum_handler(*server), cfg));
      chans.push_back(statics.back().get());
    } else {
      adaptives.push_back(hint::make_adaptive_channel(
          cn, *server, checksum_handler(*server), cfg, prior, params, &fp));
      if (mode == Mode::kFrozen) adaptives.back()->freeze();
      chans.push_back(adaptives.back().get());
    }
  };

  auto total_switches = [&] {
    uint64_t n = 0;
    for (auto& a : adaptives) n += a->switches();
    return n;
  };
  auto total_epochs = [&] {
    uint64_t n = 0;
    for (auto& a : adaptives) n += a->epoch();
    return n;
  };

  RunResult res;
  res.phases.resize(phases.size());
  auto t0 = std::chrono::steady_clock::now();

  sim.spawn([](sim::Simulator& sim, const std::vector<PhaseSpec>& phases,
               std::vector<proto::RpcChannel*>& chans,
               std::vector<std::unique_ptr<hint::AdaptiveChannel>>& adaptives,
               decltype(add_channel)& add_channel,
               decltype(total_switches)& total_switches,
               decltype(total_epochs)& total_epochs,
               RunResult& res) -> Task<void> {
    for (size_t ph = 0; ph < phases.size(); ++ph) {
      const PhaseSpec& spec = phases[ph];
      PhaseResult& out = res.phases[ph];
      while (chans.size() < spec.channels) add_channel();
      std::vector<uint64_t> sw_before(adaptives.size());
      for (size_t c = 0; c < adaptives.size(); ++c)
        sw_before[c] = adaptives[c]->switches();
      const uint64_t sw0 = total_switches();
      const uint64_t ep0 = total_epochs();
      const sim::Time start = sim.now();

      sim::WaitGroup done(sim);
      sim::WaitGroup warm(sim);
      std::vector<ChanProgress> prog(chans.size());
      for (size_t c = 0; c < chans.size(); ++c) {
        warm.add(1);
        for (uint32_t l = 0; l < spec.lanes; ++l) {
          uint32_t lane_iters = spec.calls_per_chan / spec.lanes +
                                (l < spec.calls_per_chan % spec.lanes ? 1 : 0);
          if (lane_iters == 0) continue;
          done.add(1);
          sim.spawn([](sim::Simulator& sim, proto::RpcChannel& ch,
                       const PhaseSpec& spec, uint32_t lane_iters,
                       ChanProgress& prog, sim::WaitGroup& done,
                       sim::WaitGroup& warm, PhaseResult& out) -> Task<void> {
            proto::Buffer payload(spec.bytes, std::byte{0x5a});
            for (uint32_t i = 0; i < lane_iters; ++i) {
              sim::Time c0 = sim.now();
              auto r = co_await ch.call(payload, spec.bytes);
              r.value();
              out.lat_sum += sim.now() - c0;
              ++prog.done;
              if (!prog.warm_signalled && prog.done >= kWarmup) {
                prog.warm_signalled = true;
                warm.done();
              }
            }
            done.done();
          }(sim, *chans[c], spec, lane_iters, prog[c], done, warm, out));
        }
        // Channels whose phase quota is below the cutoff still settle.
        if (spec.calls_per_chan < kWarmup) {
          prog[c].warm_signalled = true;
          warm.done();
        }
      }

      // Steady state begins when the SLOWEST channel passes the cutoff.
      sim::Time warm_at{};
      co_await warm.wait();
      warm_at = sim.now();
      co_await done.wait();

      out.calls = uint64_t(spec.calls_per_chan) * chans.size();
      out.elapsed = sim.now() - start;
      out.steady_calls =
          out.calls -
          uint64_t(std::min(spec.calls_per_chan, kWarmup)) * chans.size();
      out.steady_elapsed = sim.now() - warm_at;
      out.switches = total_switches() - sw0;
      for (size_t c = 0; c < adaptives.size(); ++c) {
        uint64_t before = c < sw_before.size() ? sw_before[c] : 0;
        out.max_chan_switches = std::max(out.max_chan_switches,
                                         adaptives[c]->switches() - before);
      }
      out.epoch_swaps = total_epochs() - ep0;
      out.plan_after = adaptives.empty()
                           ? std::string("static")
                           : plan_name(adaptives.front()->plan());
    }
    for (auto* ch : chans) ch->shutdown();
    co_return;
  }(sim, phases, chans, adaptives, add_channel, total_switches, total_epochs,
    res));

  sim.run();

  res.end = sim.now();
  res.dump = fabric.obs().counters.dump();
  res.total_switches = total_switches();
  res.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  return res;
}

double mops(uint64_t calls, sim::Duration elapsed) {
  double secs = sim::to_seconds(elapsed);
  return secs > 0 ? double(calls) / secs / 1e6 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  std::string out = "BENCH_adaptive.json";
  hatbench::parse_flags(argc, argv, {{"--seed", &seed}, {"--out", &out}});

  const std::vector<PhaseSpec> phases = {
      {"small-under", kSmallBytes, kChannels, 1, 96},
      {"large-under", kLargeBytes, kChannels, 1, 96},
      {"small-over", kSmallBytes, kOverChannels, 3, 96},
  };

  struct Series {
    Mode mode;
    const char* name;
    RunResult r;
  };
  std::vector<Series> series = {
      {Mode::kAdaptive, "adaptive", {}},
      {Mode::kFrozen, "frozen", {}},
      {Mode::kStaticEager, "static-eager-busy", {}},
      {Mode::kStaticRndv, "static-rndv-event", {}},
  };
  double wall_total = 0;
  for (auto& s : series) {
    s.r = run_config(s.mode, phases);
    wall_total += s.r.wall_s;
    std::printf("%-18s end=%lldns switches=%llu (%.2fs wall)\n", s.name,
                (long long)s.r.end.count(),
                (unsigned long long)s.r.total_switches, s.r.wall_s);
    for (size_t ph = 0; ph < phases.size(); ++ph) {
      const PhaseResult& p = s.r.phases[ph];
      std::printf(
          "  %-12s %8.4f Mops (steady %8.4f)  sw=%llu (max/chan %llu)  "
          "plan=%s\n",
          phases[ph].name, mops(p.calls, p.elapsed),
          mops(p.steady_calls, p.steady_elapsed),
          (unsigned long long)p.switches,
          (unsigned long long)p.max_chan_switches, p.plan_after.c_str());
    }
  }

  // --- The ablation invariant: frozen == static prior, bit for bit. -------
  const RunResult& frozen = series[1].r;
  const RunResult& eager = series[2].r;
  bool frozen_ok = frozen.dump == eager.dump && frozen.end == eager.end;
  if (!frozen_ok) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: frozen adaptive diverged from its "
                 "static twin (end %lld vs %lld)\n",
                 (long long)frozen.end.count(), (long long)eager.end.count());
  }

  hatbench::Report rep{"adaptive", seed};
  Json phase_specs = Json::array();
  for (const PhaseSpec& spec : phases)
    phase_specs.push(Json::object()
                         .put("name", spec.name)
                         .put("bytes", spec.bytes)
                         .put("channels", spec.channels)
                         .put("lanes", spec.lanes)
                         .put("calls_per_channel", spec.calls_per_chan));
  rep.config.put("channels", kChannels)
      .put("small_bytes", kSmallBytes)
      .put("large_bytes", kLargeBytes)
      .put("warmup_calls", kWarmup)
      .put("window", 8)
      .put("cores", 28)
      .put("phases", phase_specs);

  Json series_json = Json::array();
  for (const Series& s : series) {
    Json per_phase = Json::array();
    for (size_t ph = 0; ph < phases.size(); ++ph) {
      const PhaseResult& p = s.r.phases[ph];
      const double steady = mops(p.steady_calls, p.steady_elapsed);
      const double mean_lat_us =
          sim::to_seconds(p.lat_sum / int64_t(p.calls ? p.calls : 1)) * 1e6;
      per_phase.push(Json::object()
                         .put("name", phases[ph].name)
                         .put("mops", Fixed{mops(p.calls, p.elapsed), 4})
                         .put("steady_mops", Fixed{steady, 4})
                         .put("mean_lat_us", Fixed{mean_lat_us, 4})
                         .put("switches", p.switches)
                         .put("max_chan_switches", p.max_chan_switches)
                         .put("epoch_swaps", p.epoch_swaps)
                         .put("plan_after", p.plan_after));
    }
    series_json.push(Json::object()
                         .put("config", s.name)
                         .put("end_ns", s.r.end.count())
                         .put("total_switches", s.r.total_switches)
                         .put("phases", per_phase));
  }

  // Adaptive vs the best and worst static, steady state, per phase.
  const RunResult& adaptive = series[0].r;
  bool adaptive_ok = true;   // >= 0.95x best static in every phase
  bool beats_wrong = false;  // >= 2x the worst static in some phase
  uint64_t max_chan_sw = 0;
  Json per_phase = Json::array();
  for (size_t ph = 0; ph < phases.size(); ++ph) {
    auto steady = [ph](const RunResult& r) {
      return mops(r.phases[ph].steady_calls, r.phases[ph].steady_elapsed);
    };
    const double a = steady(adaptive), e = steady(eager),
                 v = steady(series[3].r);
    const double best = std::max(e, v), worst = std::min(e, v);
    if (a < 0.95 * best) adaptive_ok = false;
    if (worst > 0 && a >= 2.0 * worst) beats_wrong = true;
    max_chan_sw = std::max(max_chan_sw, adaptive.phases[ph].max_chan_switches);
    per_phase.push(
        Json::object()
            .put("name", phases[ph].name)
            .put("adaptive_steady_mops", Fixed{a, 4})
            .put("best_static",
                 e >= v ? "static-eager-busy" : "static-rndv-event")
            .put("best_static_mops", Fixed{best, 4})
            .put("worst_static_mops", Fixed{worst, 4})
            .put("adaptive_vs_best", Fixed{best > 0 ? a / best : 0, 4})
            .put("adaptive_vs_worst", Fixed{worst > 0 ? a / worst : 0, 4}));
  }
  rep.virt.put("series", series_json)
      .put("analysis",
           Json::object()
               .put("per_phase", per_phase)
               .put("adaptive_ge_best_static", adaptive_ok)
               .put("adaptive_2x_wrong_static", beats_wrong)
               .put("frozen_matches_static", frozen_ok)
               .put("adaptive_total_switches", adaptive.total_switches)
               .put("max_switches_per_channel_per_phase", max_chan_sw));

  if (!rep.write(out)) return 1;
  std::printf("wrote %s (%.1fs wall total)\n", out.c_str(), wall_total);
  return frozen_ok ? 0 : 1;
}
