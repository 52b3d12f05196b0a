// hatbench: one workload of the HatRPC end-to-end benchmark.
//
//   hatbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// Generates the workload's inputs from the seed, then runs passes over its
// input sets until `--seconds` of wall-clock time have passed (at least two
// passes). Prints one JSON object: the end-to-end metrics, the per-layer
// counts and host microbenchmarks (with --trace 1), the correctness tally
// and the trace attribution map that perfbench/run.py folds into the
// per-span metrics. Exits 1 when any check failed.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>

#include "hatbench.h"

namespace {

using namespace hatbench;
using hatrpc::obs::Ctr;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() &&
         (!a.trace || !a.trace_out.empty());
}

/// Host seconds of one round on one input set. Other tenants of a shared
/// host only ever add time, so each simulation of the round (proto-sweep
/// has one per row) is charged the 10th percentile of its repetitions, and
/// the round is their sum.
class HostTimes {
 public:
  /// Adds one repetition, its times multiplied by `scale`.
  void add(const std::vector<double>& parts, double scale) {
    parts_.resize(parts.size());
    for (size_t i = 0; i < parts.size(); ++i)
      parts_[i].push_back(parts[i] * scale);
  }
  double low() const {
    double total = 0;
    for (std::vector<double> v : parts_) {
      std::sort(v.begin(), v.end());
      total += v[size_t(std::ceil(0.1 * double(v.size()))) - 1];
    }
    return total;
  }

 private:
  std::vector<std::vector<double>> parts_;
};

/// Nearest-rank percentile of raw samples, in microseconds.
double percentile_us(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(q * double(v.size())));
  return double(v[std::max<size_t>(rank, 1) - 1]) / 1e3;
}

/// A "Vm...:" field of /proc/self/status, in MiB (-1 when it is missing).
double status_mb(const std::string& field) {
  std::ifstream is("/proc/self/status");
  for (std::string line; std::getline(is, line);)
    if (line.rfind(field + ":", 0) == 0)
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
  return -1;
}

/// Resets the process's peak RSS to its current RSS, which it returns in
/// MiB (-1 when the kernel does not allow the reset).
double reset_peak_rss_mb() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5" << std::flush;
  return os ? status_mb("VmRSS") : -1;
}

std::string quote(const std::string& v) {
  std::string s = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') s += '\\';
    s += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return s + "\"";
}

/// Minimal JSON object writer (keys are fixed ASCII names).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    key(k);
    os_ << std::setprecision(17) << v;
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    key(k);
    os_ << quote(v);
    return *this;
  }
  Json& raw(const std::string& k, const std::string& v) {
    key(k);
    os_ << v;
    return *this;
  }
  std::string done() { return os_.str() + "}"; }

 private:
  void key(const std::string& k) {
    os_ << (first_ ? "{" : ",") << '"' << k << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string str_list(const std::vector<std::string>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += quote(v[i]);
  }
  return s + "]";
}

template <class T, size_t N>
std::string tuple_list(const std::vector<std::array<T, N>>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s += i ? ",[" : "[";
    for (size_t j = 0; j < N; ++j) {
      if (j) s += ',';
      s += std::to_string(v[i][j]);
    }
    s += ']';
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: hatbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  // Large blocks stay in the heap instead of being mapped and unmapped per
  // allocation, so page-fault counts (and with them host times and the
  // peak RSS) do not depend on the allocator's adaptive thresholds.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) {
    std::cerr << "hatbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  copy_probe_s();  // allocates the probe's arena before the RSS reset
  // peak_rss_mb is what the rounds add on top of the generated inputs.
  const double inputs_rss_mb = reset_peak_rss_mb();
  std::set<std::string> violations;
  if (inputs_rss_mb < 0) violations.insert("cannot reset the peak RSS");

  // ---- Timed region: passes over the input sets until --seconds have
  // passed (at least two, so every input set is timed twice). The first
  // pass is the virtual sample; later ones must reproduce it bit for bit.
  const size_t sets = wl->input_sets();
  std::vector<RoundOut> first;
  std::vector<uint64_t> digests;
  std::vector<HostTimes> setup(sets), run(sets), raw_run(sets);
  auto host_s = [](const std::vector<HostTimes>& by_set) {
    double total = 0;
    for (const HostTimes& t : by_set) total += t.low();
    return total;
  };
  uint64_t attempted = 0, failed = 0;
  size_t rounds = 0;
  std::vector<double> probes;  // copy_probe_s() before each round
  auto round = [&](size_t input, const RoundMode& mode) {
    probes.push_back(copy_probe_s());
    RoundOut r = wl->run_round(input, mode);
    attempted += r.attempted;
    failed += r.errors + r.mismatches;
    violations.insert(r.violations.begin(), r.violations.end());
    ++rounds;
    return r;
  };
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < 2 * sets || seconds_since(start) < args.seconds;
       ++i) {
    const size_t input = i % sets;
    RoundOut r = round(input, {});
    const double scale = kProbeRefS / probes.back();
    setup[input].add(r.setup_s, scale);
    run[input].add(r.run_s, scale);
    raw_run[input].add(r.run_s, 1);
    if (i < sets) {
      digests.push_back(r.digest());
      first.push_back(std::move(r));
    } else if (r.digest() != digests[input]) {
      violations.insert("virtual results differ between rounds on input set " +
                        std::to_string(input));
    }
  }

  // ---- End-to-end metrics (virtual ones from the first pass only).
  std::vector<int64_t> all, reads, writes;
  int64_t makespan_ns = 0;
  uint64_t digest = 1469598103934665603ull;
  for (const RoundOut& r : first) {
    for (size_t k = 0; k < r.lat_ns.size(); ++k) {
      all.push_back(r.lat_ns[k]);
      if (r.cls[k] != CallClass::kWrite) reads.push_back(r.lat_ns[k]);
      if (r.cls[k] != CallClass::kRead) writes.push_back(r.lat_ns[k]);
    }
    makespan_ns += r.makespan_ns;
    digest = (digest ^ r.digest()) * 1099511628211ull;
  }
  const double calls = double(std::max<size_t>(all.size(), 1));
  Json e2e;
  e2e.num("virt_p50_us", percentile_us(all, 0.50))
      .num("virt_p99_us", percentile_us(all, 0.99))
      .num("virt_kops", double(all.size()) / (double(makespan_ns) / 1e9) / 1e3)
      .num("virt_read_p99_us", percentile_us(reads, 0.99))
      .num("virt_write_p99_us", percentile_us(writes, 0.99))
      .num("host_kcalls_per_s", double(all.size()) / host_s(run) / 1e3)
      .num("setup_s", host_s(setup) / double(sets))
      .num("peak_rss_mb", status_mb("VmHWM") - inputs_rss_mb);
  std::vector<double> timed_probes = probes;
  std::nth_element(timed_probes.begin(),
                   timed_probes.begin() + timed_probes.size() / 2,
                   timed_probes.end());
  const double probe_ms = timed_probes[timed_probes.size() / 2] * 1e3;

  Json out;
  out.str("workload", args.workload)
      .num("seed", double(args.seed))
      .num("rounds", double(rounds))
      .raw("e2e", e2e.done())
      .raw("samples", Json()
                          .num("calls", double(all.size()))
                          .num("reads", double(reads.size()))
                          .num("writes", double(writes.size()))
                          .done());
  std::ostringstream hex;
  hex << std::hex << digest;
  out.str("virtual_digest", hex.str())
      .str("compiler", "g++ " __VERSION__)
      .str("build", HATBENCH_BUILD_TYPE);

  // ---- After the timed region: input set 0 once more with VerbsCheck
  // recording. Its teardown checks see any contract violation, and
  // checking must leave the virtual results alone.
  if (round(0, {.verbs_check = true}).digest() != digests[0])
    violations.insert("VerbsCheck changed the virtual results");

  if (args.trace) {
    // ---- Per-layer counts over the first pass.
    hatrpc::obs::CounterSet c;
    hatrpc::kv::EnvStats kv{};
    uint64_t kv_ops = 0, peak_queue = 0, events = 0;
    for (const RoundOut& r : first) {
      for (size_t i = 0; i < c.v.size(); ++i) c.v[i] += r.ctrs.v[i];
      kv.page_reads += r.kv.page_reads;
      kv.page_writes += r.kv.page_writes;
      kv.commits += r.kv.commits;
      kv_ops += r.kv_ops;
      peak_queue = std::max(peak_queue, r.peak_queue);
      events += r.events;
    }
    auto per_call = [&](Ctr k) { return double(c.get(k)) / calls; };
    const double lookups =
        double(c.get(Ctr::kMrCacheHits) + c.get(Ctr::kMrCacheMisses));

    // ---- Traced pass: input set 0 again, tracing on. Three rounds give a
    // steadier traced time; only the first one's trace is written out.
    hatrpc::obs::Tracer sink;
    TraceMap map;
    HostTimes traced;
    for (int t = 0; t < 3; ++t) {
      hatrpc::obs::Tracer spare;
      TraceMap spare_map;
      RoundOut r = t == 0 ? round(0, {&sink, &map})
                          : round(0, {&spare, &spare_map});
      traced.add(r.run_s, kProbeRefS / probes.back());
      if (r.digest() != digests[0])
        violations.insert("tracing changed the virtual results");
    }
    {
      std::ofstream os(args.trace_out);
      sink.write_json(os);
      if (!os) violations.insert("could not write " + args.trace_out);
    }
    if (sink.dropped())
      violations.insert("trace dropped " + std::to_string(sink.dropped()) +
                        " events");

    // ---- Host microbenchmarks, after the timed region.
    MicroOut m = wl->micro();

    Json layer;
    layer.num("host.raw_kcalls_per_s", calls / host_s(raw_run) / 1e3)
        .num("host.copy_probe_ms", probe_ms)
        .num("sim.events_per_call", double(events) / calls)
        .num("sim.host_ns_per_event",
             host_s(run) * 1e9 / double(std::max<uint64_t>(events, 1)))
        .num("sim.peak_queue_depth", double(peak_queue))
        .num("verbs.doorbells_per_call", per_call(Ctr::kDoorbells))
        .num("verbs.wqes_per_call", per_call(Ctr::kWqesPosted))
        .num("verbs.cqes_per_call", per_call(Ctr::kCqesPolled))
        .num("verbs.inline_wqes_per_call", per_call(Ctr::kInlineWqes))
        .num("verbs.dma_bytes_per_call", per_call(Ctr::kDmaBytes))
        .num("verbs.post_poll_ns", m.verbs_post_poll_ns)
        .num("verbs.retransmits", double(c.get(Ctr::kRetransmits)))
        .num("verbs.wqe_errors", double(c.get(Ctr::kWqeErrors)))
        .num("verbs.rnr_events", double(c.get(Ctr::kRnrEvents)))
        .num("proto.copy_bytes_per_call", per_call(Ctr::kCopyBytes))
        .num("proto.mr_cache_hit_ratio",
             lookups ? double(c.get(Ctr::kMrCacheHits)) / lookups : 0)
        .num("proto.mr_cache_hits", double(c.get(Ctr::kMrCacheHits)))
        .num("proto.mr_cache_misses", double(c.get(Ctr::kMrCacheMisses)))
        .num("proto.pool_reuses_per_call", per_call(Ctr::kPoolBufferReuses))
        .num("proto.recv_leases_per_call", per_call(Ctr::kRecvLeases))
        .num("proto.window_stalls_per_call", per_call(Ctr::kWindowStalls))
        .num("proto.failed_calls", double(c.get(Ctr::kFailedCalls)))
        .num("proto.call_ns", m.proto_call_ns)
        .num("thrift.encode_ns", m.thrift_encode_ns)
        .num("thrift.decode_ns", m.thrift_decode_ns)
        .num("core.envelope_ns", m.core_envelope_ns)
        .num("core.process_ns", m.core_process_ns)
        .num("core.channels_per_conn", first[0].channels_per_conn)
        .num("hint.select_plan_ns", m.hint_select_plan_ns)
        .num("hint.plan_switches", double(c.get(Ctr::kPlanSwitches)))
        .num("hint.epoch_swaps", double(c.get(Ctr::kEpochSwaps)))
        .num("kv.get_ns", m.kv_get_ns)
        .num("kv.page_reads_per_op",
             kv_ops ? double(kv.page_reads) / double(kv_ops) : 0)
        .num("kv.put_commit_ns", m.kv_put_commit_ns)
        .num("kv.pages_written_per_commit",
             kv.commits ? double(kv.page_writes) / double(kv.commits) : 0)
        .num("obs.trace_overhead", run[0].low() / traced.low())
        .num("virt.samples", double(all.size()))
        .num("virt.read_samples", double(reads.size()))
        .num("virt.write_samples", double(writes.size()));
    out.raw("layer", layer.done())
        .raw("trace_map", Json()
                              .raw("peer", tuple_list(map.peer))
                              .raw("server_of", tuple_list(map.server_of))
                              .done())
        .num("trace_calls", double(first[0].lat_ns.size()))
        .raw("trace_client_ns",
             std::to_string(std::accumulate(first[0].lat_ns.begin(),
                                            first[0].lat_ns.end(), int64_t{0})));
  }

  const std::vector<std::string> v(violations.begin(), violations.end());
  out.num("attempted", double(attempted))
      .num("failed", double(failed))
      .raw("violations", str_list(v));
  std::cout << out.done() << "\n";
  for (const std::string& s : v) std::cerr << "hatbench: violation: " << s << "\n";
  return v.empty() && failed == 0 ? 0 : 1;
}
