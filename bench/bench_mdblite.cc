// mdblite microbenchmark: the host cost of the storage engine under HatKV,
// on the ycsb-a key space (10k records of 24 B keys and 1000 B values on
// 4 KB pages, loaded in key order in one write txn). Four seeded phases:
//
//   load      the one-txn bulk load                  -> ns per record
//   get       a read txn, one Get, commit            -> ns per Get
//   put       a write txn, one same-size Put, commit -> ns per commit
//   multiput  a write txn, ten Puts, commit          -> ns per commit
//
// Not a google-benchmark binary: wall-clock rates are machine-dependent, so
// --out JSON is informational, while --trace-out gets a byte-identical
// digest of what the phases did to the tree (EnvStats, page_count,
// live_pages, the summed pages_touched / pages_written and a hash of the
// values read) that CI runs twice with the same seed and cmp's. --before
// embeds an earlier run's --out file under "before", which is how the
// committed BENCH_mdblite.json carries the numbers of the previous layout.
//
//   bench_mdblite --seed 1 --out BENCH_mdblite.json
//                 --trace-out mdblite.trace [--before before.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "kv/mdblite.h"
#include "sim/rng.h"

namespace {

using namespace hatrpc;

// The ycsb-a shape (perfbench's ycsb-a workload, HatKV's MultiPut batch).
constexpr uint32_t kRecords = 10000;
constexpr size_t kKeyBytes = 24;
constexpr size_t kValueBytes = 1000;
constexpr uint32_t kBatch = 10;
// Ops per timed phase; the pinned trace digest depends on them.
constexpr uint32_t kGets = 200000;
constexpr uint32_t kPuts = 50000;
constexpr uint32_t kMultiPuts = 10000;

struct Options {
  uint64_t seed = 1;
  std::string out = "BENCH_mdblite.json";
  std::string trace_out;  // empty = skip the digest file
  std::string before;     // an earlier --out file to embed
};

/// One phase's wall time plus its deterministic effect on the tree.
struct PhaseResult {
  const char* name = "";
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t pages_touched = 0;  // summed over the phase's txns
  uint64_t pages_written = 0;  // summed CommitInfo::pages_written
  uint64_t read_fnv = 0;       // get phase only: hash of the values read
  kv::EnvStats stats;          // cumulative at the end of the phase
  size_t page_count = 0;
  size_t live_pages = 0;
};

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t fnv1a(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// YCSB's key format (ycsb::WorkloadGenerator::key_of), padded to 24 B.
std::string key_of(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "user%019llu", (unsigned long long)i);
  std::string k(buf);
  k.resize(kKeyBytes, '0');
  return k;
}

std::string value_of(uint64_t i, uint64_t version) {
  std::string v(kValueBytes, static_cast<char>('a' + (i + version) % 26));
  const uint64_t stamp[2] = {i, version};
  std::memcpy(v.data(), stamp, sizeof stamp);
  return v;
}

class Bench {
 public:
  explicit Bench(uint64_t seed)
      : env_(kv::EnvOptions{.page_size = 4096, .max_readers = 136}),
        rng_(seed) {
    for (uint64_t i = 0; i < kRecords; ++i) {
      keys_.push_back(key_of(i));
      values_.push_back(value_of(i, 0));
    }
  }

  PhaseResult load() {
    PhaseResult r;
    r.name = "load";
    auto t0 = std::chrono::steady_clock::now();
    kv::Txn t = env_.begin(true);
    for (size_t i = 0; i < keys_.size(); ++i) t.put(keys_[i], values_[i]);
    r.pages_touched = t.pages_touched();
    r.pages_written = t.commit().pages_written;
    r.wall_s = wall_since(t0);
    r.ops = keys_.size();
    return finish(r);
  }

  PhaseResult get() {
    PhaseResult r;
    r.name = "get";
    const std::vector<uint32_t> picks = draw(kGets);
    r.read_fnv = 1469598103934665603ull;
    auto t0 = std::chrono::steady_clock::now();
    for (uint32_t k : picks) {
      kv::Txn t = env_.begin(false);
      std::optional<std::string> v = t.get(keys_[k]);
      if (!v) throw std::runtime_error("bench_mdblite: a key went missing");
      // The stamp (record index, version) and the length name the value.
      const uint64_t len = v->size();
      r.read_fnv = fnv1a(r.read_fnv, std::string_view(*v).substr(0, 16));
      r.read_fnv = fnv1a(r.read_fnv, {reinterpret_cast<const char*>(&len),
                                      sizeof len});
      r.pages_touched += t.pages_touched();
      t.commit();
    }
    r.wall_s = wall_since(t0);
    r.ops = picks.size();
    return finish(r);
  }

  /// `txns` write txns of `batch` same-size overwrites each.
  PhaseResult put(const char* name, uint32_t txns, uint32_t batch) {
    PhaseResult r;
    r.name = name;
    const std::vector<uint32_t> picks = draw(txns * batch);
    std::vector<std::string> values;
    values.reserve(picks.size());
    for (uint32_t k : picks)
      values.push_back(value_of(k, ++version_));
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < picks.size(); i += batch) {
      kv::Txn t = env_.begin(true);
      for (size_t j = i; j < i + batch; ++j) t.put(keys_[picks[j]], values[j]);
      r.pages_touched += t.pages_touched();
      r.pages_written += t.commit().pages_written;
    }
    r.wall_s = wall_since(t0);
    r.ops = txns;
    return finish(r);
  }

 private:
  std::vector<uint32_t> draw(uint32_t n) {
    std::vector<uint32_t> picks(n);
    for (uint32_t& k : picks)
      k = static_cast<uint32_t>(rng_.bounded(keys_.size()));
    return picks;
  }

  PhaseResult finish(PhaseResult r) {
    r.stats = env_.stats();
    r.page_count = env_.page_count();
    r.live_pages = env_.live_pages();
    return r;
  }

  kv::Env env_;
  sim::Rng rng_;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
  uint64_t version_ = 0;
};

// --- output ---------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double ns_per_op(const PhaseResult& p) {
  return p.ops ? p.wall_s * 1e9 / double(p.ops) : 0.0;
}

std::string phase_json(const PhaseResult& p) {
  std::string j = std::string("\"") + p.name + "\":{";
  j += "\"wall_s\":" + fmt(p.wall_s);
  j += ",\"ops\":" + std::to_string(p.ops);
  j += ",\"ns_per_op\":" + fmt(ns_per_op(p));
  j += ",\"pages_touched\":" + std::to_string(p.pages_touched);
  j += ",\"pages_written\":" + std::to_string(p.pages_written);
  j += ",\"page_count\":" + std::to_string(p.page_count);
  j += ",\"live_pages\":" + std::to_string(p.live_pages);
  j += "}";
  return j;
}

/// Deterministic digest line: everything about the phase EXCEPT wall time.
std::string phase_trace(const PhaseResult& p) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "%s ops=%llu touched=%llu written=%llu page_reads=%llu "
      "page_writes=%llu commits=%llu aborts=%llu reclaimed=%llu "
      "page_count=%zu live_pages=%zu read_fnv=0x%016llx\n",
      p.name, (unsigned long long)p.ops, (unsigned long long)p.pages_touched,
      (unsigned long long)p.pages_written,
      (unsigned long long)p.stats.page_reads,
      (unsigned long long)p.stats.page_writes,
      (unsigned long long)p.stats.commits, (unsigned long long)p.stats.aborts,
      (unsigned long long)p.stats.reclaimed, p.page_count, p.live_pages,
      (unsigned long long)p.read_fnv);
  return buf;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto eat = [&](const char* flag, auto set) {
      if (a != flag) return false;
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      set(argv[++i]);
      return true;
    };
    bool ok =
        eat("--seed", [&](const char* v) { opt.seed = std::stoull(v); }) ||
        eat("--out", [&](const char* v) { opt.out = v; }) ||
        eat("--trace-out", [&](const char* v) { opt.trace_out = v; }) ||
        eat("--before", [&](const char* v) { opt.before = v; });
    if (!ok) {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  Bench bench(opt.seed);
  PhaseResult phases[] = {bench.load(), bench.get(),
                          bench.put("put", kPuts, 1),
                          bench.put("multiput", kMultiPuts, kBatch)};

  std::string json = "{\"bench\":\"mdblite\",\"config\":{";
  json += "\"seed\":" + std::to_string(opt.seed);
  json += ",\"records\":" + std::to_string(kRecords);
  json += ",\"key_bytes\":" + std::to_string(kKeyBytes);
  json += ",\"value_bytes\":" + std::to_string(kValueBytes);
  json += ",\"page_size\":4096";
  json += ",\"gets\":" + std::to_string(kGets);
  json += ",\"puts\":" + std::to_string(kPuts);
  json += ",\"multiputs\":" + std::to_string(kMultiPuts);
  json += ",\"batch\":" + std::to_string(kBatch);
  json += "}";
  std::string trace = "mdblite_trace_v1 seed=" + std::to_string(opt.seed) +
                      "\n";
  for (const PhaseResult& p : phases) {
    json += ',';
    json += phase_json(p);
    trace += phase_trace(p);
    std::printf("%-8s %8llu ops in %7.3fs = %10.1f ns/op  (touched %llu, "
                "written %llu)\n",
                p.name, (unsigned long long)p.ops, p.wall_s, ns_per_op(p),
                (unsigned long long)p.pages_touched,
                (unsigned long long)p.pages_written);
  }
  if (!opt.before.empty()) json += ",\"before\":" + read_file(opt.before);
  json += "}\n";
  std::ofstream(opt.out) << json;
  std::printf("wrote %s\n", opt.out.c_str());
  if (!opt.trace_out.empty()) {
    std::ofstream(opt.trace_out) << trace;
    std::printf("wrote %s\n", opt.trace_out.c_str());
  }
  return 0;
}
