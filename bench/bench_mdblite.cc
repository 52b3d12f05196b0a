// mdblite microbenchmark: the host cost of the storage engine under HatKV,
// on the ycsb-a key space (10k records of 24 B keys and 1000 B values on
// 4 KB pages, loaded in key order in one write txn). Four seeded phases:
//
//   load      the one-txn bulk load                  -> ns per record
//   get       a read txn, one Get, commit            -> ns per Get
//   put       a write txn, one same-size Put, commit -> ns per commit
//   multiput  a write txn, ten Puts, commit          -> ns per commit
//
// The report's `virtual` block digests what the phases did to the tree
// (EnvStats, page_count, live_pages, the summed pages_touched /
// pages_written and a hash of the values read) and is byte-identical for a
// seed, while ns/op goes to `host`. --before embeds an earlier run's --out
// file as `host.before`, which is how the committed BENCH_mdblite.json
// carries the numbers of the previous page layout.
//
//   bench_mdblite --seed 1 --out BENCH_mdblite.json [--before before.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "kv/mdblite.h"
#include "report.h"
#include "sim/rng.h"

namespace {

using namespace hatrpc;
using hatbench::Fixed;
using hatbench::hex64;
using hatbench::Json;

// The ycsb-a shape (perfbench's ycsb-a workload, HatKV's MultiPut batch).
constexpr uint32_t kRecords = 10000;
constexpr size_t kKeyBytes = 24;
constexpr size_t kValueBytes = 1000;
constexpr uint32_t kBatch = 10;
// Ops per timed phase; the committed virtual block depends on them.
constexpr uint32_t kGets = 200000;
constexpr uint32_t kPuts = 50000;
constexpr uint32_t kMultiPuts = 10000;

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

double ns_per_op(const PhaseResult& p) {
  return p.ops ? p.wall_s * 1e9 / double(p.ops) : 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  std::string out = "BENCH_mdblite.json";
  std::string before;  // an earlier --out file to embed
  hatbench::parse_flags(
      argc, argv, {{"--seed", &seed}, {"--out", &out}, {"--before", &before}});
  // Read it now, so a bad path fails before the timed phases run.
  const std::string before_json = before.empty() ? "" : read_file(before);

  Bench bench(seed);
  const PhaseResult phases[] = {bench.load(), bench.get(),
                                bench.put("put", kPuts, 1),
                                bench.put("multiput", kMultiPuts, kBatch)};

  hatbench::Report rep{"mdblite", seed};
  rep.config.put("records", kRecords)
      .put("key_bytes", kKeyBytes)
      .put("value_bytes", kValueBytes)
      .put("page_size", 4096)
      .put("gets", kGets)
      .put("puts", kPuts)
      .put("multiputs", kMultiPuts)
      .put("batch", kBatch);
  for (const PhaseResult& p : phases) {
    rep.virt.put(p.name, Json::object()
                             .put("ops", p.ops)
                             .put("pages_touched", p.pages_touched)
                             .put("pages_written", p.pages_written)
                             .put("page_reads", p.stats.page_reads)
                             .put("page_writes", p.stats.page_writes)
                             .put("commits", p.stats.commits)
                             .put("aborts", p.stats.aborts)
                             .put("reclaimed", p.stats.reclaimed)
                             .put("page_count", p.page_count)
                             .put("live_pages", p.live_pages)
                             .put("read_fnv", hex64(p.read_fnv)));
    rep.host.put(p.name, Json::object()
                             .put("wall_s", Fixed{p.wall_s, 3})
                             .put("ns_per_op", Fixed{ns_per_op(p), 3}));
    std::printf("%-8s %8llu ops in %7.3fs = %10.1f ns/op  (touched %llu, "
                "written %llu)\n",
                p.name, (unsigned long long)p.ops, p.wall_s, ns_per_op(p),
                (unsigned long long)p.pages_touched,
                (unsigned long long)p.pages_written);
  }
  if (!before.empty()) rep.host.put_raw("before", before_json);
  if (!rep.write(out)) return 1;
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
