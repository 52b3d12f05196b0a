// HatRPC end-to-end benchmark: shared types.
//
// A workload owns its pre-generated, seeded inputs and runs "rounds". A
// round builds a fresh simulation (fabric, server, connections, warm-up
// calls, the ycsb-a load), then drives the closed-loop clients over one
// input set, then tears the world down and checks it. Rounds on the same
// input set are byte-identical in virtual time; main.cc uses that as an
// in-run determinism check and pools the virtual samples of the first pass
// over the input sets.
#pragma once

#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kv/mdblite.h"
#include "obs/obs.h"

namespace hatbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host seconds the calling thread has run. Every host figure is measured
/// with this clock rather than the wall clock, so time the (single) thread
/// spends descheduled, by other processes or by the hypervisor, is not
/// charged to the simulator.
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// The machine-speed probe: host seconds of the best of three passes that
/// copy a 32 MiB arena in 128 KiB blocks. On a shared host the speed of
/// the whole machine moves by 20-30 % over minutes, and this probe, taken
/// just before a round, tracks about half of that; so every round's host
/// times are scaled by kProbeRefS / probe, i.e. reported as if the probe
/// had taken kProbeRefS.
double copy_probe_s();
constexpr double kProbeRefS = 5e-3;

/// Which latency population a call belongs to (ycsb-a splits reads from
/// writes; every echo call both sends and receives its payload).
enum class CallClass : uint8_t { kEcho, kRead, kWrite };

/// Trace-side bookkeeping that lets run.py attribute every span to the
/// client whose call caused it (each simulated client has its own node).
struct TraceMap {
  /// (server pid, tid) -> client pid, for server-side WQE spans (tid = QP
  /// number) and benchmark handler spans (tid = kAppTid + client node id).
  std::vector<std::array<uint64_t, 3>> peer;
  /// (client pid, server pid) pairs.
  std::vector<std::array<uint64_t, 2>> server_of;
  uint32_t next_pid = 0;
};

/// Benchmark handler spans carry the calling client in their tid.
constexpr uint64_t kAppTid = uint64_t{1} << 20;

/// What a round does beyond the plain timed run. Neither option may change
/// the round's virtual results.
struct RoundMode {
  hatrpc::obs::Tracer* trace = nullptr;  // trace, merging the spans here
  TraceMap* map = nullptr;               // ...and attributing them here
  bool verbs_check = false;              // VerbsCheck in record mode
};

struct RoundOut {
  std::vector<int64_t> lat_ns;  // per measured call, completion order
  std::vector<CallClass> cls;
  int64_t makespan_ns = 0;      // virtual span of the measured region
  uint64_t attempted = 0;
  uint64_t errors = 0;          // calls that failed with an error
  uint64_t mismatches = 0;      // replies that failed the correctness check
  // Host seconds per simulation of the round (proto-sweep has one per row):
  std::vector<double> setup_s;  // world build + warm-up + load
  std::vector<double> run_s;    // the measured region
  uint64_t events = 0;          // simulator events in the measured region
  uint64_t peak_queue = 0;
  hatrpc::obs::CounterSet ctrs;  // fabric counters, measured region
  hatrpc::kv::EnvStats kv{};     // mdblite stats, measured region
  uint64_t kv_ops = 0;           // YCSB ops (GET/PUT/MultiGET/MultiPUT)
  double channels_per_conn = 0;
  std::vector<std::string> violations;

  /// Hash of everything the round computed in virtual time.
  uint64_t digest() const;
};

/// Host-time per-layer microbenchmarks (ns per op), run after the timed
/// region on the workload's own messages and keys.
struct MicroOut {
  double verbs_post_poll_ns = 0;
  double proto_call_ns = 0;
  double thrift_encode_ns = 0;
  double thrift_decode_ns = 0;
  double core_envelope_ns = 0;
  double core_process_ns = 0;
  double hint_select_plan_ns = 0;
  double kv_get_ns = 0;
  double kv_put_commit_ns = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Number of distinct pre-generated input sets.
  virtual size_t input_sets() const = 0;
  /// Runs one round on input set `input`.
  virtual RoundOut run_round(size_t input, const RoundMode& mode) = 0;
  virtual MicroOut micro() = 0;
};

/// Builds a workload and generates all its inputs from `seed`. Returns null
/// for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed);

}  // namespace hatbench
