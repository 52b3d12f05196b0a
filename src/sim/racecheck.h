// RaceCheck: a happens-before race & lifetime analyzer for the coroutine
// runtime. VerbsCheck enforces the ibverbs resource contract; RaceCheck
// enforces the ORDERING contract between coroutines — the deterministic
// same-timestamp dispatch order means an order-dependent bug can hide
// forever behind one lucky schedule, and the one-sided / lease / epoch
// paths are exactly where unsynchronized conflicting accesses concentrate.
//
// Clock model (see DESIGN.md §15): every context switch in this runtime
// goes through Simulator::schedule_at, so the scheduler itself carries the
// fork edges — schedule_at snapshots the scheduling segment's vector clock
// into the timer, and dispatch adopts that snapshot as the new segment's
// clock. Join edges are added where the runtime really synchronizes:
//   * WaitQueue notify->wake (the waiter's pre-suspend clock rides the
//     wake timer), which covers Event / Semaphore / Channel / WaitGroup /
//     Mutex and everything built on them;
//   * CQE deliver->poll (each delivered CQE carries the delivering
//     segment's clock; every poll joins it);
//   * keyed release/acquire pairs (sync_release/sync_acquire) for lease
//     and epoch handoffs that bypass a wait queue.
// Segments are assigned to a bounded set of CHAINS (vector-clock indices):
// a chain is reused when the new segment's snapshot dominates everything
// the chain ever emitted (accesses and releases), so clock width tracks
// live concurrency, not total event count.
//
// Locations are (object pointer, sub-index) pairs annotated at hazard
// sites. Three access classes:
//   * kRead / kWrite — strict: unordered conflicting accesses are races;
//   * kUpdate — relaxed, for state that is racy BY DESIGN (dedupe
//     caches, epoch-validated plan snapshots, version-validated one-sided
//     read regions): updates never
//     conflict with each other, but do conflict with strict accesses and
//     still trip lifetime checks.
// retire()/revive() track lifetimes: any access to a retired location
// (a reposted recv-ring slot, a reaped epoch, a freed pool slot) is a
// lifetime violation carrying both provenances.
//
// Modes (env var RACECHECK, or Simulator::racecheck().set_mode(); see
// sim/checker.h): off (the default), record (reports are collected and
// mirrored into the kRaceReports counter), and abort (the first report
// throws RaceViolation).
//
// The checker never advances virtual time and never touches RNG state, so
// enabling it cannot perturb a trace. Schedule PERTURBATION is separate
// and explicit: Simulator::set_tiebreak_seed(s) (or the RACECHECK_TIEBREAK
// env var) shuffles same-timestamp dispatch batches deterministically;
// seed 0 keeps the classic sequence order.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/checker.h"
#include "sim/time.h"

namespace hatrpc::sim {

class Simulator;

enum class RaceKind : uint8_t {
  kRace,      // unsynchronized conflicting accesses to one location
  kLifetime,  // access to a retired location / release discipline broken
  kCount,
};

constexpr const char* to_string(RaceKind k) {
  switch (k) {
    case RaceKind::kRace: return "race";
    case RaceKind::kLifetime: return "lifetime";
    case RaceKind::kCount: break;
  }
  return "unknown";
}

/// Provenance of one annotated access (or retire).
struct RaceAccess {
  Time at{};             // virtual timestamp
  uint32_t chain = 0;    // segment chain id
  uint64_t clk = 0;      // chain-local clock value
  bool write = false;
  const char* site = "";  // static annotation string ("file:line" or name)

  bool valid() const { return site[0] != '\0'; }
};

/// One structured report: the location plus BOTH access provenances.
struct RaceReport {
  RaceKind kind = RaceKind::kCount;
  std::string object;  // e.g. "BufferPool.slot[3]"
  RaceAccess prev;     // the earlier access (or the retire)
  RaceAccess cur;      // the offending access
  std::string detail;

  /// "racecheck[kind] obj=<o>: <prev site> (chain c, clk k, t=..ns) vs
  ///  <cur site> (...): detail"
  std::string str() const;
};

/// Thrown by abort mode at the point of violation.
class RaceViolation : public std::logic_error {
 public:
  explicit RaceViolation(const RaceReport& r)
      : std::logic_error(r.str()), report(r) {}
  RaceReport report;
};

class RaceCheck
    : public Checker<RaceReport, RaceViolation, &RaceReport::kind> {
 public:
  explicit RaceCheck(Simulator& sim);

  /// Also (un)hooks the checker from the simulator's hot path.
  void set_mode(Mode m);

  /// Mirrors every report into an external counter slot (the owning
  /// fabric's node-0 kRaceReports counter).
  void bind_mirror(uint64_t* slot) { mirror_ = slot; }

  // ---- Scheduler hooks (called through the Simulator wrappers; every
  // ---- entry point below assumes the checker is enabled) -----------------

  static constexpr uint32_t kNoClock = 0xffffffffu;

  /// Snapshots the current segment's clock (and ticks it). Returns a
  /// snapshot slot id, attached to a timer or a CQE token.
  uint32_t capture();

  /// Discards an unconsumed snapshot (cancelled timer, mode turned off).
  void drop(uint32_t slot);

  /// Joins snapshot `from` into snapshot `into` and frees `from` — the
  /// notify path: the wake timer carries the waiter's pre-suspend clock
  /// in addition to the notifier's.
  void merge_into(uint32_t from, uint32_t into);

  /// Dispatch: ends the current segment and adopts `slot` as the new
  /// segment's clock, assigning it a (possibly reused) chain.
  void begin_segment(uint32_t slot);

  /// Joins snapshot `slot` into the CURRENT segment's clock and frees it
  /// (CQE consumption mid-segment).
  void acquire_token(uint32_t slot);

  /// Declares the end of a drain: the resuming caller (main, between
  /// run() calls) is ordered after every segment that ran.
  void run_barrier();

  // ---- Keyed release/acquire edges (lease / epoch handoffs) --------------

  void sync_release(const void* obj, uint64_t sub = 0);
  void sync_acquire(const void* obj, uint64_t sub = 0);

  // ---- Location accesses -------------------------------------------------

  enum class Access : uint8_t { kRead, kWrite, kUpdate };

  void access(const void* obj, uint64_t sub, Access a, const char* name,
              const char* site);

  /// Marks a location dead (reposted slot, reaped epoch, freed block);
  /// any later access reports a lifetime violation whose `prev`
  /// provenance is this retire. Also verifies every recorded access
  /// happens-before the retire itself.
  void retire(const void* obj, uint64_t sub, const char* name,
              const char* site);

  /// Begins a fresh lifetime for a location: clears the dead flag AND the
  /// recorded access history (a re-leased slot is a new object).
  void revive(const void* obj, uint64_t sub);

  /// Drops all state for a location (owner destroyed; protects against
  /// address reuse producing phantom provenances).
  void forget(const void* obj, uint64_t sub);

  /// Direct lifetime report for discipline violations detected by the
  /// instrumented object itself (e.g. a double lease release).
  void report_lifetime(const void* obj, uint64_t sub, const char* name,
                       const char* site, std::string detail);

 private:
  using VC = std::vector<uint64_t>;

  struct LocKey {
    const void* obj;
    uint64_t sub;
    bool operator==(const LocKey&) const = default;
  };
  struct LocKeyHash {
    size_t operator()(const LocKey& k) const {
      uint64_t h = reinterpret_cast<uintptr_t>(k.obj);
      h ^= k.sub + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h * 0xff51afd7ed558ccdull);
    }
  };

  struct Loc {
    const char* name = "";
    RaceAccess write;                 // last strict write (invalid if none)
    std::vector<RaceAccess> reads;    // concurrent strict readers
    std::vector<RaceAccess> updates;  // concurrent relaxed updaters
    bool dead = false;
    RaceAccess retired;  // retire provenance, valid while dead
  };

  uint64_t clk() const { return cur_vc_[cur_chain_]; }
  void tick() { ++cur_vc_[cur_chain_]; }
  void emit() { chain_last_emit_[cur_chain_] = clk(); }
  bool hb(const RaceAccess& prev) const {
    return prev.clk <=
           (prev.chain < cur_vc_.size() ? cur_vc_[prev.chain] : 0);
  }
  RaceAccess here(bool write, const char* site) const;
  static void join(VC& into, const VC& from);
  uint32_t alloc_snap();
  void free_snap(uint32_t slot);
  void record(std::vector<RaceAccess>& list, const RaceAccess& a);
  void report(RaceKind kind, std::string object, const RaceAccess& prev,
              const RaceAccess& cur, std::string detail);
  std::string object_name(const Loc& l, const LocKey& k) const;

  Simulator& sim_;
  uint64_t* mirror_ = nullptr;

  // Segment / chain state.
  VC cur_vc_;
  uint32_t cur_chain_ = 0;
  std::vector<uint64_t> chain_tail_;       // clock at last segment end
  std::vector<uint64_t> chain_last_emit_;  // clock of last access/release
  std::vector<uint32_t> free_chains_;
  static constexpr size_t kReuseScan = 32;  // free chains probed per dispatch

  // Snapshot arena (timer captures, CQE tokens, waiter link tokens).
  std::vector<VC> snaps_;
  std::vector<uint32_t> snap_free_;

  std::unordered_map<LocKey, VC, LocKeyHash> sync_;    // release clocks
  std::unordered_map<LocKey, Loc, LocKeyHash> locs_;   // access state
};

}  // namespace hatrpc::sim
