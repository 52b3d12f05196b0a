// Monotonic operation counters, scoped per node and per channel.
//
// Every cost the simulator charges (doorbell MMIOs, WQE posts, CQE polls,
// DMA'd bytes, software staging copies, retransmissions, timeouts...) is
// counted where it is charged, so the numbers the paper argues about in §3
// are observable instead of buried inside CostModel. Because the simulator
// is deterministic, two runs with the same seed produce byte-identical
// dump() output — tests use that as a regression oracle.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>

namespace hatrpc::obs {

enum class Ctr : uint8_t {
  kDoorbells,      // MMIO doorbell rings (a chained post counts once)
  kWqesPosted,     // work-queue elements handed to the NIC
  kCqesPolled,     // completions consumed by software
  kDmaBytes,       // payload bytes moved by the NIC DMA engines
  kCopyBytes,      // software staging-copy bytes charged to a CPU
  kMrBytes,        // bytes of registered (pinned) memory
  kRnrEvents,      // receiver-not-ready stalls / paced re-probes
  kRetransmits,    // transport retransmissions (drop or ICRC discard)
  kDuplicates,     // duplicate deliveries (PSN-deduped, wire cost only)
  kWqeErrors,      // WQEs completed with a non-success status
  kFailedCalls,    // calls that resolved to an RpcError
  kTimeouts,       // reliability-layer attempts abandoned at the deadline
  kBackoffSleeps,  // reliability-layer backoff waits
  kReconnects,     // channels rebuilt after a failure
  kFallbacks,      // degradations to the eager path
  kReplays,        // server-side dedupe hits (response replayed)
  kRequests,       // thrift server requests processed
  kDoorbellCoalescedWqes,  // WQEs that rode another post's doorbell MMIO
  kSrqPosts,       // recv WRs posted to a shared receive queue
  kCqBatchPolls,   // batched CQ drains (one pickup, many CQEs)
  kWindowStalls,   // call() blocked because the channel window was full
  kInlineWqes,     // WQEs whose payload rode the MMIO write (IBV_SEND_INLINE)
  kMrCacheHits,    // registration-cache lookups served from the cache
  kMrCacheMisses,  // lookups that had to register the buffer
  kMrCacheEvictions,  // cached registrations dropped by LRU pressure
  kPoolBufferReuses,  // pooled buffers re-acquired after a previous use
  kContractViolations,  // verbs-contract diagnostics recorded by VerbsCheck
  kRetryAttempts,      // reliability-layer attempts beyond a call's first
  kDeadlineExceeded,   // calls abandoned because the total budget ran out
  kFailovers,          // cluster clients switching to a surviving replica
  kShardMapRefreshes,  // shard-map re-resolutions from the directory
  kChainForwards,      // replication hops forwarded down a shard chain
  kOneSidedReads,      // GETs served by the one-sided READ path
  kOneSidedFallbacks,  // one-sided reads that fell back to RPC (torn/stale/miss)
  kResyncOps,          // records streamed to a rejoining replica
  kTimerCancels,       // deadline timers removed before firing (TimerHandle)
  kShardAccepts,       // connections steered onto a server shard at accept
  kShardPolls,         // CQEs consumed by a shard's polling loop
  kPlanSwitches,       // adaptive controller republished a function's plan
  kEpochSwaps,         // adaptive channels rebuilt for a new plan epoch
  kRecvLeases,         // replies lent in place from a Direct response slot
  kRaceReports,        // race/lifetime diagnostics recorded by RaceCheck
  kCount,
};

constexpr const char* to_string(Ctr c) {
  switch (c) {
    case Ctr::kDoorbells: return "doorbells";
    case Ctr::kWqesPosted: return "wqes_posted";
    case Ctr::kCqesPolled: return "cqes_polled";
    case Ctr::kDmaBytes: return "dma_bytes";
    case Ctr::kCopyBytes: return "copy_bytes";
    case Ctr::kMrBytes: return "mr_bytes";
    case Ctr::kRnrEvents: return "rnr_events";
    case Ctr::kRetransmits: return "retransmits";
    case Ctr::kDuplicates: return "duplicates";
    case Ctr::kWqeErrors: return "wqe_errors";
    case Ctr::kFailedCalls: return "failed_calls";
    case Ctr::kTimeouts: return "timeouts";
    case Ctr::kBackoffSleeps: return "backoff_sleeps";
    case Ctr::kReconnects: return "reconnects";
    case Ctr::kFallbacks: return "fallbacks";
    case Ctr::kReplays: return "replays";
    case Ctr::kRequests: return "requests";
    case Ctr::kDoorbellCoalescedWqes: return "doorbell_coalesced_wqes";
    case Ctr::kSrqPosts: return "srq_posts";
    case Ctr::kCqBatchPolls: return "cq_batch_polls";
    case Ctr::kWindowStalls: return "window_stalls";
    case Ctr::kInlineWqes: return "inline_wqes";
    case Ctr::kMrCacheHits: return "mr_cache_hits";
    case Ctr::kMrCacheMisses: return "mr_cache_misses";
    case Ctr::kMrCacheEvictions: return "mr_cache_evictions";
    case Ctr::kPoolBufferReuses: return "pool_buffer_reuses";
    case Ctr::kContractViolations: return "contract_violations";
    case Ctr::kRetryAttempts: return "retry_attempts";
    case Ctr::kDeadlineExceeded: return "deadline_exceeded";
    case Ctr::kFailovers: return "failovers";
    case Ctr::kShardMapRefreshes: return "shard_map_refreshes";
    case Ctr::kChainForwards: return "chain_forwards";
    case Ctr::kOneSidedReads: return "one_sided_reads";
    case Ctr::kOneSidedFallbacks: return "one_sided_fallbacks";
    case Ctr::kResyncOps: return "resync_ops";
    case Ctr::kTimerCancels: return "timer_cancels";
    case Ctr::kShardAccepts: return "shard_accepts";
    case Ctr::kShardPolls: return "shard_polls";
    case Ctr::kPlanSwitches: return "plan_switches";
    case Ctr::kEpochSwaps: return "epoch_swaps";
    case Ctr::kRecvLeases: return "recv_leases";
    case Ctr::kRaceReports: return "race_reports";
    case Ctr::kCount: break;
  }
  return "unknown";
}

/// One scope's worth of counters (a node or a channel).
struct CounterSet {
  std::array<uint64_t, static_cast<size_t>(Ctr::kCount)> v{};

  void add(Ctr c, uint64_t n = 1) { v[static_cast<size_t>(c)] += n; }
  uint64_t get(Ctr c) const { return v[static_cast<size_t>(c)]; }
  /// Stable slot reference for external mirrors (RaceCheck::bind_mirror).
  uint64_t& slot(Ctr c) { return v[static_cast<size_t>(c)]; }
  uint64_t operator[](Ctr c) const { return get(c); }

  CounterSet delta_since(const CounterSet& base) const {
    CounterSet d;
    for (size_t i = 0; i < v.size(); ++i) d.v[i] = v[i] - base.v[i];
    return d;
  }
};

/// Registry of counter scopes. Node scopes are keyed by node id; channel
/// and shard scopes are handed out in construction order via
/// register_channel()/register_shard(), so ids are deterministic for a
/// deterministic program. Scopes live in deques so handed-out references
/// stay stable as new scopes appear.
class Counters {
 public:
  CounterSet& node(uint32_t id) { return scope(nodes_, id); }
  const CounterSet& node(uint32_t id) const {
    return const_cast<Counters*>(this)->node(id);
  }
  CounterSet& channel(uint32_t id) { return scope(channels_, id); }
  const CounterSet& channel(uint32_t id) const {
    return const_cast<Counters*>(this)->channel(id);
  }
  CounterSet& shard(uint32_t id) { return scope(shards_, id); }
  const CounterSet& shard(uint32_t id) const {
    return const_cast<Counters*>(this)->shard(id);
  }

  uint32_t register_channel() {
    channels_.emplace_back();
    return static_cast<uint32_t>(channels_.size() - 1);
  }

  uint32_t register_shard() {
    shards_.emplace_back();
    return static_cast<uint32_t>(shards_.size() - 1);
  }

  size_t node_count() const { return nodes_.size(); }
  size_t channel_count() const { return channels_.size(); }
  size_t shard_count() const { return shards_.size(); }

  /// Sum of one counter over all shard scopes (steering/balance oracles).
  uint64_t shard_total(Ctr c) const {
    uint64_t t = 0;
    for (const auto& s : shards_) t += s.get(c);
    return t;
  }

  /// Sum of one counter over all node scopes (channel scopes mirror a
  /// subset of the node charges, so summing both would double-count).
  uint64_t node_total(Ctr c) const {
    uint64_t t = 0;
    for (const auto& s : nodes_) t += s.get(c);
    return t;
  }

  /// Deterministic text dump: scopes in id order, counters in enum order,
  /// zero-valued counters suppressed. Same seed => byte-identical output.
  std::string dump() const {
    std::string out;
    auto emit = [&out](const char* prefix, uint32_t id,
                       const CounterSet& s) {
      out += prefix;
      out += '/';
      out += std::to_string(id);
      out += ':';
      for (size_t i = 0; i < s.v.size(); ++i) {
        if (s.v[i] == 0) continue;
        out += ' ';
        out += to_string(static_cast<Ctr>(i));
        out += '=';
        out += std::to_string(s.v[i]);
      }
      out += '\n';
    };
    for (uint32_t i = 0; i < nodes_.size(); ++i) emit("node", i, nodes_[i]);
    for (uint32_t i = 0; i < channels_.size(); ++i)
      emit("channel", i, channels_[i]);
    // Shard lines come last so programs without shards dump byte-identical
    // output to the pre-sharding registry.
    for (uint32_t i = 0; i < shards_.size(); ++i) emit("shard", i, shards_[i]);
    return out;
  }

 private:
  static CounterSet& scope(std::deque<CounterSet>& v, uint32_t id) {
    while (v.size() <= id) v.emplace_back();
    return v[id];
  }

  std::deque<CounterSet> nodes_;
  std::deque<CounterSet> channels_;
  std::deque<CounterSet> shards_;
};

}  // namespace hatrpc::obs
