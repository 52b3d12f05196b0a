// Arena allocation for the simulator's per-op churn objects.
//
// A million-op run allocates and frees the same small objects over and over:
// coroutine frames (one per spawned task and awaited sub-task), scheduler
// timer nodes, shared-state blocks for pending calls, and the byte buffers
// the simulated NIC snapshots payloads into. Hitting the general-purpose
// allocator for each one dominates the hot path once the event queue itself
// is O(1), so everything recyclable goes through the pools here instead:
//
//   * FrameArena — size-bucketed freelists for coroutine frames and other
//     transient blocks. First use of a size class hits ::operator new; every
//     later alloc of that class pops a recycled block (a "reuse"). Nothing
//     is returned to the OS until process exit, which is exactly the
//     behaviour a steady-state simulation wants.
//   * PoolAllocator / pooled_shared — std::allocate_shared plumbing over the
//     FrameArena so shared control blocks (CallState, reply loans, event
//     cores) stop costing one malloc per RPC.
//   * BufArena — recycled std::vector<std::byte> payload buffers for the
//     fabric's inline-WQE and READ-response snapshots; capacity is retained
//     across leases so steady state performs no byte-buffer mallocs at all.
//
// Under AddressSanitizer the pools pass straight through to the global
// allocator (poisoning/quarantine must keep seeing every free); the stats
// still count, but reuse oracles should check FrameArena::pooling_enabled().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HATRPC_SIM_ARENA_PASSTHROUGH 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define HATRPC_SIM_ARENA_PASSTHROUGH 1
#endif
#ifndef HATRPC_SIM_ARENA_PASSTHROUGH
#define HATRPC_SIM_ARENA_PASSTHROUGH 0
#endif

namespace hatrpc::sim {

/// Size-bucketed freelist recycler. Buckets are 64-byte granular up to 4 KiB;
/// larger blocks (rare: deep coroutine frames) fall through to the heap.
class FrameArena {
 public:
  struct Stats {
    uint64_t allocs = 0;        // total requests served
    uint64_t reuses = 0;        // served from a freelist
    uint64_t fresh_blocks = 0;  // served by ::operator new
    uint64_t oversize = 0;      // larger than the biggest bucket
  };

  static constexpr size_t kGranularity = 64;
  static constexpr size_t kBuckets = 64;  // up to 64 * 64 = 4096 bytes
  static constexpr size_t kMaxPooled = kGranularity * kBuckets;

  static constexpr bool pooling_enabled() {
    return !HATRPC_SIM_ARENA_PASSTHROUGH;
  }

  /// The process-wide arena used by coroutine promises and pooled_shared.
  /// (The simulator is single-threaded per Simulator; thread_local keeps
  /// independent simulators on different threads from sharing freelists.)
  static FrameArena& instance() {
    static thread_local FrameArena a;
    return a;
  }

  void* alloc(size_t n) {
    ++stats_.allocs;
    if (!pooling_enabled() || n > kMaxPooled) {
      if (n > kMaxPooled) ++stats_.oversize;
      ++stats_.fresh_blocks;
      return ::operator new(n);
    }
    size_t b = bucket(n);
    if (FreeBlock* f = free_[b]) {
      free_[b] = f->next;
      ++stats_.reuses;
      return f;
    }
    ++stats_.fresh_blocks;
    return ::operator new((b + 1) * kGranularity);
  }

  void free(void* p, size_t n) {
    if (!p) return;
    if (!pooling_enabled() || n > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    auto* f = static_cast<FreeBlock*>(p);
    size_t b = bucket(n);
    f->next = free_[b];
    free_[b] = f;
  }

  const Stats& stats() const { return stats_; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  static constexpr size_t bucket(size_t n) {
    return (n + kGranularity - 1) / kGranularity - 1;
  }

  FreeBlock* free_[kBuckets] = {};
  Stats stats_;
};

inline void* frame_arena_alloc(size_t n) {
  return FrameArena::instance().alloc(n);
}
inline void frame_arena_free(void* p, size_t n) {
  FrameArena::instance().free(p, n);
}

/// Minimal std::allocator replacement drawing from the FrameArena, for
/// std::allocate_shared (object + control block in one recycled block).
template <class T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(frame_arena_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { frame_arena_free(p, n * sizeof(T)); }

  template <class U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

/// Drop-in for std::make_shared that recycles the combined allocation.
template <class T, class... Args>
std::shared_ptr<T> pooled_shared(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

/// Recycler of byte vectors for payload snapshots. Leases keep their
/// capacity when they come back, so a steady-state workload stops growing.
class BufArena {
 public:
  struct Stats {
    uint64_t leases = 0;
    uint64_t reuses = 0;  // lease served by a recycled vector
  };

  /// Movable RAII lease of a std::vector<std::byte> sized to `n`.
  class Lease {
   public:
    Lease() = default;
    Lease(BufArena* a, std::vector<std::byte> v)
        : arena_(a), v_(std::move(v)) {}
    Lease(Lease&& o) noexcept
        : arena_(std::exchange(o.arena_, nullptr)), v_(std::move(o.v_)) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        reset();
        arena_ = std::exchange(o.arena_, nullptr);
        v_ = std::move(o.v_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { reset(); }

    std::byte* data() { return v_.data(); }
    const std::byte* data() const { return v_.data(); }
    size_t size() const { return v_.size(); }

   private:
    void reset() {
      if (arena_) arena_->recycle(std::move(v_));
      arena_ = nullptr;
    }
    BufArena* arena_ = nullptr;
    std::vector<std::byte> v_;
  };

  Lease lease(size_t n) {
    ++stats_.leases;
    if (!free_.empty()) {
      std::vector<std::byte> v = std::move(free_.back());
      free_.pop_back();
      ++stats_.reuses;
      v.resize(n);
      return Lease(this, std::move(v));
    }
    return Lease(this, std::vector<std::byte>(n));
  }

  /// Shared lease whose lifetime can ride a WQE's keep_alive slot. The
  /// control block comes from the FrameArena; the bytes recycle on release.
  std::shared_ptr<Lease> shared_lease(size_t n) {
    return pooled_shared<Lease>(lease(n));
  }

  const Stats& stats() const { return stats_; }
  size_t pooled() const { return free_.size(); }

 private:
  friend class Lease;
  void recycle(std::vector<std::byte> v) { free_.push_back(std::move(v)); }

  std::vector<std::vector<std::byte>> free_;
  Stats stats_;
};

}  // namespace hatrpc::sim
