// Pooled, pre-registered serialization buffers.
//
// A BufferPool owns one slab of host memory, registers it up front through
// the owning node's MrCache (so every send posted from a lease is a cache
// hit, never a per-call registration), and hands out fixed-size blocks as
// RAII leases. Serialization writes land directly in registered memory
// (TMemoryBuffer::backed over a lease). TServerRdma gives each shard one.
//
// Re-acquiring a block that served an earlier call is the pool working as
// intended (warm, registered memory) and is counted as a pool_buffer_reuse.
// When the pool is exhausted the lease falls back to a plain heap block;
// sends from it still work (the MrCache registers it on demand) but lose
// the pre-registration benefit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/counters.h"
#include "sim/rc_annotate.h"
#include "verbs/verbs.h"

namespace hatrpc::proto {

class BufferPool {
 public:
  /// `chan` (may be null) mirrors pool counters into a channel scope.
  BufferPool(verbs::Node& node, uint32_t block_bytes, uint32_t blocks,
             obs::CounterSet* chan = nullptr)
      : node_(node), chan_(chan), block_(block_bytes),
        blocks_(blocks == 0 ? 1 : blocks),
        storage_(std::make_unique_for_overwrite<std::byte[]>(
            static_cast<size_t>(block_bytes) * (blocks == 0 ? 1 : blocks))),
        used_(blocks_, false), leased_(blocks_, false),
        rc_sim_(&node.fabric().simulator()) {
    slab_mr_ = node.pd().mr_cache().get(
        storage_.get(), static_cast<size_t>(block_) * blocks_, chan_);
    free_.reserve(blocks_);
    for (uint32_t i = blocks_; i-- > 0;) free_.push_back(i);
  }

  // Racecheck histories are keyed on the pool's address; the moved-from
  // shell's destructor forgets them, so a recycled address starts clean.
  // (Runtime never actually moves a live pool — containers emplace in
  // place — but vector/optional require move-constructibility.)
  BufferPool(BufferPool&&) = default;
  ~BufferPool() {
    for (uint32_t i = 0; i < blocks_; ++i) rc_sim_->rc_forget(this, i);
  }

  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept { *this = std::move(o); }
    Lease& operator=(Lease&& o) noexcept {
      release();
      pool_ = o.pool_;
      idx_ = o.idx_;
      data_ = o.data_;
      cap_ = o.cap_;
      heap_ = std::move(o.heap_);
      o.pool_ = nullptr;
      o.data_ = nullptr;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    std::byte* data() { return data_; }
    const std::byte* data() const { return data_; }
    uint32_t capacity() const { return cap_; }
    /// False for the heap-fallback lease handed out past pool capacity.
    bool pooled() const { return pool_ != nullptr; }
    explicit operator bool() const { return data_ != nullptr; }

    void release() {
      if (pool_) pool_->release_block(idx_);
      pool_ = nullptr;
      data_ = nullptr;
      heap_.reset();
    }

    /// Marks a mutation of the leased block for the race checker (the
    /// serialization paths that fill leases call this; tests use it to
    /// inject deliberate conflicts). No-op for heap-fallback leases.
    void annotate_write(const char* site) {
      if (pool_)
        pool_->rc_sim_->rc_write(pool_, idx_, "BufferPool.slot", site);
    }

   private:
    friend class BufferPool;
    BufferPool* pool_ = nullptr;
    uint32_t idx_ = 0;
    std::byte* data_ = nullptr;
    uint32_t cap_ = 0;
    std::unique_ptr<std::byte[]> heap_;  // exhaustion fallback storage
  };

  Lease acquire() {
    Lease l;
    l.cap_ = block_;
    if (free_.empty()) {
      ++exhausted_;
      l.heap_ = std::make_unique_for_overwrite<std::byte[]>(block_);
      l.data_ = l.heap_.get();
      return l;
    }
    uint32_t idx = free_.back();
    free_.pop_back();
    if (used_[idx]) {
      ++reuses_;
      node_.counters().add(obs::Ctr::kPoolBufferReuses);
      if (chan_) chan_->add(obs::Ctr::kPoolBufferReuses);
    }
    used_[idx] = true;
    leased_[idx] = true;
    // Lease handoff: the previous holder's release orders before this
    // acquire; the slot then begins a fresh lifetime owned by the caller.
    rc_sim_->rc_sync_acquire(this, idx);
    rc_sim_->rc_revive(this, idx);
    rc_sim_->rc_write(this, idx, "BufferPool.slot", RC_HERE);
    l.pool_ = this;
    l.idx_ = idx;
    l.data_ = storage_.get() + static_cast<size_t>(idx) * block_;
    return l;
  }

  uint32_t block_bytes() const { return block_; }
  uint32_t blocks() const { return blocks_; }
  uint32_t in_use() const { return blocks_ - static_cast<uint32_t>(free_.size()); }
  uint64_t reuses() const { return reuses_; }
  uint64_t exhausted() const { return exhausted_; }
  verbs::MemoryRegion* slab_mr() { return slab_mr_; }

 private:
  void release_block(uint32_t idx) {
    if (!leased_[idx]) {
      // Double release: a no-op for the pool (the slot is already free —
      // pushing again would hand it to two owners), diagnosed as a
      // lifetime violation when the checker is on.
      rc_sim_->rc_lifetime(this, idx, "BufferPool.slot", RC_HERE,
                           "release of a slot that is not leased");
      return;
    }
    leased_[idx] = false;
    rc_sim_->rc_write(this, idx, "BufferPool.slot", RC_HERE);
    rc_sim_->rc_retire(this, idx, "BufferPool.slot", RC_HERE);
    rc_sim_->rc_sync_release(this, idx);
    free_.push_back(idx);
  }

  verbs::Node& node_;
  obs::CounterSet* chan_;
  uint32_t block_;
  uint32_t blocks_;
  std::unique_ptr<std::byte[]> storage_;
  verbs::MemoryRegion* slab_mr_ = nullptr;
  std::vector<uint32_t> free_;
  std::vector<bool> used_;
  std::vector<bool> leased_;  // guards against double release
  sim::Simulator* rc_sim_;
  uint64_t reuses_ = 0;
  uint64_t exhausted_ = 0;
};

}  // namespace hatrpc::proto
