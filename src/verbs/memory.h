// Registered memory: protection domains and memory regions.
//
// Memory regions are REAL host buffers — RDMA operations in the simulator
// memcpy between them, so everything above the verbs layer moves real bytes.
// Remote access is validated against (rkey, range) exactly like an RNIC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/counters.h"

namespace hatrpc::verbs {

/// (address, rkey) pair naming remote registered memory, as exchanged
/// out-of-band during connection setup.
struct RemoteAddr {
  uint64_t addr = 0;
  uint32_t rkey = 0;
};

/// ibv_access_flags analogue. Registrations default to kAccessAll (the
/// common LOCAL_WRITE|REMOTE_READ|REMOTE_WRITE registration every channel
/// uses); restricted registrations NAK remote ops that exceed their grant
/// exactly like an RNIC, and VerbsCheck flags the requester at post time.
enum AccessFlags : uint32_t {
  kAccessNone = 0,
  kAccessLocalWrite = 1u << 0,   // required to land recvs / READ responses
  kAccessRemoteWrite = 1u << 1,  // required of a WRITE target
  kAccessRemoteRead = 1u << 2,   // required of a READ source
  kAccessAll = kAccessLocalWrite | kAccessRemoteWrite | kAccessRemoteRead,
};

/// A registered buffer. `addr()` is its simulated virtual address (the real
/// host pointer value), so RemoteAddr arithmetic behaves like the real thing.
/// Storage is deliberately UNINITIALIZED (like freshly mmap'd registration
/// in real verbs) so huge rarely-touched regions cost nothing; protocols
/// that poll control words before the first write zero them explicitly.
class MemoryRegion {
 public:
  MemoryRegion(size_t size, uint32_t lkey, uint32_t rkey,
               uint32_t access = kAccessAll)
      : data_(std::make_unique_for_overwrite<std::byte[]>(size)),
        ext_(nullptr), size_(size), lkey_(lkey), rkey_(rkey),
        access_(access) {}

  /// Registers EXISTING application memory (ibv_reg_mr over a user buffer):
  /// the region covers the caller's bytes in place and does not own them.
  /// This is the entry point MrCache uses for on-demand registration.
  MemoryRegion(std::byte* external, size_t size, uint32_t lkey, uint32_t rkey,
               uint32_t access = kAccessAll)
      : ext_(external), size_(size), lkey_(lkey), rkey_(rkey),
        access_(access) {}

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  std::byte* data() { return ext_ ? ext_ : data_.get(); }
  const std::byte* data() const { return ext_ ? ext_ : data_.get(); }
  size_t size() const { return size_; }
  uint64_t addr() const { return reinterpret_cast<uint64_t>(data()); }
  uint32_t lkey() const { return lkey_; }
  uint32_t rkey() const { return rkey_; }
  uint32_t access() const { return access_; }
  bool has_access(uint32_t required) const {
    return (access_ & required) == required;
  }
  bool external() const { return ext_ != nullptr; }

  RemoteAddr remote(uint64_t offset = 0) const {
    return RemoteAddr{addr() + offset, rkey_};
  }

  std::span<std::byte> span(uint64_t offset, size_t len) {
    if (offset + len > size()) throw std::out_of_range("MR span");
    return {data() + offset, len};
  }

  /// Withdraws remote access (fault injection: a server losing its exported
  /// regions). Local use keeps working; remote ops NAK with kRemAccessErr.
  void revoke() { revoked_ = true; }
  bool revoked() const { return revoked_; }

  bool contains(uint64_t a, size_t len) const {
    return a >= addr() && a + len <= addr() + size();
  }

  /// Hook invoked by the fabric after a remote one-sided WRITE lands in this
  /// region. Lets server code model CPU memory polling (RFP/HERD style):
  /// the callback typically notifies a WaitQueue the spinning task sits on.
  void set_write_watch(std::function<void(uint64_t offset, size_t len)> cb) {
    on_remote_write_ = std::move(cb);
  }
  void notify_remote_write(uint64_t a, size_t len) {
    if (on_remote_write_) on_remote_write_(a - addr(), len);
  }

 private:
  std::function<void(uint64_t, size_t)> on_remote_write_;
  std::unique_ptr<std::byte[]> data_;
  std::byte* ext_ = nullptr;  // external (non-owned) registration base
  size_t size_;
  uint32_t lkey_;
  uint32_t rkey_;
  uint32_t access_ = kAccessAll;
  bool revoked_ = false;
};

class MrCache;
class VerbsCheck;

/// Per-node protection domain: allocates/registers MRs and resolves rkeys,
/// enforcing the same access checks an RNIC would.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(uint32_t node_id) : node_id_(node_id) {}

  /// Wires registration accounting into the node's counter scope.
  void set_counters(obs::CounterSet* ctrs) { ctrs_ = ctrs; }

  /// Wires this PD into the fabric's contract checker (deregistrations are
  /// recorded so stale use can be reported as use-after-dereg).
  void set_check(VerbsCheck* check) { check_ = check; }

  /// Allocates and registers a fresh region.
  MemoryRegion* alloc_mr(size_t size, uint32_t access = kAccessAll) {
    uint32_t key = next_key_++;
    auto mr = std::make_unique<MemoryRegion>(size, key, key, access);
    MemoryRegion* raw = mr.get();
    by_rkey_[raw->rkey()] = raw;
    mrs_.push_back(std::move(mr));
    if (ctrs_) ctrs_->add(obs::Ctr::kMrBytes, size);
    return raw;
  }

  /// Registers EXISTING application memory in place (ibv_reg_mr over a user
  /// buffer). The caller keeps ownership of the bytes and must dereg before
  /// freeing them.
  MemoryRegion* reg_mr(std::byte* addr, size_t size,
                       uint32_t access = kAccessAll) {
    uint32_t key = next_key_++;
    auto mr = std::make_unique<MemoryRegion>(addr, size, key, key, access);
    MemoryRegion* raw = mr.get();
    by_rkey_[raw->rkey()] = raw;
    mrs_.push_back(std::move(mr));
    if (ctrs_) ctrs_->add(obs::Ctr::kMrBytes, size);
    return raw;
  }

  // Also invalidates the MrCache entry and records the dead registration
  // with the contract checker. Defined in fabric.cc.
  void dereg_mr(MemoryRegion* mr);

  /// rkey + bounds + access check; returns the owning MR or throws (remote
  /// access violation == what the NIC would report as a protection error).
  MemoryRegion* check(RemoteAddr ra, size_t len,
                      uint32_t required = kAccessNone) {
    auto it = by_rkey_.find(ra.rkey);
    if (it == by_rkey_.end()) throw std::runtime_error("bad rkey");
    MemoryRegion* mr = it->second;
    if (mr->revoked()) throw std::runtime_error("remote access revoked");
    if (!mr->contains(ra.addr, len))
      throw std::runtime_error("remote access out of MR bounds");
    if (!mr->has_access(required))
      throw std::runtime_error("remote access flags violation");
    return mr;
  }

  /// Looks up a registration by rkey without side effects (VerbsCheck's
  /// post-time remote validation). Returns nullptr when unknown.
  MemoryRegion* find_rkey(uint32_t rkey) {
    auto it = by_rkey_.find(rkey);
    return it == by_rkey_.end() ? nullptr : it->second;
  }

  /// Finds the live registration fully covering [addr, addr+len), if any
  /// (VerbsCheck's local-SGE validation; linear like a real MR table walk).
  MemoryRegion* find_containing(const std::byte* addr, size_t len) {
    const uint64_t a = reinterpret_cast<uint64_t>(addr);
    for (auto& m : mrs_)
      if (m->contains(a, len)) return m.get();
    return nullptr;
  }

  /// Revokes remote access to every region currently registered (fault
  /// injection; regions registered afterwards are unaffected).
  void revoke_all() {
    for (auto& m : mrs_) m->revoke();
  }

  std::span<std::byte> resolve(RemoteAddr ra, size_t len,
                               uint32_t required = kAccessNone) {
    check(ra, len, required);
    return {reinterpret_cast<std::byte*>(ra.addr), len};
  }

  uint32_t node_id() const { return node_id_; }
  size_t registered_bytes() const {
    size_t total = 0;
    for (auto& m : mrs_) total += m->size();
    return total;
  }
  size_t mr_count() const { return mrs_.size(); }
  size_t external_mr_count() const {
    size_t n = 0;
    for (auto& m : mrs_) n += m->external() ? 1 : 0;
    return n;
  }

  /// This PD's registration cache (created lazily on first use).
  MrCache& mr_cache();

  obs::CounterSet* counters() { return ctrs_; }

 private:
  void dereg_mr_raw(MemoryRegion* mr) {
    by_rkey_.erase(mr->rkey());
    std::erase_if(mrs_, [&](auto& p) { return p.get() == mr; });
  }

  uint32_t node_id_;
  obs::CounterSet* ctrs_ = nullptr;
  VerbsCheck* check_ = nullptr;
  uint32_t next_key_ = 1;
  std::vector<std::unique_ptr<MemoryRegion>> mrs_;
  std::unordered_map<uint32_t, MemoryRegion*> by_rkey_;
  std::unique_ptr<MrCache> cache_;
};

/// MR registration cache (the Storm / registration-cache idiom): zero-copy
/// send paths call get() with an arbitrary application buffer; the cache
/// returns a covering registration, registering on demand and evicting the
/// least-recently-used entry past capacity. Entries are invalidated when
/// the buffer is deregistered through the PD and when the rkey-revoke fault
/// fires (a revoked entry is a miss, never stale success — remote peers
/// still holding the old rkey get kRemAccessErr from the PD check).
///
/// Linear scan over an LRU list: capacities are small (a few dozen hot
/// buffers) exactly like real registration caches.
class MrCache {
 public:
  explicit MrCache(ProtectionDomain& pd, size_t capacity = kDefaultCapacity)
      : pd_(pd), cap_(capacity == 0 ? 1 : capacity) {}

  static constexpr size_t kDefaultCapacity = 32;

  /// Returns a registration covering [addr, addr+len). `chan` (may be null)
  /// mirrors the hit/miss/evict counters into a channel scope on top of the
  /// node scope.
  MemoryRegion* get(const std::byte* addr, size_t len,
                    obs::CounterSet* chan = nullptr) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (!covers(*it, addr, len)) continue;
      if (it->mr->revoked()) {
        // The rkey-revoke fault hit this registration: drop the stale
        // entry and fall through to a fresh miss-path registration.
        MemoryRegion* dead = it->mr;
        lru_.erase(it);
        pd_.dereg_mr(dead);
        break;
      }
      count(obs::Ctr::kMrCacheHits, chan);
      lru_.splice(lru_.begin(), lru_, it);  // move to MRU position
      return lru_.front().mr;
    }
    count(obs::Ctr::kMrCacheMisses, chan);
    MemoryRegion* mr = pd_.reg_mr(const_cast<std::byte*>(addr), len);
    lru_.push_front(Entry{addr, len, mr});
    while (lru_.size() > cap_) {
      MemoryRegion* victim = lru_.back().mr;
      lru_.pop_back();
      count(obs::Ctr::kMrCacheEvictions, chan);
      pd_.dereg_mr(victim);
    }
    return mr;
  }

  /// Drops the entry backed by `mr` if present (called by PD::dereg_mr so a
  /// deregistered buffer can never be served from the cache).
  void invalidate(MemoryRegion* mr) {
    lru_.remove_if([mr](const Entry& e) { return e.mr == mr; });
  }

  size_t size() const { return lru_.size(); }
  size_t capacity() const { return cap_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    const std::byte* base = nullptr;
    size_t len = 0;
    MemoryRegion* mr = nullptr;
  };

  static bool covers(const Entry& e, const std::byte* addr, size_t len) {
    return addr >= e.base && addr + len <= e.base + e.len;
  }

  void count(obs::Ctr c, obs::CounterSet* chan) {
    if (c == obs::Ctr::kMrCacheHits) ++hits_;
    if (c == obs::Ctr::kMrCacheMisses) ++misses_;
    if (c == obs::Ctr::kMrCacheEvictions) ++evictions_;
    if (obs::CounterSet* n = pd_.counters()) n->add(c);
    if (chan) chan->add(c);
  }

  ProtectionDomain& pd_;
  size_t cap_;
  std::list<Entry> lru_;  // front = most recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

inline MrCache& ProtectionDomain::mr_cache() {
  if (!cache_) cache_ = std::make_unique<MrCache>(*this);
  return *cache_;
}

}  // namespace hatrpc::verbs
