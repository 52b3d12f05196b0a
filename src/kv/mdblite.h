// mdblite — an LMDB-style embedded B+-tree key-value store, built from
// scratch as the storage backend HatKV co-designs with (paper §4.4 uses
// LMDB; see DESIGN.md for the substitution notes).
//
// Reproduced LMDB semantics:
//   * copy-on-write B+-tree: writers never modify committed pages; a write
//     transaction shadows the root-to-leaf path it touches;
//   * dual meta pages: commit atomically publishes the new root by flipping
//     the newer meta, so crashes (or aborts) never corrupt readers;
//   * MVCC: read transactions pin the meta they started from and see a
//     stable snapshot while one writer proceeds concurrently;
//   * single writer / bounded readers: a reader-table of `max_readers`
//     slots (the knob HatKV tunes from the concurrency hint, §4.4);
//   * freelist with transaction-id tagging: shadowed pages are recycled
//     only once no live reader can still reference them;
//   * page-byte budgeting with page splits, borrow/merge rebalancing, and
//     overflow pages for values larger than a quarter page;
//   * packed page images: a key-ordered slot array over contiguous cells,
//     so a copy-on-write shadow is a bulk copy (DESIGN.md §17);
//   * cursors for ordered iteration.
//
// mdblite is pure (no simulator dependency): callers observe its cost via
// Stats (pages read/written per op) and charge simulated time themselves.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hatrpc::kv {

using PageId = uint64_t;
constexpr PageId kNoPage = ~PageId{0};

struct EnvOptions {
  size_t page_size = 4096;     // 256..65536 (Env throws otherwise)
  uint32_t max_readers = 126;  // LMDB's default reader-table size
};

struct EnvStats {
  uint64_t page_reads = 0;     // pages fetched on search paths
  uint64_t page_writes = 0;    // pages shadowed/written by commits
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t reclaimed = 0;      // freelist pages recycled
};

struct CommitInfo {
  uint64_t txn_id = 0;
  uint64_t pages_written = 0;  // dirty pages made durable by this commit
};

class Env;

/// A transaction. Move-only; aborts on destruction unless committed.
/// Read transactions may run concurrently (up to max_readers); at most one
/// write transaction exists at a time (Env::begin throws otherwise).
class Txn {
 public:
  Txn(Txn&&) noexcept;
  Txn& operator=(Txn&&) noexcept;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  ~Txn();

  bool is_write() const { return write_; }
  uint64_t id() const { return txn_id_; }

  // Default (unnamed) database... put throws std::length_error for a key
  // longer than page_size / 4 (LMDB's MDB_BAD_VALSIZE).
  std::optional<std::string> get(std::string_view key);
  void put(std::string_view key, std::string_view value);
  bool del(std::string_view key);
  size_t entry_count() const;

  // ...and named databases (LMDB's mdb_dbi_open): each name is its own
  // B+-tree; all trees commit atomically through the same meta flip. A
  // named tree springs into existence on first put.
  std::optional<std::string> get(std::string_view db, std::string_view key);
  void put(std::string_view db, std::string_view key,
           std::string_view value);
  bool del(std::string_view db, std::string_view key);
  size_t entry_count(std::string_view db) const;

  /// Pages this transaction has touched so far (for cost charging).
  uint64_t pages_touched() const { return pages_touched_; }

  CommitInfo commit();
  void abort();

 private:
  friend class Env;
  friend class Cursor;
  struct Meta;
  Txn(Env& env, bool write, int reader_slot);

  struct DbState {
    PageId root = kNoPage;
    uint64_t entries = 0;
  };
  DbState& state(std::string_view db);
  const DbState* state_if_exists(std::string_view db) const;

  struct Page* readable(PageId id);
  struct Page* shadow(PageId id);  // COW for the write path: one bulk copy
  void finish();

  std::optional<std::string> get_in(DbState& st, std::string_view key);
  void put_in(DbState& st, std::string_view key, std::string_view value);
  bool del_in(DbState& st, std::string_view key);

  Env* env_ = nullptr;
  bool write_ = false;
  bool done_ = false;
  int reader_slot_ = -1;
  uint64_t txn_id_ = 0;
  std::map<std::string, DbState> dbs_;  // "" = the default database
  uint64_t pages_touched_ = 0;
  uint64_t chain_pages_ = 0;   // overflow chain pages, counted on commit
  std::vector<PageId> dirty_;  // pages allocated by this txn
  std::vector<PageId> freed_;  // pages shadowed (released on commit)
};

/// Ordered forward iteration over a snapshot (default or named database).
class Cursor {
 public:
  explicit Cursor(Txn& txn) : Cursor(txn, "") {}
  Cursor(Txn& txn, std::string_view db);

  bool first();
  bool seek(std::string_view key);  // >= key
  bool next();
  bool valid() const { return valid_; }
  // Views into the snapshot's pages: valid until the txn ends or writes.
  std::string_view key() const;
  std::string_view value() const;

 private:
  void descend_left(PageId id);
  Txn& txn_;
  PageId root_;
  struct Frame {
    PageId page;
    size_t index;
  };
  std::vector<Frame> stack_;
  bool valid_ = false;
};

class Env {
 public:
  explicit Env(EnvOptions opts);
  Env() : Env(EnvOptions{}) {}
  ~Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Begins a transaction. Throws std::runtime_error if a write txn is
  /// already active (write) or the reader table is full (read) — callers
  /// (HatKV) queue externally, which is how the concurrency hint shows up.
  Txn begin(bool write);

  uint32_t max_readers() const { return opts_.max_readers; }
  uint32_t active_readers() const { return active_readers_; }
  const EnvStats& stats() const { return stats_; }
  size_t page_count() const { return pages_.size(); }
  size_t live_pages() const;
  uint64_t last_txn_id() const;

 private:
  friend class Txn;
  friend class Cursor;
  struct MetaPage {
    std::map<std::string, Txn::DbState> dbs;
    uint64_t txn_id = 0;
  };

  Page* page(PageId id);
  Page* alloc_page(bool leaf, uint64_t txn_id);
  void free_page(PageId id, uint64_t txn_id);
  void reclaim();
  uint64_t oldest_reader_txn() const;

  EnvOptions opts_;
  std::vector<std::unique_ptr<Page>> pages_;
  MetaPage metas_[2];
  int newest_meta_ = 0;
  bool writer_active_ = false;
  uint32_t active_readers_ = 0;
  std::vector<uint64_t> reader_txns_;  // reader table (slot -> txn id)
  struct FreedPage {
    PageId id;
    uint64_t txn_id;
  };
  std::vector<FreedPage> freelist_;
  std::vector<PageId> reusable_;
  EnvStats stats_;
};

}  // namespace hatrpc::kv
