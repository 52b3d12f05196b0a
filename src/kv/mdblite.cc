#include "kv/mdblite.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

namespace hatrpc::kv {

namespace {
constexpr size_t kPageHeader = 32;
constexpr size_t kCellHeader = 16;  // per-cell bytes Page::used() charges
constexpr size_t kMinPageSize = 256;
constexpr size_t kMaxPageSize = 65536;  // keeps page_size / 4 in a uint16_t
constexpr uint16_t kOverflowRef = 1;    // cell flag: value is an overflow id
constexpr const char* kWriterActive = "mdblite: writer already active";
constexpr const char* kReadersFull = "mdblite: reader table full";

/// The packed prefix of every cell; the key and value bytes follow it.
struct CellPrefix {
  uint16_t klen;
  uint16_t flags;
  uint32_t vlen;
};
static_assert(sizeof(CellPrefix) == 8);

/// dst = src, reusing dst's buffer unless it is over a quarter larger than
/// src needs; then it is released so the copy is allocated right-sized.
template <class T, class Range>
void assign_fitted(std::vector<T>& dst, const Range& src) {
  if (dst.capacity() > src.size() + src.size() / 4) std::vector<T>().swap(dst);
  dst.assign(src.begin(), src.end());
}

/// memcpy that accepts an empty view's null data pointer.
void copy_in(char* dst, std::string_view src) {
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
}

}  // namespace

/// In-memory page with an LMDB-style packed image:
///
///   slots     key-ordered offsets of the cells in `image`;
///   image     the cells, each [klen u16][flags u16][vlen u32] key value,
///             laid out in key order with no gaps (so a split or merge
///             moves one byte range and a shadow is one bulk copy);
///   children  branch only: the nkeys() + 1 child page ids.
///
/// A leaf cell's value is the value itself, or with kOverflowRef the 8-byte
/// id of an overflow page whose image is the whole value. Branch cells
/// carry no value. used() stays the logical byte count of the structured
/// layout this replaced (see DESIGN.md §17), so split/merge decisions and
/// every page count are independent of the packing.
struct Page {
  PageId id = 0;
  bool leaf = true;
  bool overflow = false;
  uint64_t born_txn = 0;
  std::vector<uint32_t> slots;
  std::vector<char> image;
  std::vector<PageId> children;

  struct Cell {
    std::string_view key;
    std::string_view value;
    bool ovf;
  };

  size_t nkeys() const { return slots.size(); }

  Cell cell(size_t i) const {
    assert(i < slots.size());
    const char* c = image.data() + slots[i];
    CellPrefix h{};
    std::memcpy(&h, c, sizeof h);
    assert(slots[i] + sizeof h + h.klen + h.vlen <= image.size());
    c += sizeof h;
    return {{c, h.klen}, {c + h.klen, h.vlen}, (h.flags & kOverflowRef) != 0};
  }
  std::string_view key(size_t i) const { return cell(i).key; }

  /// Σ(klen + kCellHeader), plus the value bytes (8 for an overflow ref)
  /// on a leaf or children × 8 on a branch.
  size_t used() const {
    assert(!overflow);
    return image.size() + slots.size() * (kCellHeader - sizeof(CellPrefix)) +
           children.size() * sizeof(PageId);
  }

  /// Readies a page for reuse. Its buffers are kept, except an overflow
  /// page's, which is sized to one value and never fits a tree page.
  void reset(PageId pid, bool is_leaf, uint64_t txn) {
    if (overflow) std::vector<char>().swap(image);
    id = pid;
    leaf = is_leaf;
    overflow = false;
    born_txn = txn;
    slots.clear();
    image.clear();
    children.clear();
  }

  /// The shadow copy: three bulk copies into the recycled page's buffers.
  void copy_image(const Page& src) {
    assign_fitted(slots, src.slots);
    assign_fitted(image, src.image);
    assign_fitted(children, src.children);
  }

  void insert(size_t i, std::string_view key, std::string_view value,
              uint16_t flags) {
    if (aliases(key) || aliases(value)) {
      const std::string k(key), v(value);
      return insert(i, k, v, flags);
    }
    assert(i <= slots.size());
    const size_t n = slots.size();
    const size_t at = i < n ? slots[i] : image.size();
    const size_t size = sizeof(CellPrefix) + key.size() + value.size();
    open_gap(at, size);
    write_cell(at, key, value, flags);
    slots.insert(slots.begin() + i, static_cast<uint32_t>(at));
    for (size_t j = i + 1; j <= n; ++j) slots[j] += static_cast<uint32_t>(size);
  }

  void erase(size_t i) {
    const Cell c = cell(i);
    const size_t at = slots[i];
    const size_t size = sizeof(CellPrefix) + c.key.size() + c.value.size();
    close_gap(at, size);
    slots.erase(slots.begin() + i);
    for (size_t j = i; j < slots.size(); ++j)
      slots[j] -= static_cast<uint32_t>(size);
  }

  /// Replaces cell i's value: in place when the size is unchanged,
  /// otherwise by moving the cells after it.
  void set_value(size_t i, std::string_view value, uint16_t flags) {
    if (aliases(value)) {
      const std::string v(value);
      return set_value(i, v, flags);
    }
    const Cell c = cell(i);
    const size_t klen = c.key.size(), old = c.value.size();
    const size_t at = slots[i];
    const size_t vat = at + sizeof(CellPrefix) + klen;
    if (value.size() > old) {
      open_gap(vat, value.size() - old);
    } else if (value.size() < old) {
      close_gap(vat, old - value.size());
    }
    write_prefix(at, klen, value.size(), flags);
    copy_in(image.data() + vat, value);
    const int64_t delta = int64_t(value.size()) - int64_t(old);
    for (size_t j = i + 1; j < slots.size(); ++j)
      slots[j] = static_cast<uint32_t>(int64_t(slots[j]) + delta);
  }

  /// Appends src's cells [from, nkeys()) as one byte range.
  void append(const Page& src, size_t from) {
    if (from >= src.nkeys()) return;
    const size_t start = src.slots[from];
    const size_t base = image.size();
    image.reserve(base + (src.image.size() - start));
    image.insert(image.end(), src.image.begin() + start, src.image.end());
    for (size_t j = from; j < src.nkeys(); ++j)
      slots.push_back(static_cast<uint32_t>(src.slots[j] - start + base));
  }

  /// Keeps the first n cells (and on a branch the first n + 1 children),
  /// releasing the capacity the rest held: a split leaves half a page.
  void truncate(size_t n) {
    assert(n <= slots.size());
    if (n < slots.size()) image.resize(slots[n]);
    slots.resize(n);
    if (!leaf) children.resize(n + 1);
    image.shrink_to_fit();
    slots.shrink_to_fit();
    children.shrink_to_fit();
  }

 private:
  bool aliases(std::string_view s) const {
    const char* b = image.data();
    return !s.empty() && std::less_equal<>{}(b, s.data()) &&
           std::less<>{}(s.data(), b + image.size());
  }

  void open_gap(size_t at, size_t size) {
    const size_t old = image.size();
    // reserve() grows to exactly what is asked, so images never double.
    image.reserve(old + size);
    image.resize(old + size);
    std::memmove(image.data() + at + size, image.data() + at, old - at);
  }

  void close_gap(size_t at, size_t size) {
    assert(at + size <= image.size());
    std::memmove(image.data() + at, image.data() + at + size,
                 image.size() - at - size);
    image.resize(image.size() - size);
  }

  void write_prefix(size_t at, size_t klen, size_t vlen, uint16_t flags) {
    assert(klen <= UINT16_MAX && vlen <= UINT32_MAX);
    const CellPrefix h{static_cast<uint16_t>(klen), flags,
                       static_cast<uint32_t>(vlen)};
    std::memcpy(image.data() + at, &h, sizeof h);
  }

  void write_cell(size_t at, std::string_view key, std::string_view value,
                  uint16_t flags) {
    write_prefix(at, key.size(), value.size(), flags);
    char* c = image.data() + at + sizeof(CellPrefix);
    copy_in(c, key);
    copy_in(c + key.size(), value);
  }
};

namespace {

PageId decode_ovf(std::string_view v) {
  assert(v.size() == sizeof(PageId));
  PageId id = kNoPage;
  std::memcpy(&id, v.data(), sizeof id);
  return id;
}

}  // namespace

// ===========================================================================
// Env
// ===========================================================================

Env::Env(EnvOptions opts) : opts_(opts) {
  if (opts_.page_size < kMinPageSize || opts_.page_size > kMaxPageSize)
    throw std::invalid_argument("mdblite: page_size must be 256..65536");
  reader_txns_.assign(opts_.max_readers, 0);
}

Env::~Env() = default;

Page* Env::page(PageId id) {
  assert(id < pages_.size());
  return pages_[id].get();
}

Page* Env::alloc_page(bool leaf, uint64_t txn_id) {
  PageId id;
  if (!reusable_.empty()) {
    id = reusable_.back();
    reusable_.pop_back();
    ++stats_.reclaimed;
  } else {
    id = pages_.size();
    pages_.push_back(std::make_unique<Page>());
  }
  Page* p = pages_[id].get();
  p->reset(id, leaf, txn_id);
  return p;
}

void Env::free_page(PageId id, uint64_t txn_id) {
  freelist_.push_back({id, txn_id});
}

uint64_t Env::oldest_reader_txn() const {
  uint64_t oldest = ~uint64_t{0};
  for (uint64_t t : reader_txns_)
    if (t != 0) oldest = std::min(oldest, t);
  return oldest;
}

void Env::reclaim() {
  // A page freed by commit T is still referenced by readers whose snapshot
  // predates T (reader slots store snapshot_txn + 1, so "needs it" means
  // slot value <= T). Recycle only when every live reader started at or
  // after T.
  uint64_t oldest = oldest_reader_txn();
  std::erase_if(freelist_, [&](const FreedPage& f) {
    if (oldest == ~uint64_t{0} || f.txn_id < oldest) {
      reusable_.push_back(f.id);
      return true;
    }
    return false;
  });
}

uint64_t Env::last_txn_id() const { return metas_[newest_meta_].txn_id; }

size_t Env::live_pages() const {
  return pages_.size() - reusable_.size() - freelist_.size();
}

Txn Env::begin(bool write) {
  if (write) {
    if (writer_active_) throw std::runtime_error(kWriterActive);
    writer_active_ = true;
    return Txn(*this, true, -1);
  }
  for (uint32_t i = 0; i < opts_.max_readers; ++i) {
    if (reader_txns_[i] == 0) {
      reader_txns_[i] = metas_[newest_meta_].txn_id + 1;  // 0 is "free"
      ++active_readers_;
      return Txn(*this, false, static_cast<int>(i));
    }
  }
  throw std::runtime_error(kReadersFull);
}

// ===========================================================================
// Txn
// ===========================================================================

Txn::Txn(Env& env, bool write, int reader_slot)
    : env_(&env), write_(write), reader_slot_(reader_slot) {
  const Env::MetaPage& meta = env.metas_[env.newest_meta_];
  dbs_ = meta.dbs;  // snapshot of every database's root
  txn_id_ = meta.txn_id + 1;  // readers remember "as of" id; writer gets next
}

Txn::DbState& Txn::state(std::string_view db) {
  return dbs_[std::string(db)];
}

const Txn::DbState* Txn::state_if_exists(std::string_view db) const {
  auto it = dbs_.find(std::string(db));
  return it == dbs_.end() ? nullptr : &it->second;
}

Txn::Txn(Txn&& o) noexcept { *this = std::move(o); }

Txn& Txn::operator=(Txn&& o) noexcept {
  if (this != &o) {
    if (env_ && !done_) abort();
    env_ = std::exchange(o.env_, nullptr);
    write_ = o.write_;
    done_ = o.done_;
    reader_slot_ = o.reader_slot_;
    txn_id_ = o.txn_id_;
    dbs_ = std::move(o.dbs_);
    pages_touched_ = o.pages_touched_;
    chain_pages_ = o.chain_pages_;
    dirty_ = std::move(o.dirty_);
    freed_ = std::move(o.freed_);
    o.done_ = true;
  }
  return *this;
}

Txn::~Txn() {
  if (env_ && !done_) abort();
}

void Txn::finish() {
  done_ = true;
  if (write_) {
    env_->writer_active_ = false;
  } else if (reader_slot_ >= 0) {
    env_->reader_txns_[reader_slot_] = 0;
    --env_->active_readers_;
    env_->reclaim();
  }
}

void Txn::abort() {
  if (done_) return;
  if (write_) {
    // Dirty pages were never published; recycle them immediately.
    for (PageId id : dirty_) env_->reusable_.push_back(id);
    ++env_->stats_.aborts;
  }
  finish();
}

CommitInfo Txn::commit() {
  if (done_) throw std::logic_error("mdblite: txn already finished");
  if (!write_) {
    finish();
    return CommitInfo{txn_id_, 0};
  }
  Env::MetaPage& meta = env_->metas_[1 - env_->newest_meta_];
  meta.dbs = dbs_;
  meta.txn_id = txn_id_;
  env_->newest_meta_ = 1 - env_->newest_meta_;
  for (PageId id : freed_) env_->free_page(id, txn_id_);
  env_->stats_.page_writes += dirty_.size() + chain_pages_;
  ++env_->stats_.commits;
  uint64_t written = dirty_.size();
  finish();
  env_->reclaim();
  return CommitInfo{txn_id_, written};
}

size_t Txn::entry_count() const { return entry_count(""); }

size_t Txn::entry_count(std::string_view db) const {
  const DbState* st = state_if_exists(db);
  return st ? st->entries : 0;
}

Page* Txn::readable(PageId id) {
  ++pages_touched_;
  ++env_->stats_.page_reads;
  return env_->page(id);
}

Page* Txn::shadow(PageId id) {
  Page* old = env_->page(id);
  if (old->born_txn == txn_id_) return old;  // already ours
  Page* fresh = env_->alloc_page(old->leaf, txn_id_);
  fresh->copy_image(*old);
  dirty_.push_back(fresh->id);
  freed_.push_back(id);
  ++pages_touched_;
  return fresh;
}

namespace {

// Routing: branch key i is the smallest key of children[i+1].
size_t route(const Page& p, std::string_view key) {  // upper bound
  size_t lo = 0, hi = p.nkeys();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key < p.key(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

size_t leaf_pos(const Page& p, std::string_view key, bool& exact) {
  size_t lo = 0, hi = p.nkeys();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (p.key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  exact = lo < p.nkeys() && p.key(lo) == key;
  return lo;
}

}  // namespace

std::optional<std::string> Txn::get(std::string_view key) {
  return get("", key);
}

std::optional<std::string> Txn::get(std::string_view db,
                                    std::string_view key) {
  if (done_) throw std::logic_error("mdblite: txn finished");
  return get_in(state(db), key);
}

std::optional<std::string> Txn::get_in(DbState& st, std::string_view key) {
  if (st.root == kNoPage) return std::nullopt;
  Page* p = readable(st.root);
  while (!p->leaf) p = readable(p->children[route(*p, key)]);
  bool exact;
  size_t i = leaf_pos(*p, key, exact);
  if (!exact) return std::nullopt;
  const Page::Cell c = p->cell(i);
  if (c.ovf) {
    const Page* ovf = readable(decode_ovf(c.value));
    return std::string(ovf->image.data(), ovf->image.size());
  }
  return std::string(c.value);
}

void Txn::put(std::string_view key, std::string_view value) {
  put("", key, value);
}

void Txn::put(std::string_view db, std::string_view key,
              std::string_view value) {
  if (done_ || !write_)
    throw std::logic_error("mdblite: put needs an active write txn");
  if (key.size() > env_->opts_.page_size / 4)
    throw std::length_error("mdblite: key longer than page_size / 4");
  put_in(state(db), key, value);
}

void Txn::put_in(DbState& st, std::string_view key, std::string_view value) {
  const size_t psize = env_->opts_.page_size;
  const size_t capacity = psize - kPageHeader;
  const bool big = value.size() > psize / 4;
  const uint16_t flags = big ? kOverflowRef : 0;

  // The bytes the leaf cell stores: the value, or the id of a fresh
  // overflow page holding it. Called after the leaf is shadowed, so page
  // ids are allocated leaf first.
  PageId ovf_id = kNoPage;
  auto stored = [&]() -> std::string_view {
    if (!big) return value;
    Page* ovf = env_->alloc_page(true, txn_id_);
    ovf->overflow = true;
    assign_fitted(ovf->image, value);
    dirty_.push_back(ovf->id);
    chain_pages_ += value.size() / psize;  // chain accounting, on commit
    ovf_id = ovf->id;
    return {reinterpret_cast<const char*>(&ovf_id), sizeof ovf_id};
  };

  if (st.root == kNoPage) {
    Page* leaf = env_->alloc_page(true, txn_id_);
    dirty_.push_back(leaf->id);
    leaf->insert(0, key, stored(), flags);
    st.root = leaf->id;
    st.entries = 1;
    return;
  }

  struct SplitInfo {
    bool split = false;
    std::string sep;
    PageId right = kNoPage;
  };

  // Recursive COW insert.
  auto insert_rec = [&](auto&& self, PageId id) -> std::pair<PageId, SplitInfo> {
    Page* p = shadow(id);
    SplitInfo si;
    if (p->leaf) {
      bool exact;
      size_t i = leaf_pos(*p, key, exact);
      if (exact) {
        const Page::Cell old = p->cell(i);
        if (old.ovf) freed_.push_back(decode_ovf(old.value));
        p->set_value(i, stored(), flags);
      } else {
        p->insert(i, key, stored(), flags);
        ++st.entries;
      }
      if (p->used() > capacity && p->nkeys() > 1) {
        size_t mid = p->nkeys() / 2;
        Page* right = env_->alloc_page(true, txn_id_);
        dirty_.push_back(right->id);
        right->append(*p, mid);
        p->truncate(mid);
        si = {true, std::string(right->key(0)), right->id};
      }
      return {p->id, si};
    }
    size_t idx = route(*p, key);
    auto [child_id, child_split] = self(self, p->children[idx]);
    p->children[idx] = child_id;
    if (child_split.split) {
      p->insert(idx, child_split.sep, {}, 0);
      p->children.insert(p->children.begin() + idx + 1, child_split.right);
      if (p->used() > capacity && p->nkeys() > 1) {
        size_t mid = p->nkeys() / 2;
        Page* right = env_->alloc_page(false, txn_id_);
        dirty_.push_back(right->id);
        std::string up(p->key(mid));
        right->append(*p, mid + 1);
        right->children.assign(p->children.begin() + mid + 1,
                               p->children.end());
        p->truncate(mid);
        si = {true, std::move(up), right->id};
      }
    }
    return {p->id, si};
  };

  auto [new_root, split] = insert_rec(insert_rec, st.root);
  st.root = new_root;
  if (split.split) {
    Page* nr = env_->alloc_page(false, txn_id_);
    dirty_.push_back(nr->id);
    nr->insert(0, split.sep, {}, 0);
    nr->children = {st.root, split.right};
    st.root = nr->id;
  }
}

bool Txn::del(std::string_view key) { return del("", key); }

bool Txn::del(std::string_view db, std::string_view key) {
  if (done_ || !write_)
    throw std::logic_error("mdblite: del needs an active write txn");
  return del_in(state(db), key);
}

bool Txn::del_in(DbState& st, std::string_view key) {
  if (st.root == kNoPage) return false;
  const size_t psize = env_->opts_.page_size;
  const size_t capacity = psize - kPageHeader;

  bool removed = false;
  auto del_rec = [&](auto&& self, PageId id) -> PageId {
    Page* p = shadow(id);
    if (p->leaf) {
      bool exact;
      size_t i = leaf_pos(*p, key, exact);
      if (exact) {
        const Page::Cell old = p->cell(i);
        if (old.ovf) freed_.push_back(decode_ovf(old.value));
        p->erase(i);
        removed = true;
        --st.entries;
      }
      return p->id;
    }
    size_t idx = route(*p, key);
    p->children[idx] = self(self, p->children[idx]);
    // Rebalance: merge an under-filled child into a sibling when the
    // combination fits (merge-only policy; under-filled pages are legal).
    // Peek with read-only pages FIRST — shadowing a page we end up not
    // modifying would push a still-referenced page onto the freelist.
    Page* child = env_->page(p->children[idx]);
    if (child->used() < capacity / 4 && p->children.size() > 1) {
      size_t li = idx > 0 ? idx - 1 : idx;  // merge (li, li+1)
      Page* lpeek = env_->page(p->children[li]);
      Page* rpeek = env_->page(p->children[li + 1]);
      if (lpeek->leaf == rpeek->leaf &&
          lpeek->used() + rpeek->used() <= capacity) {
        Page* left = shadow(p->children[li]);
        p->children[li] = left->id;
        Page* right = shadow(p->children[li + 1]);
        if (!left->leaf)  // pull the separator down
          left->insert(left->nkeys(), p->key(li), {}, 0);
        left->append(*right, 0);
        left->children.insert(left->children.end(), right->children.begin(),
                               right->children.end());
        // `right` is our own shadow (never published): recycle directly.
        std::erase(dirty_, right->id);
        env_->reusable_.push_back(right->id);
        p->erase(li);
        p->children.erase(p->children.begin() + li + 1);
        p->children[li] = left->id;
      }
    }
    return p->id;
  };

  st.root = del_rec(del_rec, st.root);
  // Collapse a root branch with a single child.
  Page* r = env_->page(st.root);
  while (!r->leaf && r->children.size() == 1) {
    PageId only = r->children[0];
    std::erase(dirty_, r->id);
    env_->reusable_.push_back(r->id);
    st.root = only;
    r = env_->page(st.root);
  }
  if (r->leaf && r->nkeys() == 0) {
    std::erase(dirty_, r->id);
    env_->reusable_.push_back(r->id);
    st.root = kNoPage;
  }
  return removed;
}

// ===========================================================================
// Cursor
// ===========================================================================

Cursor::Cursor(Txn& txn, std::string_view db) : txn_(txn) {
  const Txn::DbState* st = txn.state_if_exists(db);
  root_ = st ? st->root : kNoPage;
}

void Cursor::descend_left(PageId id) {
  Page* p = txn_.readable(id);
  stack_.push_back({id, 0});
  while (!p->leaf) {
    p = txn_.readable(p->children[0]);
    stack_.push_back({p->id, 0});
  }
  valid_ = p->nkeys() > 0;
}

bool Cursor::first() {
  stack_.clear();
  valid_ = false;
  if (root_ == kNoPage) return false;
  descend_left(root_);
  return valid_;
}

bool Cursor::seek(std::string_view key) {
  stack_.clear();
  valid_ = false;
  if (root_ == kNoPage) return false;
  Page* p = txn_.readable(root_);
  stack_.push_back({p->id, 0});
  while (!p->leaf) {
    size_t idx = route(*p, key);
    stack_.back().index = idx;
    p = txn_.readable(p->children[idx]);
    stack_.push_back({p->id, 0});
  }
  bool exact;
  size_t i = leaf_pos(*p, key, exact);
  stack_.back().index = i;
  if (i < p->nkeys()) {
    valid_ = true;
    return true;
  }
  return next();  // key is past this leaf; advance
}

bool Cursor::next() {
  if (stack_.empty()) return false;
  if (valid_) ++stack_.back().index;
  // Climb until a branch frame has a next child (or we are a valid leaf).
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    Page* p = txn_.env_->page(f.page);
    if (p->leaf) {
      if (f.index < p->nkeys()) {
        valid_ = true;
        return true;
      }
      stack_.pop_back();
    } else {
      if (f.index + 1 < p->children.size()) {
        ++f.index;
        descend_left(p->children[f.index]);
        if (valid_) return true;
      } else {
        stack_.pop_back();
      }
    }
  }
  valid_ = false;
  return false;
}

std::string_view Cursor::key() const {
  const Frame& f = stack_.back();
  return txn_.env_->page(f.page)->key(f.index);
}

std::string_view Cursor::value() const {
  const Frame& f = stack_.back();
  const Page::Cell c = txn_.env_->page(f.page)->cell(f.index);
  if (!c.ovf) return c.value;
  const Page* ovf = txn_.env_->page(decode_ovf(c.value));
  return {ovf->image.data(), ovf->image.size()};
}

}  // namespace hatrpc::kv
