// TMemoryBuffer: the synchronous byte buffer the serialization protocols
// operate on. Serialization is CPU work, not I/O, so it stays synchronous;
// the async boundary (simulated transports) is at message granularity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "thrift/ttypes.h"

namespace hatrpc::thrift {

class TMemoryBuffer {
 public:
  TMemoryBuffer() = default;

  /// Read-only view over existing bytes: nothing is copied, so `bytes` must
  /// outlive the buffer. A write spills the contents to the heap first (as
  /// an overflowing backed() buffer does) and never touches `bytes`.
  static TMemoryBuffer wrap(std::span<const std::byte> bytes) {
    TMemoryBuffer b;
    // ext_cap_ stays 0, so no write ever lands in the viewed bytes.
    b.ext_ = const_cast<std::byte*>(bytes.data());
    b.ext_len_ = bytes.size();
    return b;
  }

  /// Serialization target backed by caller-provided storage (a registered
  /// send block or a pooled lease): writes land in the backing in place; a
  /// message that outgrows it spills to the heap.
  static TMemoryBuffer backed(std::span<std::byte> storage) {
    TMemoryBuffer b;
    b.ext_ = storage.data();
    b.ext_cap_ = storage.size();
    return b;
  }

  void write(const void* p, size_t n) {
    const std::byte* s = static_cast<const std::byte*>(p);
    if (in_ext()) {
      if (ext_len_ + n <= ext_cap_) {
        std::memcpy(ext_ + ext_len_, s, n);
        ext_len_ += n;
        return;
      }
      buf_.clear();
      reserve_more(ext_len_ + n);
      buf_.assign(ext_, ext_ + ext_len_);
      spilled_ = true;
    }
    reserve_more(n);
    buf_.insert(buf_.end(), s, s + n);
  }

  void read(void* p, size_t n) {
    check_readable(n);
    std::memcpy(p, data() + rpos_, n);
    rpos_ += n;
  }

  std::string read_string(size_t n) {
    check_readable(n);
    std::string s(reinterpret_cast<const char*>(data() + rpos_), n);
    rpos_ += n;
    return s;
  }

  /// Advances the read position past `n` bytes without copying them.
  void consume(size_t n) {
    check_readable(n);
    rpos_ += n;
  }

  size_t readable() const { return size() - rpos_; }
  std::span<const std::byte> view() const { return {data(), size()}; }
  /// The written bytes, writable in place (patching a header field after
  /// the fact). Not for wrap() views: their bytes belong to someone else.
  std::span<std::byte> mutable_view() {
    return {in_ext() ? ext_ : buf_.data(), size()};
  }
  std::vector<std::byte> take() {
    if (in_ext()) return {ext_, ext_ + ext_len_};
    return std::move(buf_);
  }

  /// True while the contents live in the caller-provided backing (i.e. the
  /// message fit and view() points into pre-registered memory).
  bool backed_in_place() const { return in_ext(); }

  void reset() {
    buf_.clear();
    rpos_ = 0;
    ext_len_ = 0;
    spilled_ = false;
  }

 private:
  /// Headroom left past a write that grows the heap buffer, so the few
  /// trailer bytes after a large blob (field stop, struct end) do not
  /// reallocate and recopy it.
  static constexpr size_t kGrowSlack = 64;

  bool in_ext() const { return ext_ != nullptr && !spilled_; }
  const std::byte* data() const { return in_ext() ? ext_ : buf_.data(); }
  size_t size() const { return in_ext() ? ext_len_ : buf_.size(); }

  void check_readable(size_t n) const {
    if (n > readable())
      throw TTransportException(TTransportException::Kind::kEndOfFile,
                                "TMemoryBuffer underflow");
  }

  void reserve_more(size_t n) {
    const size_t need = buf_.size() + n;
    if (need > buf_.capacity())
      buf_.reserve(std::max(2 * buf_.capacity(), need + kGrowSlack));
  }

  std::vector<std::byte> buf_;
  size_t rpos_ = 0;
  // External bytes: a backed() block (writable up to ext_cap_) or a wrap()
  // view (ext_cap_ == 0, read-only).
  std::byte* ext_ = nullptr;
  size_t ext_cap_ = 0;
  size_t ext_len_ = 0;
  bool spilled_ = false;
};

}  // namespace hatrpc::thrift
