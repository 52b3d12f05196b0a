// Borrowed channel memory on the client side of a call: the registered send
// block a request is serialized into, and the response a channel delivers
// without materializing a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace hatrpc::proto {

using Buffer = std::vector<std::byte>;
using View = std::span<const std::byte>;

/// One of a channel's registered send blocks, lent to a caller for one call:
/// the caller serializes its request into bytes() and the channel posts the
/// request straight from there, with no staging copy. The block goes back to
/// the channel's free list when the lease dies, so a lease must not outlive
/// its channel. An empty lease means the channel has no block to lend.
class SendBlock {
 public:
  SendBlock() = default;
  SendBlock(std::span<std::byte> bytes, std::vector<uint32_t>& free_list,
            uint32_t idx)
      : bytes_(bytes), free_(&free_list), idx_(idx) {}
  SendBlock(SendBlock&& o) noexcept
      : bytes_(o.bytes_), free_(o.free_), idx_(o.idx_) {
    o.free_ = nullptr;
    o.bytes_ = {};
  }
  SendBlock& operator=(SendBlock&& o) noexcept {
    if (this != &o) {
      release();
      bytes_ = o.bytes_;
      free_ = o.free_;
      idx_ = o.idx_;
      o.free_ = nullptr;
      o.bytes_ = {};
    }
    return *this;
  }
  SendBlock(const SendBlock&) = delete;
  SendBlock& operator=(const SendBlock&) = delete;
  ~SendBlock() { release(); }

  std::span<std::byte> bytes() const { return bytes_; }
  explicit operator bool() const { return free_ != nullptr; }

  void release() {
    if (free_) free_->push_back(idx_);
    free_ = nullptr;
    bytes_ = {};
  }

 private:
  std::span<std::byte> bytes_{};
  std::vector<uint32_t>* free_ = nullptr;
  uint32_t idx_ = 0;
};

/// A response lent from a channel's response slot without holding the slot.
/// The lender keeps its own reference and recalls the loan (copies the bytes
/// into `owned`) before it reuses the slot, or when it is destroyed, while a
/// borrower still holds it.
struct ReplyLoan {
  View view{};
  Buffer owned;
  bool recalled = false;

  View bytes() const { return recalled ? View(owned) : view; }
  void recall() {
    owned.assign(view.begin(), view.end());
    recalled = true;
    view = {};
  }
};

/// A response delivered without the client-side materialization copy where
/// the protocol can manage it: a view into the channel's pooled recv ring
/// (released — i.e. the ring slot reposted — when the lease dies; such a
/// lease must not outlive its channel), a ReplyLoan from a response slot
/// (safe to keep past the channel), or an owned Buffer fallback.
class LeasedReply {
 public:
  LeasedReply() = default;
  explicit LeasedReply(Buffer owned) : owned_(std::move(owned)) {}
  LeasedReply(View v, std::function<void()> release)
      : view_(v), release_(std::move(release)) {}
  explicit LeasedReply(std::shared_ptr<const ReplyLoan> loan)
      : loan_(std::move(loan)) {}
  LeasedReply(LeasedReply&& o) noexcept
      : owned_(std::move(o.owned_)), view_(o.view_),
        release_(std::move(o.release_)), loan_(std::move(o.loan_)) {
    o.release_ = nullptr;
    o.view_ = {};
  }
  LeasedReply& operator=(LeasedReply&& o) noexcept {
    if (this != &o) {
      release();
      owned_ = std::move(o.owned_);
      view_ = o.view_;
      release_ = std::move(o.release_);
      loan_ = std::move(o.loan_);
      o.release_ = nullptr;
      o.view_ = {};
    }
    return *this;
  }
  LeasedReply(const LeasedReply&) = delete;
  LeasedReply& operator=(const LeasedReply&) = delete;
  ~LeasedReply() { release(); }

  View bytes() const {
    if (loan_) return loan_->bytes();
    return release_ ? view_ : View(owned_);
  }
  /// True when the bytes live in the channel's memory (no copy paid).
  bool in_place() const {
    return static_cast<bool>(release_) || (loan_ && !loan_->recalled);
  }
  /// True while the reply holds a ring slot of its channel (released with
  /// the reply); an owned buffer or a loan holds nothing.
  bool holds_slot() const { return static_cast<bool>(release_); }
  /// Reposts the underlying ring slot early (the dtor does it otherwise).
  void release() {
    if (release_) {
      release_();
      release_ = nullptr;
    }
    view_ = {};
    loan_.reset();
  }

 private:
  Buffer owned_;
  View view_{};
  std::function<void()> release_;
  std::shared_ptr<const ReplyLoan> loan_;
};

}  // namespace hatrpc::proto
