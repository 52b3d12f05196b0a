// Borrowed channel memory on the client side of a call: the registered send
// block a request is serialized into, and the response a channel delivers
// without materializing a copy.
#pragma once

#include <cstddef>
#include <cstdint>
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
/// the protocol can manage it: a ReplyLoan from a response slot (safe to
/// keep past the channel), or an owned Buffer fallback.
class LeasedReply {
 public:
  LeasedReply() = default;
  explicit LeasedReply(Buffer owned) : owned_(std::move(owned)) {}
  explicit LeasedReply(std::shared_ptr<const ReplyLoan> loan)
      : loan_(std::move(loan)) {}
  LeasedReply(LeasedReply&&) = default;
  LeasedReply& operator=(LeasedReply&&) = default;
  LeasedReply(const LeasedReply&) = delete;
  LeasedReply& operator=(const LeasedReply&) = delete;

  View bytes() const { return loan_ ? loan_->bytes() : View(owned_); }
  /// True when the bytes live in the channel's memory (no copy paid).
  bool in_place() const { return loan_ && !loan_->recalled; }

 private:
  Buffer owned_;
  std::shared_ptr<const ReplyLoan> loan_;
};

}  // namespace hatrpc::proto
