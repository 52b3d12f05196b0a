// One-directional eager message pipe over SEND/RECV circular buffers
// (Fig. 3a). Messages larger than one slot are segmented across the ring;
// the receiver reassembles. Each segment pays the eager bookkeeping CPU and
// a staging copy on both sides — eager's intrinsic cost that makes it a
// small-message protocol. Used by Eager-SendRecv (both directions), the
// hybrid baselines (below-threshold path), and HERD (response direction).
//
// Each side is an Endpoint: the pipe stages into a ring on src's node and
// assembles from a ring on dst's node, polling each side's CQs with that
// side's configured discipline.
#pragma once

#include <algorithm>
#include <optional>

#include "proto/channel.h"
#include "proto/wire.h"
#include "sim/sync.h"

namespace hatrpc::proto {

/// Eager circular-buffer geometry (paper §4.3: slot = 4 KB threshold). The
/// other protocols' recv and control rings hold at least kEagerSlots too.
inline constexpr uint32_t kEagerSlot = 4096;
inline constexpr uint32_t kEagerSlots = 16;

class EagerPipe {
 public:
  /// Sender stages into a ring on `src`'s node; receiver assembles from a
  /// ring on `dst`'s node, with recvs pre-posted on dst's QP. `chan` (may
  /// be null) mirrors staging-copy bytes into the owning channel's scope.
  EagerPipe(verbs::Endpoint& src, verbs::Endpoint& dst,
            const ChannelConfig& cfg, obs::CounterSet* chan)
      : src_(src), dst_(dst), cfg_(cfg), chan_(chan),
        cost_(src.node->fabric().cost()) {
    send_ring_ = src_.node->pd().alloc_mr(ring_bytes());
    recv_ring_ = dst_.node->pd().alloc_mr(ring_bytes());
    for (uint32_t i = 0; i < kEagerSlots; ++i) post_recv_slot(i);
  }

  static constexpr size_t ring_bytes() {
    return static_cast<size_t>(kEagerSlot) * kEagerSlots;
  }

  /// Sends one (possibly segmented) message. Multiple whole messages may be
  /// in flight back-to-back (windowed callers serialize send() itself); the
  /// staging cursor therefore persists across messages, and slot reuse is
  /// gated on send completions (polled with the sender's discipline) so a
  /// new message never overwrites a slot whose send is still outstanding.
  /// With `tag`, the message is the 4-byte slot tag a windowed channel
  /// routes by followed by `msg`, gathered straight into the staging slots.
  /// Returns false (with last_status() set) if a send completes in error.
  sim::Task<bool> send(View msg, std::optional<uint32_t> tag = std::nullopt) {
    std::byte prefix[4];
    const size_t pre = tag ? sizeof prefix : 0;
    if (tag) put_u32(prefix, *tag);
    const size_t total = pre + msg.size();
    size_t off = 0;
    bool first = true;
    // Lazily reclaim completions from previous messages (no charge when
    // they are already visible — ibv_poll_cq batch semantics).
    while (outstanding_ > 0 && src_.scq->try_poll()) --outstanding_;
    while (first || off < total) {
      uint32_t idx = cursor_ % kEagerSlots;
      std::byte* s = send_ring_->data() + static_cast<size_t>(idx) * kEagerSlot;
      uint32_t hdr = first ? 4u : 0u;
      uint32_t take = static_cast<uint32_t>(
          std::min<size_t>(kEagerSlot - hdr, total - off));
      // Slot reuse: the ring is full, wait for the oldest send to complete.
      while (outstanding_ >= kEagerSlots) {
        verbs::Wc wc = co_await src_.send_wc();
        if (!wc.ok()) {
          last_status_ = wc.status;
          co_return false;
        }
        --outstanding_;
      }
      charge_copy(*src_.node, take);
      co_await src_.node->cpu().compute(
          cost_.eager_match_cpu +
          cost_.copy_time(take, src_.qp->numa_local));
      if (first) put_u32(s, static_cast<uint32_t>(total));
      // Bytes [off, off + take) of the tag followed by msg.
      size_t from_tag = 0;
      if (off < pre) {
        from_tag = std::min<size_t>(take, pre - off);
        std::memcpy(s + hdr, prefix + off, from_tag);
      }
      if (take > from_tag)
        std::memcpy(s + hdr + from_tag, msg.data() + (off + from_tag - pre),
                    take - from_tag);
      co_await src_.qp->post_send(verbs::SendWr{
          .wr_id = idx,
          .opcode = verbs::Opcode::kSend,
          .local = {s, hdr + take},
          .signaled = true});
      ++outstanding_;
      off += take;
      ++cursor_;
      first = false;
    }
    co_return true;
  }

  /// Receives one message; nullopt when the CQ is closed (shutdown).
  /// Charges the eager bookkeeping CPU and an assembly copy per segment.
  sim::Task<std::optional<Buffer>> recv() {
    Buffer out;
    size_t total = 0;
    bool first = true;
    std::optional<verbs::Wc> pending;
    while (first || out.size() < total) {
      verbs::Wc wc;
      if (pending) {
        wc = *pending;
        pending.reset();
      } else {
        wc = co_await dst_.recv_wc();
        if (!wc.ok()) {
          last_status_ = wc.status;
          co_return std::nullopt;
        }
      }
      uint32_t idx = static_cast<uint32_t>(wc.wr_id);
      const std::byte* s =
          recv_ring_->data() + static_cast<size_t>(idx) * kEagerSlot;
      uint32_t hdr = first ? 4u : 0u;
      if (first) total = get_u32(s);
      // Sizes come off the wire: a fragment shorter than its header, or one
      // that would grow the message past its declared total, fails the
      // receive like a local length error instead of being copied, and
      // gives its ring slot back.
      if (wc.byte_len < hdr || wc.byte_len - hdr > total - out.size()) {
        post_recv_slot(idx);
        last_status_ = verbs::WcStatus::kLocLenErr;
        co_return std::nullopt;
      }
      if (first) {
        // The total comes off the wire, so reserve at most max_msg (plus a
        // windowed channel's 4-byte slot prefix); a longer message still
        // arrives whole, its buffer growing with its fragments.
        out.reserve(std::min(total, size_t(cfg_.max_msg) + 4));
        first = false;
      }
      uint32_t take = wc.byte_len - hdr;
      charge_copy(*dst_.node, take);
      co_await dst_.node->cpu().compute(
          cost_.eager_match_cpu +
          cost_.copy_time(take, dst_.qp->numa_local));
      out.insert(out.end(), s + hdr, s + hdr + take);
      post_recv_slot(idx);
      // Batch-take CQEs that are already visible (ibv_poll_cq semantics) —
      // this is what keeps event-mode pickups per batch, not per segment.
      if (out.size() < total) pending = dst_.rcq->try_poll();
    }
    co_return out;
  }

  /// Status of the completion that made send()/recv() bail out.
  verbs::WcStatus last_status() const { return last_status_; }

  /// The slot tag at the front of a message sent with one, or kNoSlot when
  /// the message is too short to carry it (the tag comes off the wire).
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static uint32_t slot_tag(View msg) {
    return msg.size() < 4 ? kNoSlot : get_u32(msg.data());
  }

 private:
  void charge_copy(verbs::Node& node, uint64_t bytes) {
    node.counters().add(obs::Ctr::kCopyBytes, bytes);
    if (chan_) chan_->add(obs::Ctr::kCopyBytes, bytes);
  }

  void post_recv_slot(uint32_t idx) {
    dst_.qp->post_recv(verbs::RecvWr{
        .wr_id = idx,
        .buf = {recv_ring_->data() + static_cast<size_t>(idx) * kEagerSlot,
                kEagerSlot}});
  }

  verbs::Endpoint& src_;
  verbs::Endpoint& dst_;
  ChannelConfig cfg_;
  obs::CounterSet* chan_;
  const verbs::CostModel& cost_;

  verbs::MemoryRegion* send_ring_;
  verbs::MemoryRegion* recv_ring_;
  uint32_t outstanding_ = 0;
  uint32_t cursor_ = 0;  // staging slot cursor, persistent across messages
  verbs::WcStatus last_status_ = verbs::WcStatus::kSuccess;
};

}  // namespace hatrpc::proto
