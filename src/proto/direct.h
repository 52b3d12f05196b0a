// The pre-known-buffer protocols of Figs. 3b/3c/3f. All three write the
// payload directly into a pre-registered per-connection message buffer on
// the remote side (zero-copy), differing only in how the remote side is
// notified:
//   * Direct-Write-Send  — WRITE + separate SEND notify (2 doorbells);
//   * Chained-Write-Send — WRITE + SEND chained under one doorbell;
//   * Direct-WriteIMM    — single WRITE_WITH_IMM (1 WQE, best latency).
// Their shared cost is the reserved max_msg buffer per connection — the
// memory-scaling weakness the paper's res_util hint steers away from.
//
// Call windows: the message buffers are rings of cfg_.window slots, one per
// in-flight call. Notifications carry the slot (in the imm's top byte for
// WRITE_IMM, in the notify payload for the SEND variants). The waiting
// callers take turns sweeping the client's recv CQ, and the Router hands
// each note to the call holding its slot. With one slot the server runs
// each handler inline; with more, each runs in a task of its own so slots
// are served concurrently (serve_request).
//
// Host copies: the request blocks are lent to callers (lease_send_block),
// so a caller that serializes into one is posted with no staging copy, and
// call_leased lends the response slot instead of copying out of it. A heap
// request still stages, into its slot's response area. On the server, the
// handler is handed its slot's registered response area and may write the
// reply there, which is then posted in place; a Buffer reply stages into
// the area once. None of these copies is charged, so no path changes
// virtual time.
#pragma once

#include "proto/base.h"
#include "proto/error.h"

namespace hatrpc::proto {

class DirectChannel : public ChannelBase {
 public:
  ~DirectChannel() override {
    for (auto& loan : loans_)
      if (loan && loan.use_count() > 1) loan->recall();
  }

  SendBlock lease_send_block() override {
    if (free_blocks_.empty()) return {};
    const uint32_t b = free_blocks_.back();
    free_blocks_.pop_back();
    return SendBlock(cli_req_src_->span(offset(b), cfg_.max_msg),
                     free_blocks_, b);
  }

 protected:
  sim::Task<Buffer> do_call(View req, uint32_t /*resp_size_hint*/) override {
    const Landed r = co_await exchange(req);
    const std::byte* p = cli_resp_buf_->data() + offset(r.slot);
    Buffer resp(p, p + r.len);
    release_slot(r.slot);
    co_return resp;
  }

  /// Lends the response slot instead of copying out of it: the slot goes
  /// back to the free list at the same instant as in do_call, and the loan
  /// is recalled only if the slot is re-acquired (or the channel dies)
  /// while the reply is still alive. Each loan counts one recv lease.
  sim::Task<LeasedReply> do_call_leased(View req,
                                        uint32_t /*resp_size_hint*/) override {
    const Landed r = co_await exchange(req);
    cl_.counters().add(obs::Ctr::kRecvLeases);
    channel_counters()->add(obs::Ctr::kRecvLeases);
    std::shared_ptr<ReplyLoan>& loan = loans_[r.slot];
    if (!loan) loan = sim::pooled_shared<ReplyLoan>();
    loan->view = View(cli_resp_buf_->data() + offset(r.slot), r.len);
    release_slot(r.slot);
    co_return LeasedReply(std::shared_ptr<const ReplyLoan>(loan));
  }

  sim::Task<void> serve() override {
    while (!stop_) {
      auto wcs = co_await sep_.recv_wcs(cfg_.window);
      for (verbs::Wc& wc : wcs) {
        const Note n = take_note(wc, sep_.qp, srv_notify_ring_);
        if (n.status != verbs::WcStatus::kSuccess) co_return;
        // Slot and length come off the wire: a request naming no slot of
        // the window, or overrunning its slot's buffer, is dropped.
        if (in_window(n.slot) && n.msg <= cfg_.max_msg)
          co_await serve_request(serve_one(n.slot, n.msg));
      }
    }
  }

 private:
  DirectChannel(ProtocolKind kind, verbs::Node& client, verbs::Node& server,
                Handler handler, ChannelConfig cfg)
      : ChannelBase(kind, client, server, std::move(handler), cfg),
        replies_(*this, /*marks_dead=*/true) {
    if (cfg_.max_msg >= kOversized)
      throw std::length_error("direct protocol: max_msg must stay below the "
                              "24-bit notify length field's oversize mark");
    const size_t stride = cfg_.max_msg;
    const uint32_t w = cfg_.window;
    cli_req_src_ = cl_.pd().alloc_mr(stride * w);
    cli_resp_buf_ = cl_.pd().alloc_mr(stride * w);
    srv_req_buf_ = sv_.pd().alloc_mr(stride * w);
    srv_resp_src_ = sv_.pd().alloc_mr(stride * w);
    loans_.resize(w);
    for (uint32_t b = w; b-- > 0;) free_blocks_.push_back(b);
    ring_slots_ = std::max(kEagerSlots, w);
    if (kind_ == ProtocolKind::kDirectWriteImm) {
      // WRITE_WITH_IMM consumes a (bufferless) posted recv on each side.
      // The server takes its recvs from the shared pool when one is set.
      if (cfg_.server_srq) sep_.qp->set_srq(cfg_.server_srq);
      for (uint32_t i = 0; i < ring_slots_; ++i) {
        cep_.qp->post_recv(verbs::RecvWr{.wr_id = i});
        if (!cfg_.server_srq) sep_.qp->post_recv(verbs::RecvWr{.wr_id = i});
      }
    } else {
      cli_notify_src_ = cl_.pd().alloc_mr(kNotifyBytes * w);
      srv_notify_src_ = sv_.pd().alloc_mr(kNotifyBytes * w);
      cli_notify_ring_ = cl_.pd().alloc_mr(kNotifyBytes * ring_slots_);
      srv_notify_ring_ = sv_.pd().alloc_mr(kNotifyBytes * ring_slots_);
      for (uint32_t i = 0; i < ring_slots_; ++i) {
        post_notify_recv(cep_.qp, cli_notify_ring_, i);
        post_notify_recv(sep_.qp, srv_notify_ring_, i);
      }
    }
  }

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  static constexpr uint32_t kNotifyBytes = 16;
  /// Announced length of a reply past max_msg; the client fails any such.
  static constexpr uint32_t kOversized = kLenMask;

  struct Landed {
    uint32_t slot;
    uint32_t len;
  };
  /// A decoded notification: its slot and the length it announces.
  using Note = Router<uint32_t>::Routed;

  size_t offset(uint32_t slot) const { return slot * size_t(cfg_.max_msg); }

  /// Posts `req` and waits for its response. Returns still holding the
  /// window slot, whose response area holds the `len` reply bytes: the
  /// caller takes them, then releases the slot.
  sim::Task<Landed> exchange(View req) {
    if (req.size() > cfg_.max_msg)
      throw std::length_error("direct protocol: request exceeds the "
                              "pre-known buffer");
    const uint32_t slot = co_await acquire_slot();
    if (dead_) {
      release_slot(slot);
      throw_wc("direct recv", dead_status_);
    }
    recall_loan(slot);
    const size_t off = offset(slot);
    const uint32_t len = static_cast<uint32_t>(req.size());
    // A request serialized into a lent send block is registered already:
    // it posts from there (a range check, not an MrCache lookup).
    const bool in_block = cli_req_src_->contains(
        reinterpret_cast<uint64_t>(req.data()), len);
    std::byte* src = const_cast<std::byte*>(req.data());
    if (!in_block) {
      // A heap request stages into its slot's response area: nothing there
      // is live between the acquire (which recalled any lent reply) and the
      // response, and the WRITE gathers it before the server can answer.
      src = cli_resp_buf_->data() + off;
      copy_bytes(src, req.data(), req.size());
    }
    co_await push(cep_.qp, src, srv_req_buf_->remote(off), len, len, slot,
                  cli_notify_src_);
    while (co_await replies_.turn(slot))
      replies_.sweep(co_await cep_.recv_wcs(cfg_.window),
                     [this](const verbs::Wc& wc) {
                       return take_note(wc, cep_.qp, cli_notify_ring_);
                     });
    const Note n = replies_.take(slot);
    if (n.status == verbs::WcStatus::kSuccess && n.msg <= cfg_.max_msg)
      co_return Landed{slot, n.msg};
    release_slot(slot);
    if (n.status != verbs::WcStatus::kSuccess)
      throw_wc("direct recv", dead_status_);
    throw std::length_error("direct protocol: response exceeds the "
                            "pre-known buffer");
  }

  /// Before a slot's response area is reused, copies out the reply still
  /// lent from it.
  void recall_loan(uint32_t slot) {
    std::shared_ptr<ReplyLoan>& loan = loans_[slot];
    if (loan && loan.use_count() > 1) {
      loan->recall();
      loan.reset();
    }
  }

  /// Serves one request. The handler is handed the slot's response area, so
  /// a reply written there is posted with no staging copy. Only this request
  /// owns the area: the slot's previous reply was fetched from it before the
  /// client saw that reply, and so before the client could reuse the slot.
  sim::Task<void> serve_one(uint32_t slot, uint32_t len) {
    const size_t off = offset(slot);
    const std::span<std::byte> area = srv_resp_src_->span(off, cfg_.max_msg);
    Response resp =
        co_await run_handler(View{srv_req_buf_->data() + off, len}, area);
    if (resp.size() > cfg_.max_msg) {
      // Fail just this call: an empty delivery whose length field carries
      // the out-of-range sentinel tells the client its response was lost.
      co_await push(sep_.qp, area.data(), cli_resp_buf_->remote(off), 0,
                    kOversized, slot, srv_notify_src_);
      co_return;
    }
    const View bytes = resp.bytes(area);
    const uint32_t rlen = static_cast<uint32_t>(bytes.size());
    // The WQE reads the payload at execution time, after an owned Buffer is
    // gone, so an owned reply stages into the area first.
    if (!resp.in_area()) copy_bytes(area.data(), bytes.data(), rlen);
    co_await push(sep_.qp, area.data(), cli_resp_buf_->remote(off), rlen, rlen,
                  slot, srv_notify_src_);
  }

  /// Delivers `len` bytes from `src` into the peer's pre-known buffer slot
  /// using the variant's doorbell/notify scheme, announcing `note` as the
  /// length (`len`, or kOversized).
  sim::Task<void> push(verbs::QueuePair* qp, std::byte* src,
                       verbs::RemoteAddr dst, uint32_t len, uint32_t note,
                       uint32_t slot, verbs::MemoryRegion* notify_region) {
    switch (kind_) {
      case ProtocolKind::kDirectWriteImm: {
        co_await qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kWriteImm,
                                             .local = {src, len},
                                             .remote = dst,
                                             .imm = slot_imm(slot, note),
                                             .signaled = false});
        break;
      }
      case ProtocolKind::kDirectWriteSend:
      case ProtocolKind::kChainedWriteSend: {
        std::byte* n = notify_region->data() + size_t(slot) * kNotifyBytes;
        put_u32(n, note);
        put_u32(n + 4, slot);
        verbs::SendWr write{.opcode = verbs::Opcode::kWrite,
                            .local = {src, len},
                            .remote = dst,
                            .signaled = false};
        verbs::SendWr notify{.opcode = verbs::Opcode::kSend,
                             .local = {n, 8},
                             .signaled = false};
        if (kind_ == ProtocolKind::kChainedWriteSend) {
          std::vector<verbs::SendWr> chain;
          chain.push_back(write);
          chain.push_back(notify);
          co_await qp->post_send_chain(std::move(chain));
        } else {
          co_await qp->post_send(write);
          co_await qp->post_send(notify);
        }
        break;
      }
      default:
        throw std::logic_error("not a direct protocol");
    }
  }

  /// Decodes the notification `wc` brought (the imm, or the notify frame
  /// in `ring`) and reposts the recv it consumed.
  Note take_note(const verbs::Wc& wc, verbs::QueuePair* qp,
                 verbs::MemoryRegion* ring) {
    if (!wc.ok()) return {.status = wc.status};
    Note n{.slot = imm_slot(wc.imm), .msg = imm_len(wc.imm)};
    if (kind_ != ProtocolKind::kDirectWriteImm) {
      const std::byte* p = ring->data() + size_t(wc.wr_id) * kNotifyBytes;
      n = {.slot = get_u32(p + 4), .msg = get_u32(p)};
    }
    repost(qp, ring, static_cast<uint32_t>(wc.wr_id));
    return n;
  }

  void post_notify_recv(verbs::QueuePair* qp, verbs::MemoryRegion* ring,
                        uint32_t idx) {
    qp->post_recv(verbs::RecvWr{
        .wr_id = idx,
        .buf = {ring->data() + static_cast<size_t>(idx) * kNotifyBytes,
                kNotifyBytes}});
  }

  void repost(verbs::QueuePair* qp, verbs::MemoryRegion* ring, uint32_t idx) {
    if (kind_ == ProtocolKind::kDirectWriteImm) {
      if (verbs::SharedReceiveQueue* srq = qp->srq())
        srq->post_recv(verbs::RecvWr{.wr_id = idx}, channel_counters());
      else
        qp->post_recv(verbs::RecvWr{.wr_id = idx});
    } else {
      post_notify_recv(qp, ring, idx);
    }
  }

  verbs::MemoryRegion* cli_req_src_ = nullptr;
  verbs::MemoryRegion* cli_resp_buf_ = nullptr;
  verbs::MemoryRegion* srv_req_buf_ = nullptr;
  verbs::MemoryRegion* srv_resp_src_ = nullptr;
  verbs::MemoryRegion* cli_notify_src_ = nullptr;
  verbs::MemoryRegion* srv_notify_src_ = nullptr;
  verbs::MemoryRegion* cli_notify_ring_ = nullptr;
  verbs::MemoryRegion* srv_notify_ring_ = nullptr;
  Router<uint32_t> replies_;  // each slot's announced reply length
  std::vector<std::shared_ptr<ReplyLoan>> loans_;  // per window slot
  std::vector<uint32_t> free_blocks_;  // cli_req_src_ blocks not lent out
  uint32_t ring_slots_ = 0;
};

}  // namespace hatrpc::proto
