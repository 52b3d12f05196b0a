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
// Pipelining: the message buffers are rings of cfg_.window slots, one per
// in-flight call. Notifications carry the slot (in the imm's top byte for
// WRITE_IMM, in the notify payload for the SEND variants); a client-side
// dispatcher drains the recv CQ in batches and routes each completion to
// its pending call, while the server spawns one handler task per request so
// slots are served concurrently. window=1 degenerates to the classic
// one-outstanding-call channel with identical per-call charges.
#pragma once

#include "proto/base.h"
#include "proto/error.h"

namespace hatrpc::proto {

class DirectChannel : public ChannelBase {
 protected:
  sim::Task<Buffer> do_call(View req, uint32_t /*resp_size_hint*/) override {
    if (req.size() > cfg_.max_msg)
      throw std::length_error("direct protocol: request exceeds the "
                              "pre-known buffer");
    uint32_t slot = co_await acquire_slot();
    if (dead_) {
      release_slot(slot);
      throw_wc("direct recv", dead_status_);
    }
    auto pend = sim::pooled_shared<PendingCall>(sim_);
    pending_[slot] = pend;
    const size_t off = slot * size_t(cfg_.max_msg);
    const uint32_t len = static_cast<uint32_t>(req.size());
    if (cfg_.zero_copy) {
      // Zero-copy: the WRITE gathers straight from the caller's buffer
      // (valid until the response resolves), inline when it fits the
      // doorbell, registered on demand through the MrCache otherwise.
      const bool inl = len <= cep_.qp->max_inline_data();
      if (!inl && len > 0)
        cl_.pd().mr_cache().get(req.data(), len, channel_counters());
      co_await push(cep_.qp, const_cast<std::byte*>(req.data()),
                    srv_req_buf_->remote(off), len, slot, cli_notify_src_,
                    inl);
    } else {
      std::byte* src = cli_req_src_->data() + off;
      copy_bytes(src, req.data(), req.size());
      co_await push(cep_.qp, src, srv_req_buf_->remote(off), len, slot,
                    cli_notify_src_);
    }
    co_await pend->done.wait();
    pending_[slot].reset();
    if (pend->status != verbs::WcStatus::kSuccess) {
      release_slot(slot);
      throw_wc("direct recv", pend->status);
    }
    const std::byte* p = cli_resp_buf_->data() + off;
    Buffer resp(p, p + pend->len);
    release_slot(slot);
    co_return resp;
  }

  sim::Task<void> serve() override {
    while (!stop_) {
      auto wcs = co_await sep_.recv_wcs(cfg_.window);
      for (verbs::Wc& wc : wcs) {
        if (!wc.ok()) co_return;
        uint32_t slot = 0, len = 0;
        decode(wc, srv_notify_ring_, &slot, &len);
        repost(sep_.qp, srv_notify_ring_, static_cast<uint32_t>(wc.wr_id));
        sim_.spawn(serve_one(slot, len));
      }
    }
  }

  void start() override {
    ChannelBase::start();
    sim_.spawn(client_dispatch());
  }

 private:
  DirectChannel(ProtocolKind kind, verbs::Node& client, verbs::Node& server,
                Handler handler, ChannelConfig cfg)
      : ChannelBase(kind, client, server, std::move(handler), cfg) {
    if (cfg_.max_msg > kLenMask)
      throw std::length_error("direct protocol: max_msg exceeds the 24-bit "
                              "notify length field");
    const size_t stride = cfg_.max_msg;
    const uint32_t w = cfg_.window;
    cli_req_src_ = alloc_client_mr(stride * w);
    cli_resp_buf_ = alloc_client_mr(stride * w);
    srv_req_buf_ = alloc_server_mr(stride * w);
    srv_resp_src_ = alloc_server_mr(stride * w);
    pending_.resize(w);
    ring_slots_ = std::max(cfg_.eager_slots, w);
    if (kind_ == ProtocolKind::kDirectWriteImm) {
      // WRITE_WITH_IMM consumes a (bufferless) posted recv on each side.
      // The server drains the shared pool instead when one is configured.
      if (cfg_.server_srq) sep_.qp->set_srq(cfg_.server_srq);
      for (uint32_t i = 0; i < ring_slots_; ++i) {
        cep_.qp->post_recv(verbs::RecvWr{.wr_id = i});
        if (!cfg_.server_srq) sep_.qp->post_recv(verbs::RecvWr{.wr_id = i});
      }
    } else {
      cli_notify_src_ = alloc_client_mr(kNotifyBytes * w);
      srv_notify_src_ = alloc_server_mr(kNotifyBytes * w);
      cli_notify_ring_ = alloc_client_mr(kNotifyBytes * ring_slots_);
      srv_notify_ring_ = alloc_server_mr(kNotifyBytes * ring_slots_);
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

  /// Routes response completions to their pending calls by slot. A
  /// terminal completion (CQ closed / QP flushed) fails every in-flight
  /// call and marks the channel dead for calls that arrive later.
  sim::Task<void> client_dispatch() {
    for (;;) {
      auto wcs = co_await cep_.recv_wcs(cfg_.window);
      for (verbs::Wc& wc : wcs) {
        if (!wc.ok()) {
          mark_dead(wc.status);
          for (auto& p : pending_)
            if (p) {
              p->status = wc.status;
              p->done.set();
            }
          co_return;
        }
        uint32_t slot = 0, len = 0;
        decode(wc, cli_notify_ring_, &slot, &len);
        repost(cep_.qp, cli_notify_ring_, static_cast<uint32_t>(wc.wr_id));
        if (auto& p = pending_[slot]) {
          p->len = len;
          p->status = verbs::WcStatus::kSuccess;
          p->done.set();
        }
      }
    }
  }

  sim::Task<void> serve_one(uint32_t slot, uint32_t len) {
    const size_t off = slot * size_t(cfg_.max_msg);
    Buffer resp = co_await run_handler(View{srv_req_buf_->data() + off, len});
    if (resp.size() > cfg_.max_msg)
      throw std::length_error("direct protocol: response exceeds the "
                              "pre-known buffer");
    const uint32_t rlen = static_cast<uint32_t>(resp.size());
    if (cfg_.zero_copy && rlen <= sep_.qp->max_inline_data()) {
      // Small response rides the doorbell (snapshotted at post time, so the
      // handler's Buffer may die immediately after) — no staging copy.
      co_await push(sep_.qp, resp.data(), cli_resp_buf_->remote(off), rlen,
                    slot, srv_notify_src_, true);
    } else {
      // Large responses keep the staged path: the WQE reads the payload at
      // execution time, after this task's Buffer is gone.
      copy_bytes(srv_resp_src_->data() + off, resp.data(), resp.size());
      co_await push(sep_.qp, srv_resp_src_->data() + off,
                    cli_resp_buf_->remote(off), rlen, slot, srv_notify_src_);
    }
  }

  /// Delivers `len` bytes from `src` into the peer's pre-known buffer slot
  /// using the variant's doorbell/notify scheme. `inl` posts the payload
  /// WRITE inline (zero-copy path, len pre-checked against max_inline_data).
  sim::Task<void> push(verbs::QueuePair* qp, std::byte* src,
                       verbs::RemoteAddr dst, uint32_t len, uint32_t slot,
                       verbs::MemoryRegion* notify_region, bool inl = false) {
    switch (kind_) {
      case ProtocolKind::kDirectWriteImm: {
        ++stats_.write_imms;
        co_await qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kWriteImm,
                                             .local = {src, len},
                                             .remote = dst,
                                             .imm = slot_imm(slot, len),
                                             .signaled = false,
                                             .inline_data = inl});
        break;
      }
      case ProtocolKind::kDirectWriteSend:
      case ProtocolKind::kChainedWriteSend: {
        ++stats_.writes;
        ++stats_.sends;
        std::byte* n = notify_region->data() + size_t(slot) * kNotifyBytes;
        put_u32(n, len);
        put_u32(n + 4, slot);
        verbs::SendWr write{.opcode = verbs::Opcode::kWrite,
                            .local = {src, len},
                            .remote = dst,
                            .signaled = false,
                            .inline_data = inl};
        verbs::SendWr notify{.opcode = verbs::Opcode::kSend,
                             .local = {n, 8},
                             .signaled = false,
                             // The 8-byte notify always fits the doorbell.
                             .inline_data = cfg_.zero_copy};
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

  void decode(const verbs::Wc& wc, verbs::MemoryRegion* ring, uint32_t* slot,
              uint32_t* len) const {
    if (kind_ == ProtocolKind::kDirectWriteImm) {
      *slot = imm_slot(wc.imm);
      *len = imm_len(wc.imm);
      return;
    }
    const std::byte* p = ring->data() + size_t(wc.wr_id) * kNotifyBytes;
    *len = get_u32(p);
    *slot = get_u32(p + 4);
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
  std::vector<std::shared_ptr<PendingCall>> pending_;
  uint32_t ring_slots_ = 0;
};

}  // namespace hatrpc::proto
