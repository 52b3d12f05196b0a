// Rendezvous protocols (Figs. 3d/3e): the peers first exchange payload
// metadata over small control messages, then move the payload zero-copy
// with a one-sided operation. Extra control round trips cost latency, but
// no slot copies and no per-connection max-size reservations — the MPI
// work-horses for large messages and memory-efficient scaling.
//
//   Write-RNDV: RTS -> CTS(receiver buffer) -> WRITE_WITH_IMM payload
//   Read-RNDV:  RTS(sender buffer) -> receiver READs payload -> FIN
//
// Call windows: payload pools are per-slot rings, and every message carries
// its call's window slot (in the ctrl frame's type word, in the imm's top
// byte, in a READ's wr_id). The server runs one worker per slot: inline
// with one slot, in a task of its own with more. On each side the waiting
// calls (or workers) take turns sweeping each CQ, and a Router per CQ hands
// each completion to the slot it names.
#pragma once

#include "proto/base.h"
#include "proto/error.h"

namespace hatrpc::proto {

class RendezvousChannel : public ChannelBase {
 protected:
  sim::Task<Buffer> do_call(View req, uint32_t /*resp_size_hint*/) override {
    if (req.size() > cfg_.max_msg)
      throw std::length_error("rendezvous: request exceeds payload pool");
    const uint32_t slot = co_await acquire_slot();
    const SlotGuard held(*this, slot);
    if (dead_) throw_wc("rndv", dead_status_);
    const size_t off = slot * size_t(cfg_.max_msg);
    const uint32_t len = static_cast<uint32_t>(req.size());
    copy_bytes(cli_payload_->data() + off, req.data(), req.size());

    if (kind_ == ProtocolKind::kWriteRndv) {
      // RTS -> wait CTS -> WRITE_IMM payload into the server's buffer.
      co_await send_ctrl(cli_, slot, kRts, len, {});
      const RMsg cts = co_await expect(cli_, slot, kCts);
      co_await cep_.qp->post_send(verbs::SendWr{
          .opcode = verbs::Opcode::kWriteImm,
          .local = {cli_payload_->data() + off, len},
          .remote = cts.addr,
          .imm = slot_imm(slot, len),
          .signaled = false});
      // Response (reverse Write-RNDV): RTS' -> we reply CTS -> recv-imm.
      const RMsg rts = co_await expect(cli_, slot, kRts);
      check_reply_len(rts.len);
      co_await send_ctrl(cli_, slot, kCts, rts.len, cli_resp_buf_->remote(off));
      const RMsg data = co_await expect(cli_, slot, kData);
      check_reply_len(data.len);
      const std::byte* p = cli_resp_buf_->data() + off;
      co_return Buffer(p, p + data.len);
    }

    // Read-RNDV: RTS carries our buffer; the server READs the request,
    // processes it, then announces its response buffer.
    co_await send_ctrl(cli_, slot, kRts, len, cli_payload_->remote(off));
    const RMsg rts = co_await expect(cli_, slot, kRts);
    check_reply_len(rts.len);
    co_await cep_.qp->post_send(verbs::SendWr{
        .wr_id = slot,
        .opcode = verbs::Opcode::kRead,
        .local = {cli_resp_buf_->data() + off, rts.len},
        .remote = rts.addr});
    co_await expect(cli_, slot, kReadDone);
    // FIN releases the server's response buffer for the slot's next call.
    co_await send_ctrl(cli_, slot, kFin, 0, {});
    const std::byte* p = cli_resp_buf_->data() + off;
    co_return Buffer(p, p + rts.len);
  }

  sim::Task<void> serve() override {
    for (uint32_t s = 0; s < cfg_.window; ++s)
      co_await serve_request(serve_slot(s));
  }

 private:
  RendezvousChannel(ProtocolKind kind, verbs::Node& client,
                    verbs::Node& server, Handler handler, ChannelConfig cfg)
      : ChannelBase(kind, client, server, std::move(handler), cfg),
        cli_{cep_, Router<RMsg>(*this), Router<RMsg>(*this)},
        srv_{sep_, Router<RMsg>(*this), Router<RMsg>(*this)} {
    if (cfg_.max_msg > kLenMask)
      throw std::length_error("rendezvous: max_msg exceeds the 24-bit imm "
                              "length field");
    const size_t stride = cfg_.max_msg;
    const uint32_t w = cfg_.window;
    cli_payload_ = cl_.pd().alloc_mr(stride * w);
    cli_resp_buf_ = cl_.pd().alloc_mr(stride * w);
    srv_payload_ = sv_.pd().alloc_mr(stride * w);
    srv_resp_src_ = sv_.pd().alloc_mr(stride * w);
    // Ctrl SENDs are unsignaled and the payload is copied out in flight, so
    // the source slots rotate: reusing one buffer would let a later message
    // overwrite an earlier one that is still on the wire (FIN chased by the
    // next call's RTS). With a window, several calls keep ctrl messages in
    // flight at once, so the rings scale with the window too.
    ctrl_slots_ = std::max(kEagerSlots, 4 * w);
    cli_.src = cl_.pd().alloc_mr(kCtrlBytes * ctrl_slots_);
    srv_.src = sv_.pd().alloc_mr(kCtrlBytes * ctrl_slots_);
    cli_.ring = cl_.pd().alloc_mr(kCtrlBytes * ctrl_slots_);
    srv_.ring = sv_.pd().alloc_mr(kCtrlBytes * ctrl_slots_);
    for (uint32_t i = 0; i < ctrl_slots_; ++i) {
      post_ctrl_recv(cli_, i);
      post_ctrl_recv(srv_, i);
    }
  }

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  static constexpr uint32_t kCtrlBytes = 32;
  static constexpr uint32_t kRts = 1;
  static constexpr uint32_t kCts = 2;
  static constexpr uint32_t kFin = 3;
  /// The types a payload's WRITE_IMM (its length in the imm) and a READ's
  /// completion decode as: past a ctrl frame's 24-bit type word, so no
  /// frame passes for one.
  static constexpr uint32_t kData = 1u << kSlotShift;
  static constexpr uint32_t kReadDone = kData + 1;
  /// Length a response RTS' announces for a reply past max_msg.
  static constexpr uint32_t kOversized = UINT32_MAX;

  /// One decoded completion for a slot.
  struct RMsg {
    uint32_t type = 0;
    uint32_t len = 0;
    verbs::RemoteAddr addr{};
  };
  using Routed = Router<RMsg>::Routed;

  /// One side: its endpoint, the routers of its recv and send CQs (only
  /// READs are signaled, so Write-RNDV's send CQs stay empty), the ring its
  /// ctrl frames land in, and the rotating sources of those it sends.
  struct Side {
    verbs::Endpoint& ep;
    Router<RMsg> ctrl;
    Router<RMsg> reads;
    verbs::MemoryRegion* ring = nullptr;
    verbs::MemoryRegion* src = nullptr;
    uint32_t seq = 0;
  };

  /// Sends a 20-byte ctrl frame: [slot << 24 | type][len][addr][rkey].
  sim::Task<void> send_ctrl(Side& side, uint32_t slot, uint32_t type,
                            uint32_t len, verbs::RemoteAddr addr) {
    std::byte* p = side.src->data() +
                   static_cast<size_t>(side.seq++ % ctrl_slots_) * kCtrlBytes;
    put_u32(p, slot_imm(slot, type));
    put_u32(p + 4, len);
    put_u64(p + 8, addr.addr);
    put_u32(p + 16, addr.rkey);
    co_await side.ep.qp->post_send(verbs::SendWr{
        .opcode = verbs::Opcode::kSend, .local = {p, 20}, .signaled = false});
  }

  /// Fails the call whose reply announces a length past max_msg: the
  /// oversize mark, or any such length off the wire.
  void check_reply_len(uint32_t len) const {
    if (len > cfg_.max_msg)
      throw std::length_error("rendezvous: response exceeds payload pool");
  }

  /// Decodes one completion on `side`, reposting the ctrl recv it consumed.
  Routed decode(Side& side, const verbs::Wc& wc) {
    if (!wc.ok()) return {.status = wc.status};
    if (wc.opcode == verbs::WcOpcode::kRdmaRead)
      return {.slot = uint32_t(wc.wr_id), .msg = {.type = kReadDone}};
    Routed r{.slot = imm_slot(wc.imm),
             .msg = {.type = kData, .len = imm_len(wc.imm)}};
    if (wc.opcode != verbs::WcOpcode::kRecvImm) {
      const std::byte* p =
          side.ring->data() + static_cast<size_t>(wc.wr_id) * kCtrlBytes;
      r = {.slot = imm_slot(get_u32(p)),
           .msg = {imm_len(get_u32(p)), get_u32(p + 4),
                   {get_u64(p + 8), get_u32(p + 16)}}};
    }
    post_ctrl_recv(side, static_cast<uint32_t>(wc.wr_id));
    return r;
  }

  /// `slot`'s next message of `type` on `side`, off the send CQ for a
  /// READ's completion and the recv CQ for the rest. Any other message, and
  /// on the server one announcing more than max_msg, is dropped and the
  /// wait goes on. A failed completion throws: it fails the client's call,
  /// and ends the server's slot worker.
  sim::Task<RMsg> expect(Side& side, uint32_t slot, uint32_t type) {
    const bool read = type == kReadDone;
    Router<RMsg>& mail = read ? side.reads : side.ctrl;
    verbs::CompletionQueue& cq = read ? *side.ep.scq : *side.ep.rcq;
    for (;;) {
      while (co_await mail.turn(slot))
        mail.sweep(co_await cq.reap(side.ep.poll, cfg_.window),
                   [this, &side](const verbs::Wc& wc) {
                     return decode(side, wc);
                   });
      const Routed r = mail.take(slot);
      if (r.status != verbs::WcStatus::kSuccess) throw_wc("rndv", r.status);
      if (r.msg.type == type &&
          (&side == &cli_ || r.msg.len <= cfg_.max_msg))
        co_return r.msg;
    }
  }

  /// The server half of `slot`'s calls, looping for the slot's next
  /// request until a failed completion ends it.
  sim::Task<void> serve_slot(uint32_t slot) {
    const size_t off = slot * size_t(cfg_.max_msg);
    try {
      for (;;) {
        const RMsg rts = co_await expect(srv_, slot, kRts);
        uint32_t req_len = rts.len;
        if (kind_ == ProtocolKind::kWriteRndv) {
          co_await send_ctrl(srv_, slot, kCts, req_len,
                             srv_payload_->remote(off));
          req_len = (co_await expect(srv_, slot, kData)).len;
        } else {
          co_await sep_.qp->post_send(verbs::SendWr{
              .wr_id = slot,
              .opcode = verbs::Opcode::kRead,
              .local = {srv_payload_->data() + off, req_len},
              .remote = rts.addr});
          co_await expect(srv_, slot, kReadDone);
        }

        Buffer resp = (co_await run_handler(
                           View{srv_payload_->data() + off, req_len}))
                          .take();
        if (resp.size() > cfg_.max_msg) {
          // Fail just this call: the response RTS' announces the oversize
          // mark, and neither side moves a payload or sends CTS/FIN for it.
          co_await send_ctrl(srv_, slot, kRts, kOversized, {});
          continue;
        }
        const uint32_t rlen = static_cast<uint32_t>(resp.size());
        copy_bytes(srv_resp_src_->data() + off, resp.data(), resp.size());

        if (kind_ == ProtocolKind::kWriteRndv) {
          co_await send_ctrl(srv_, slot, kRts, rlen, {});
          const RMsg cts = co_await expect(srv_, slot, kCts);
          co_await sep_.qp->post_send(verbs::SendWr{
              .opcode = verbs::Opcode::kWriteImm,
              .local = {srv_resp_src_->data() + off, rlen},
              .remote = cts.addr,
              .imm = slot_imm(slot, rlen),
              .signaled = false});
        } else {
          co_await send_ctrl(srv_, slot, kRts, rlen,
                             srv_resp_src_->remote(off));
          // Wait FIN before reusing the response buffer.
          co_await expect(srv_, slot, kFin);
        }
      }
    } catch (const RpcError&) {
      // A failed completion ends the server's side; the client learns of it
      // from its own completions.
    }
  }

  void post_ctrl_recv(Side& side, uint32_t idx) {
    side.ep.qp->post_recv(verbs::RecvWr{
        .wr_id = idx,
        .buf = {side.ring->data() + static_cast<size_t>(idx) * kCtrlBytes,
                kCtrlBytes}});
  }

  verbs::MemoryRegion* cli_payload_ = nullptr;
  verbs::MemoryRegion* cli_resp_buf_ = nullptr;
  verbs::MemoryRegion* srv_payload_ = nullptr;
  verbs::MemoryRegion* srv_resp_src_ = nullptr;
  uint32_t ctrl_slots_ = 0;
  Side cli_;
  Side srv_;
};

}  // namespace hatrpc::proto
