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
// byte, in a READ's wr_id). The server runs one worker per slot. With one
// slot there is one waiter per side, so each side polls its own CQs and the
// server runs the handler inline; with more, each side's Router drains its
// recv CQ (and, for Read-RNDV, its send CQ) into the slots' mailboxes.
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
      co_await send_ctrl(cep_, cli_ctrl_src_, slot, kRts, len, {});
      RMsg cts = co_await expect(slot);
      ++stats_.write_imms;
      co_await cep_.qp->post_send(verbs::SendWr{
          .opcode = verbs::Opcode::kWriteImm,
          .local = {cli_payload_->data() + off, len},
          .remote = cts.ctrl.addr,
          .imm = slot_imm(slot, len),
          .signaled = false});
      // Response (reverse Write-RNDV): RTS' -> we reply CTS -> recv-imm.
      RMsg rts = co_await expect(slot);
      check_reply_len(rts.ctrl.len);
      co_await send_ctrl(cep_, cli_ctrl_src_, slot, kCts, rts.ctrl.len,
                         cli_resp_buf_->remote(off));
      RMsg data = co_await expect(slot);
      const std::byte* p = cli_resp_buf_->data() + off;
      co_return Buffer(p, p + data.len);
    }

    // Read-RNDV: RTS carries our buffer; the server READs the request,
    // processes it, then announces its response buffer.
    co_await send_ctrl(cep_, cli_ctrl_src_, slot, kRts, len,
                       cli_payload_->remote(off));
    RMsg rts = co_await expect(slot);
    check_reply_len(rts.ctrl.len);
    ++stats_.reads;
    co_await cep_.qp->post_send(verbs::SendWr{
        .wr_id = slot,
        .opcode = verbs::Opcode::kRead,
        .local = {cli_resp_buf_->data() + off, rts.ctrl.len},
        .remote = rts.ctrl.addr});
    co_await expect(slot, /*read=*/true);
    // FIN releases the server's response buffer for the slot's next call.
    co_await send_ctrl(cep_, cli_ctrl_src_, slot, kFin, 0, {});
    const std::byte* p = cli_resp_buf_->data() + off;
    co_return Buffer(p, p + rts.ctrl.len);
  }

  sim::Task<void> serve() override {
    if (one_slot()) {
      co_await serve_slot(0);
      co_return;
    }
    for (uint32_t s = 0; s < cfg_.window; ++s) sim_.spawn(serve_slot(s));
    co_await drain(srv_, /*sends=*/false);
  }

  void start() override {
    ChannelBase::start();
    if (one_slot()) return;
    sim_.spawn(drain(cli_, /*sends=*/false));
    if (kind_ == ProtocolKind::kReadRndv) {
      // Only READs are signaled; WriteRndv has nothing on the send CQs.
      sim_.spawn(drain(cli_, /*sends=*/true));
      sim_.spawn(drain(srv_, /*sends=*/true));
    }
  }

 private:
  RendezvousChannel(ProtocolKind kind, verbs::Node& client,
                    verbs::Node& server, Handler handler, ChannelConfig cfg)
      : ChannelBase(kind, client, server, std::move(handler), cfg),
        cli_{cep_, nullptr, Router<RMsg>(*this, routed_slots())},
        srv_{sep_, nullptr, Router<RMsg>(*this, routed_slots())} {
    if (cfg_.max_msg > kLenMask)
      throw std::length_error("rendezvous: max_msg exceeds the 24-bit imm "
                              "length field");
    const size_t stride = cfg_.max_msg;
    const uint32_t w = cfg_.window;
    cli_payload_ = alloc_client_mr(stride * w);
    cli_resp_buf_ = alloc_client_mr(stride * w);
    srv_payload_ = alloc_server_mr(stride * w);
    srv_resp_src_ = alloc_server_mr(stride * w);
    // Ctrl SENDs are unsignaled and the payload is copied out in flight, so
    // the source slots rotate: reusing one buffer would let a later message
    // overwrite an earlier one that is still on the wire (FIN chased by the
    // next call's RTS). With a window, several calls keep ctrl messages in
    // flight at once, so the rings scale with the window too.
    ctrl_slots_ = std::max(cfg_.eager_slots, 4 * w);
    cli_ctrl_src_ = alloc_client_mr(kCtrlBytes * ctrl_slots_);
    srv_ctrl_src_ = alloc_server_mr(kCtrlBytes * ctrl_slots_);
    cli_.ring = alloc_client_mr(kCtrlBytes * ctrl_slots_);
    srv_.ring = alloc_server_mr(kCtrlBytes * ctrl_slots_);
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
  /// Length a response RTS' announces for a reply past max_msg.
  static constexpr uint32_t kOversized = UINT32_MAX;

  struct Ctrl {
    uint32_t type = 0;
    uint32_t len = 0;
    verbs::RemoteAddr addr{};
  };

  /// One decoded completion for a slot.
  struct RMsg {
    enum Kind : uint8_t { kCtrlMsg, kData, kReadDone };
    Kind kind = kCtrlMsg;
    Ctrl ctrl{};
    uint32_t len = 0;  // kData: payload length from the imm
  };
  using Routed = Router<RMsg>::Routed;

  /// One side: its endpoint, the ring its ctrl frames land in, its router.
  struct Side {
    verbs::Endpoint& ep;
    verbs::MemoryRegion* ring;
    Router<RMsg> mail;
  };

  /// Sends a 20-byte ctrl frame: [slot << 24 | type][len][addr][rkey].
  sim::Task<void> send_ctrl(verbs::Endpoint& ep, verbs::MemoryRegion* src,
                            uint32_t slot, uint32_t type, uint32_t len,
                            verbs::RemoteAddr addr) {
    ++stats_.sends;
    uint32_t& seq = &ep == &cep_ ? cli_ctrl_seq_ : srv_ctrl_seq_;
    std::byte* p = src->data() +
                   static_cast<size_t>(seq++ % ctrl_slots_) * kCtrlBytes;
    put_u32(p, slot_imm(slot, type));
    put_u32(p + 4, len);
    put_u64(p + 8, addr.addr);
    put_u32(p + 16, addr.rkey);
    co_await ep.qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kSend,
                                            .local = {p, 20},
                                            .signaled = false});
  }

  /// Fails the call whose response RTS' announced the oversize mark.
  static void check_reply_len(uint32_t len) {
    if (len == kOversized)
      throw std::length_error("rendezvous: response exceeds payload pool");
  }

  /// Decodes one completion on `side`, reposting the ctrl recv it consumed;
  /// a length off the wire past max_msg (bar the oversize mark) fails it.
  Routed decode(Side& side, const verbs::Wc& wc) {
    if (!wc.ok()) return {.status = wc.status};
    if (wc.opcode == verbs::WcOpcode::kRdmaRead)
      return {.slot = uint32_t(wc.wr_id), .msg = {.kind = RMsg::kReadDone}};
    Routed r{.slot = imm_slot(wc.imm),
             .msg = {.kind = RMsg::kData, .len = imm_len(wc.imm)}};
    if (wc.opcode != verbs::WcOpcode::kRecvImm) {
      const std::byte* p =
          side.ring->data() + static_cast<size_t>(wc.wr_id) * kCtrlBytes;
      r = {.slot = imm_slot(get_u32(p)),
           .msg = {.ctrl = {imm_len(get_u32(p)), get_u32(p + 4),
                            {get_u64(p + 8), get_u32(p + 16)}}}};
    }
    post_ctrl_recv(side, static_cast<uint32_t>(wc.wr_id));
    const uint32_t ctrl_len = r.msg.ctrl.len == kOversized ? 0 : r.msg.ctrl.len;
    if (std::max(r.msg.len, ctrl_len) > cfg_.max_msg)
      return {.status = verbs::WcStatus::kLocLenErr};
    return r;
  }

  /// The next message for `slot` on `side`: its READ's completion when
  /// `read`, else a ctrl frame or payload, or the status a completion there
  /// failed with. With one slot the caller is the side's only waiter, so it
  /// polls its own CQ; with more, it awaits the slot's mailbox.
  sim::Task<Routed> next(Side& side, uint32_t slot, bool read) {
    if (one_slot()) {
      verbs::Wc wc;
      if (read)
        wc = co_await side.ep.send_wc();
      else
        wc = co_await side.ep.recv_wc();
      co_return decode(side, wc);
    }
    std::optional<RMsg> m = co_await side.mail.next(slot);
    if (!m) co_return Routed{.status = dead_status_};
    co_return Routed{.slot = slot, .msg = *m};
  }

  /// Whether `r` is a `kind` message (a ctrl frame of `type`), not a failure.
  static bool got(const Routed& r, RMsg::Kind kind, uint32_t type = 0) {
    return r.status == verbs::WcStatus::kSuccess && r.msg.kind == kind &&
           (kind != RMsg::kCtrlMsg || r.msg.ctrl.type == type);
  }

  /// The client's next message for `slot`; a failed completion fails the
  /// call.
  sim::Task<RMsg> expect(uint32_t slot, bool read = false) {
    const Routed r = co_await next(cli_, slot, read);
    if (r.status != verbs::WcStatus::kSuccess) throw_wc("rndv", r.status);
    co_return r.msg;
  }

  /// Drains `side`'s recv CQ (its send CQ when `sends`) into its router.
  sim::Task<void> drain(Side& side, bool sends) {
    return side.mail.drain(
        [&ep = side.ep, sends, n = cfg_.window] {
          return sends ? ep.send_wcs(n) : ep.recv_wcs(n);
        },
        [this, &side](const verbs::Wc& wc) { return decode(side, wc); });
  }

  /// The server half of `slot`'s calls, looping for the slot's next
  /// request until its completions stop.
  sim::Task<void> serve_slot(uint32_t slot) {
    const size_t off = slot * size_t(cfg_.max_msg);
    for (;;) {
      const Routed rts = co_await next(srv_, slot, false);
      if (!got(rts, RMsg::kCtrlMsg, kRts)) co_return;
      uint32_t req_len = 0;
      if (kind_ == ProtocolKind::kWriteRndv) {
        co_await send_ctrl(sep_, srv_ctrl_src_, slot, kCts, rts.msg.ctrl.len,
                           srv_payload_->remote(off));
        const Routed data = co_await next(srv_, slot, false);
        if (!got(data, RMsg::kData)) co_return;
        req_len = data.msg.len;
      } else {
        ++stats_.reads;
        co_await sep_.qp->post_send(verbs::SendWr{
            .wr_id = slot,
            .opcode = verbs::Opcode::kRead,
            .local = {srv_payload_->data() + off, rts.msg.ctrl.len},
            .remote = rts.msg.ctrl.addr});
        if (!got(co_await next(srv_, slot, true), RMsg::kReadDone)) co_return;
        req_len = rts.msg.ctrl.len;
      }

      Buffer resp = (co_await run_handler(
                         View{srv_payload_->data() + off, req_len}))
                        .take();
      if (resp.size() > cfg_.max_msg) {
        // Fail just this call: the response RTS' announces the oversize
        // mark, and neither side moves a payload or sends CTS/FIN for it.
        co_await send_ctrl(sep_, srv_ctrl_src_, slot, kRts, kOversized, {});
        continue;
      }
      const uint32_t rlen = static_cast<uint32_t>(resp.size());
      copy_bytes(srv_resp_src_->data() + off, resp.data(), resp.size());

      if (kind_ == ProtocolKind::kWriteRndv) {
        co_await send_ctrl(sep_, srv_ctrl_src_, slot, kRts, rlen, {});
        const Routed cts = co_await next(srv_, slot, false);
        if (!got(cts, RMsg::kCtrlMsg, kCts)) co_return;
        ++stats_.write_imms;
        co_await sep_.qp->post_send(verbs::SendWr{
            .opcode = verbs::Opcode::kWriteImm,
            .local = {srv_resp_src_->data() + off, rlen},
            .remote = cts.msg.ctrl.addr,
            .imm = slot_imm(slot, rlen),
            .signaled = false});
      } else {
        co_await send_ctrl(sep_, srv_ctrl_src_, slot, kRts, rlen,
                           srv_resp_src_->remote(off));
        // Wait FIN before reusing the response buffer.
        if (!got(co_await next(srv_, slot, false), RMsg::kCtrlMsg, kFin))
          co_return;
      }
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
  verbs::MemoryRegion* cli_ctrl_src_ = nullptr;
  verbs::MemoryRegion* srv_ctrl_src_ = nullptr;
  uint32_t cli_ctrl_seq_ = 0;
  uint32_t srv_ctrl_seq_ = 0;
  uint32_t ctrl_slots_ = 0;
  Side cli_;
  Side srv_;
};

}  // namespace hatrpc::proto
