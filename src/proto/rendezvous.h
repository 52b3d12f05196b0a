// Rendezvous protocols (Figs. 3d/3e): the peers first exchange payload
// metadata over small control messages, then move the payload zero-copy
// with a one-sided operation. Extra control round trips cost latency, but
// no slot copies and no per-connection max-size reservations — the MPI
// work-horses for large messages and memory-efficient scaling.
//
//   Write-RNDV: RTS -> CTS(receiver buffer) -> WRITE_WITH_IMM payload
//   Read-RNDV:  RTS(sender buffer) -> receiver READs payload -> FIN
//
// Pipelining (window > 1): payload pools become per-slot rings, control
// messages carry the slot, and each side runs a recv-CQ dispatcher that
// routes control/imm/read completions into per-slot mailboxes — the client
// side feeding in-flight do_call()s, the server side feeding one worker
// task per slot so handlers run concurrently. window=1 keeps the classic
// sequential state machine (and its 20-byte ctrl frames) unchanged.
#pragma once

#include "proto/base.h"
#include "proto/error.h"

namespace hatrpc::proto {

class RendezvousChannel : public ChannelBase {
 protected:
  sim::Task<Buffer> do_call(View req, uint32_t /*resp_size_hint*/) override {
    if (req.size() > cfg_.max_msg)
      throw std::length_error("rendezvous: request exceeds payload pool");
    if (cfg_.window > 1) co_return co_await do_call_w(req);
    copy_bytes(cli_payload_->data(), req.data(), req.size());
    const uint32_t len = static_cast<uint32_t>(req.size());

    if (kind_ == ProtocolKind::kWriteRndv) {
      // RTS -> wait CTS -> WRITE_IMM payload into the server's buffer.
      co_await send_ctrl(cep_, cli_ctrl_src_, kRts, len, {});
      Ctrl cts = co_await recv_ctrl(cep_, cli_ctrl_ring_);
      ++stats_.write_imms;
      co_await cep_.qp->post_send(verbs::SendWr{
          .opcode = verbs::Opcode::kWriteImm,
          .local = {cli_payload_->data(), len},
          .remote = cts.addr,
          .imm = len,
          .signaled = false});
      // Response (reverse Write-RNDV): RTS' -> we reply CTS -> recv-imm.
      Ctrl rts = co_await recv_ctrl(cep_, cli_ctrl_ring_);
      check_reply_len(rts.len);
      co_await send_ctrl(cep_, cli_ctrl_src_, kCts, rts.len,
                         cli_resp_buf_->remote(0));
      verbs::Wc wc = co_await cep_.recv_wc();
      if (!wc.ok()) throw_wc("rndv recv-imm", wc.status);
      repost_from_wc(cep_, cli_ctrl_ring_, wc);
      const std::byte* p = cli_resp_buf_->data();
      co_return Buffer(p, p + wc.imm);
    }

    // Read-RNDV: RTS carries our buffer; the server READs the request.
    co_await send_ctrl(cep_, cli_ctrl_src_, kRts, len,
                       cli_payload_->remote(0));
    // Server processes, then announces its response buffer.
    Ctrl rts = co_await recv_ctrl(cep_, cli_ctrl_ring_);
    check_reply_len(rts.len);
    ++stats_.reads;
    co_await cep_.qp->post_send(verbs::SendWr{.wr_id = 1,
                                              .opcode = verbs::Opcode::kRead,
                                              .local = {cli_resp_buf_->data(),
                                                        rts.len},
                                              .remote = rts.addr});
    verbs::Wc rwc = co_await cep_.send_wc();
    if (!rwc.ok()) throw_wc("rndv read", rwc.status);
    // FIN releases the server's response buffer for the next call.
    co_await send_ctrl(cep_, cli_ctrl_src_, kFin, 0, {});
    const std::byte* p = cli_resp_buf_->data();
    co_return Buffer(p, p + rts.len);
  }

  sim::Task<void> serve() override {
    if (cfg_.window > 1) {
      for (uint32_t s = 0; s < cfg_.window; ++s) sim_.spawn(serve_slot_w(s));
      co_await recv_dispatch(sep_, srv_ctrl_ring_, srv_mail_,
                             /*client_side=*/false);
      co_return;
    }
    while (!stop_) {
      // Request arrival.
      uint32_t req_len = 0;
      if (kind_ == ProtocolKind::kWriteRndv) {
        Ctrl rts = co_await recv_ctrl(sep_, srv_ctrl_ring_, /*eof_ok=*/true);
        if (stop_ || rts.type != kRts) break;
        co_await send_ctrl(sep_, srv_ctrl_src_, kCts, rts.len,
                           srv_payload_->remote(0));
        verbs::Wc wc = co_await sep_.recv_wc();
        if (!wc.ok()) break;
        repost_from_wc(sep_, srv_ctrl_ring_, wc);
        req_len = wc.imm;
      } else {
        Ctrl rts = co_await recv_ctrl(sep_, srv_ctrl_ring_, /*eof_ok=*/true);
        if (stop_ || rts.type != kRts) break;
        ++stats_.reads;
        co_await sep_.qp->post_send(verbs::SendWr{
            .wr_id = 2,
            .opcode = verbs::Opcode::kRead,
            .local = {srv_payload_->data(), rts.len},
            .remote = rts.addr});
        verbs::Wc rwc = co_await sep_.send_wc();
        if (!rwc.ok()) break;
        req_len = rts.len;
      }

      Buffer resp =
          (co_await run_handler(View{srv_payload_->data(), req_len})).take();
      if (resp.size() > cfg_.max_msg) {
        // Fail just this call: the response RTS' announces the oversize
        // mark, and neither side moves a payload or sends CTS/FIN for it.
        co_await send_ctrl(sep_, srv_ctrl_src_, kRts, kOversized, {});
        continue;
      }
      const uint32_t rlen = static_cast<uint32_t>(resp.size());
      copy_bytes(srv_resp_src_->data(), resp.data(), resp.size());

      if (kind_ == ProtocolKind::kWriteRndv) {
        co_await send_ctrl(sep_, srv_ctrl_src_, kRts, rlen, {});
        Ctrl cts = co_await recv_ctrl(sep_, srv_ctrl_ring_, /*eof_ok=*/true);
        if (stop_ || cts.type != kCts) break;
        ++stats_.write_imms;
        co_await sep_.qp->post_send(verbs::SendWr{
            .opcode = verbs::Opcode::kWriteImm,
            .local = {srv_resp_src_->data(), rlen},
            .remote = cts.addr,
            .imm = rlen,
            .signaled = false});
      } else {
        co_await send_ctrl(sep_, srv_ctrl_src_, kRts, rlen,
                           srv_resp_src_->remote(0));
        // Wait FIN before reusing the response buffer.
        Ctrl fin = co_await recv_ctrl(sep_, srv_ctrl_ring_, /*eof_ok=*/true);
        if (stop_ || fin.type != kFin) break;
      }
    }
  }

  void start() override {
    ChannelBase::start();
    if (cfg_.window > 1) {
      sim_.spawn(recv_dispatch(cep_, cli_ctrl_ring_, cli_mail_,
                               /*client_side=*/true));
      if (kind_ == ProtocolKind::kReadRndv) {
        // Only READs are signaled; WriteRndv has nothing on the send CQs.
        sim_.spawn(send_dispatch(cep_, cli_mail_, /*client_side=*/true));
        sim_.spawn(send_dispatch(sep_, srv_mail_, /*client_side=*/false));
      }
    }
  }

 private:
  RendezvousChannel(ProtocolKind kind, verbs::Node& client,
                    verbs::Node& server, Handler handler, ChannelConfig cfg)
      : ChannelBase(kind, client, server, std::move(handler), cfg) {
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
    cli_ctrl_ring_ = alloc_client_mr(kCtrlBytes * ctrl_slots_);
    srv_ctrl_ring_ = alloc_server_mr(kCtrlBytes * ctrl_slots_);
    for (uint32_t i = 0; i < ctrl_slots_; ++i) {
      post_ctrl_recv(cep_, cli_ctrl_ring_, i);
      post_ctrl_recv(sep_, srv_ctrl_ring_, i);
    }
    if (w > 1) {
      for (uint32_t s = 0; s < w; ++s) {
        cli_mail_.push_back(std::make_unique<sim::Channel<RMsg>>(sim_));
        srv_mail_.push_back(std::make_unique<sim::Channel<RMsg>>(sim_));
      }
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
    uint32_t slot = 0;
  };

  /// What a dispatcher routes into a slot mailbox.
  struct RMsg {
    enum Kind : uint8_t { kCtrlMsg, kData, kReadDone, kErr };
    Kind kind = kCtrlMsg;
    Ctrl ctrl{};
    uint32_t len = 0;  // kData: payload length from the imm
    verbs::WcStatus status = verbs::WcStatus::kSuccess;
  };
  using Mailboxes = std::vector<std::unique_ptr<sim::Channel<RMsg>>>;

  sim::Task<void> send_ctrl(verbs::Endpoint& ep, verbs::MemoryRegion* src,
                            uint32_t type, uint32_t len,
                            verbs::RemoteAddr addr) {
    ++stats_.sends;
    uint32_t& seq = &ep == &cep_ ? cli_ctrl_seq_ : srv_ctrl_seq_;
    std::byte* p = src->data() +
                   static_cast<size_t>(seq++ % ctrl_slots_) * kCtrlBytes;
    put_u32(p, type);
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

  sim::Task<Ctrl> recv_ctrl(verbs::Endpoint& ep, verbs::MemoryRegion* ring,
                            bool eof_ok = false) {
    verbs::Wc wc = co_await ep.recv_wc();
    if (!wc.ok()) {
      if (eof_ok) co_return Ctrl{};
      throw_wc("rndv ctrl", wc.status);
    }
    const std::byte* p =
        ring->data() + static_cast<size_t>(wc.wr_id) * kCtrlBytes;
    Ctrl c{get_u32(p), get_u32(p + 4), {get_u64(p + 8), get_u32(p + 16)}};
    repost_from_wc(ep, ring, wc);
    co_return c;
  }

  // ---- Windowed path ----------------------------------------------------

  /// 24-byte ctrl frame: the classic 20 bytes plus the window slot.
  sim::Task<void> send_ctrl_w(verbs::Endpoint& ep, verbs::MemoryRegion* src,
                              uint32_t type, uint32_t len,
                              verbs::RemoteAddr addr, uint32_t slot) {
    ++stats_.sends;
    uint32_t& seq = &ep == &cep_ ? cli_ctrl_seq_ : srv_ctrl_seq_;
    std::byte* p = src->data() +
                   static_cast<size_t>(seq++ % ctrl_slots_) * kCtrlBytes;
    put_u32(p, type);
    put_u32(p + 4, len);
    put_u64(p + 8, addr.addr);
    put_u32(p + 16, addr.rkey);
    put_u32(p + 20, slot);
    co_await ep.qp->post_send(verbs::SendWr{.opcode = verbs::Opcode::kSend,
                                            .local = {p, 24},
                                            .signaled = false});
  }

  sim::Task<void> recv_dispatch(verbs::Endpoint& ep,
                                verbs::MemoryRegion* ring, Mailboxes& mail,
                                bool client_side) {
    for (;;) {
      auto wcs = co_await ep.recv_wcs(cfg_.window);
      for (verbs::Wc& wc : wcs) {
        if (!wc.ok()) {
          if (client_side) mark_dead(wc.status);
          fail_mail(mail, wc.status);
          co_return;
        }
        if (wc.opcode == verbs::WcOpcode::kRecvImm) {
          repost_from_wc(ep, ring, wc);
          RMsg m;
          m.kind = RMsg::kData;
          m.len = imm_len(wc.imm);
          mail[imm_slot(wc.imm)]->push(m);
          continue;
        }
        const std::byte* p =
            ring->data() + static_cast<size_t>(wc.wr_id) * kCtrlBytes;
        RMsg m;
        m.kind = RMsg::kCtrlMsg;
        m.ctrl = Ctrl{get_u32(p), get_u32(p + 4),
                      {get_u64(p + 8), get_u32(p + 16)}, get_u32(p + 20)};
        repost_from_wc(ep, ring, wc);
        mail[m.ctrl.slot]->push(m);
      }
    }
  }

  /// Routes signaled READ completions (wr_id = slot) back to their slot.
  sim::Task<void> send_dispatch(verbs::Endpoint& ep, Mailboxes& mail,
                                bool client_side) {
    for (;;) {
      auto wcs = co_await ep.send_wcs(cfg_.window);
      for (verbs::Wc& wc : wcs) {
        if (!wc.ok()) {
          if (client_side) mark_dead(wc.status);
          fail_mail(mail, wc.status);
          co_return;
        }
        RMsg m;
        m.kind = RMsg::kReadDone;
        mail[wc.wr_id]->push(m);
      }
    }
  }

  void fail_mail(Mailboxes& mail, verbs::WcStatus st) {
    for (auto& m : mail) {
      RMsg e;
      e.kind = RMsg::kErr;
      e.status = st;
      m->push(e);
    }
  }

  sim::Task<RMsg> expect(uint32_t slot) {
    auto m = co_await cli_mail_[slot]->pop();
    if (!m || m->kind == RMsg::kErr)
      throw_wc("rndv", m ? m->status : verbs::WcStatus::kWrFlushErr);
    co_return *m;
  }

  sim::Task<Buffer> do_call_w(View req) {
    uint32_t slot = co_await acquire_slot();
    if (dead_) {
      release_slot(slot);
      throw_wc("rndv", dead_status_);
    }
    try {
      Buffer out = co_await run_call_w(slot, req);
      release_slot(slot);
      co_return out;
    } catch (...) {
      release_slot(slot);
      throw;
    }
  }

  sim::Task<Buffer> run_call_w(uint32_t slot, View req) {
    const size_t off = slot * size_t(cfg_.max_msg);
    const uint32_t len = static_cast<uint32_t>(req.size());
    copy_bytes(cli_payload_->data() + off, req.data(), req.size());

    if (kind_ == ProtocolKind::kWriteRndv) {
      co_await send_ctrl_w(cep_, cli_ctrl_src_, kRts, len, {}, slot);
      RMsg cts = co_await expect(slot);  // kCts with the server's buffer
      ++stats_.write_imms;
      co_await cep_.qp->post_send(verbs::SendWr{
          .opcode = verbs::Opcode::kWriteImm,
          .local = {cli_payload_->data() + off, len},
          .remote = cts.ctrl.addr,
          .imm = slot_imm(slot, len),
          .signaled = false});
      RMsg rts = co_await expect(slot);  // server's response RTS'
      check_reply_len(rts.ctrl.len);
      co_await send_ctrl_w(cep_, cli_ctrl_src_, kCts, rts.ctrl.len,
                           cli_resp_buf_->remote(off), slot);
      RMsg data = co_await expect(slot);  // response WRITE_IMM landed
      const std::byte* p = cli_resp_buf_->data() + off;
      co_return Buffer(p, p + data.len);
    }

    // Read-RNDV.
    co_await send_ctrl_w(cep_, cli_ctrl_src_, kRts, len,
                         cli_payload_->remote(off), slot);
    RMsg rts = co_await expect(slot);  // server's response RTS'
    check_reply_len(rts.ctrl.len);
    ++stats_.reads;
    co_await cep_.qp->post_send(verbs::SendWr{
        .wr_id = slot,
        .opcode = verbs::Opcode::kRead,
        .local = {cli_resp_buf_->data() + off, rts.ctrl.len},
        .remote = rts.ctrl.addr});
    co_await expect(slot);  // kReadDone
    co_await send_ctrl_w(cep_, cli_ctrl_src_, kFin, 0, {}, slot);
    const std::byte* p = cli_resp_buf_->data() + off;
    co_return Buffer(p, p + rts.ctrl.len);
  }

  /// One server worker per window slot: pops its mailbox, runs the
  /// protocol's server half, and loops for the slot's next request.
  sim::Task<void> serve_slot_w(uint32_t slot) {
    const size_t off = slot * size_t(cfg_.max_msg);
    for (;;) {
      auto m0 = co_await srv_mail_[slot]->pop();
      if (!m0 || m0->kind != RMsg::kCtrlMsg || m0->ctrl.type != kRts) co_return;
      uint32_t req_len = 0;
      if (kind_ == ProtocolKind::kWriteRndv) {
        co_await send_ctrl_w(sep_, srv_ctrl_src_, kCts, m0->ctrl.len,
                             srv_payload_->remote(off), slot);
        auto data = co_await srv_mail_[slot]->pop();
        if (!data || data->kind != RMsg::kData) co_return;
        req_len = data->len;
      } else {
        ++stats_.reads;
        co_await sep_.qp->post_send(verbs::SendWr{
            .wr_id = slot,
            .opcode = verbs::Opcode::kRead,
            .local = {srv_payload_->data() + off, m0->ctrl.len},
            .remote = m0->ctrl.addr});
        auto done = co_await srv_mail_[slot]->pop();
        if (!done || done->kind != RMsg::kReadDone) co_return;
        req_len = m0->ctrl.len;
      }

      Buffer resp = (co_await run_handler(
                         View{srv_payload_->data() + off, req_len}))
                        .take();
      if (resp.size() > cfg_.max_msg) {
        co_await send_ctrl_w(sep_, srv_ctrl_src_, kRts, kOversized, {}, slot);
        continue;
      }
      copy_bytes(srv_resp_src_->data() + off, resp.data(), resp.size());
      const uint32_t rlen = static_cast<uint32_t>(resp.size());

      if (kind_ == ProtocolKind::kWriteRndv) {
        co_await send_ctrl_w(sep_, srv_ctrl_src_, kRts, rlen, {}, slot);
        auto cts = co_await srv_mail_[slot]->pop();
        if (!cts || cts->kind != RMsg::kCtrlMsg || cts->ctrl.type != kCts)
          co_return;
        ++stats_.write_imms;
        co_await sep_.qp->post_send(verbs::SendWr{
            .opcode = verbs::Opcode::kWriteImm,
            .local = {srv_resp_src_->data() + off, rlen},
            .remote = cts->ctrl.addr,
            .imm = slot_imm(slot, rlen),
            .signaled = false});
      } else {
        co_await send_ctrl_w(sep_, srv_ctrl_src_, kRts, rlen,
                             srv_resp_src_->remote(off), slot);
        auto fin = co_await srv_mail_[slot]->pop();
        if (!fin || fin->kind != RMsg::kCtrlMsg || fin->ctrl.type != kFin)
          co_return;
      }
    }
  }

  void post_ctrl_recv(verbs::Endpoint& ep, verbs::MemoryRegion* ring,
                      uint32_t idx) {
    ep.qp->post_recv(verbs::RecvWr{
        .wr_id = idx,
        .buf = {ring->data() + static_cast<size_t>(idx) * kCtrlBytes,
                kCtrlBytes}});
  }

  void repost_from_wc(verbs::Endpoint& ep, verbs::MemoryRegion* ring,
                      const verbs::Wc& wc) {
    post_ctrl_recv(ep, ring, static_cast<uint32_t>(wc.wr_id));
  }

  verbs::MemoryRegion* cli_payload_ = nullptr;
  verbs::MemoryRegion* cli_resp_buf_ = nullptr;
  verbs::MemoryRegion* srv_payload_ = nullptr;
  verbs::MemoryRegion* srv_resp_src_ = nullptr;
  verbs::MemoryRegion* cli_ctrl_src_ = nullptr;
  verbs::MemoryRegion* srv_ctrl_src_ = nullptr;
  verbs::MemoryRegion* cli_ctrl_ring_ = nullptr;
  verbs::MemoryRegion* srv_ctrl_ring_ = nullptr;
  uint32_t cli_ctrl_seq_ = 0;
  uint32_t srv_ctrl_seq_ = 0;
  uint32_t ctrl_slots_ = 0;
  Mailboxes cli_mail_;
  Mailboxes srv_mail_;
};

}  // namespace hatrpc::proto
