// Server-bypass / comparator protocols (Figs. 3g-3i and the §5.4
// emulations). Request delivery is a one-sided WRITE into a pre-known
// server slot; the response is fetched by the CLIENT with RDMA READs, so
// the server NIC serves responses without server CPU posts (in-bound RDMA
// is much cheaper for the server than out-bound — the RFP insight).
//
//   Pilaf: 2 metadata READs + 1 payload READ per call (the paper's ~3.2
//          READs/GET emulated as exactly 3 when ready on first probe);
//   FaRM:  1 metadata READ + 1 payload READ;
//   RFP:   1 READ fetching metadata+payload together (sized by the caller's
//          response-size hint; undersized fetches pay a second READ);
//   HERD:  WRITE request + SEND response (two-sided response path).
//
// With a busy-polling server the request WRITE is detected by CPU memory
// polling (no completion); with an event server the request is sent as
// WRITE_WITH_IMM so an interrupt can be raised.
//
// Call windows: the request slot, the export region and the client's read
// buffer are rings of per-slot strides. The busy server scans every slot
// per wakeup (one pickup charge per detected batch); the event server
// recovers the slot from the imm tag. Client READs are tagged wr_id=slot.
// The waiting callers take turns sweeping the client's send CQ (HERD: the
// response pipe), and the Router hands each completion to the call holding
// its slot, so concurrent fetches never steal each other's completions.
// With one slot the server runs the handler inline; with more, it spawns a
// handler per ready slot.
#pragma once

#include "proto/base.h"
#include "proto/eager_pipe.h"
#include "proto/error.h"

namespace hatrpc::proto {

class BypassChannel : public ChannelBase {
 protected:
  sim::Task<Buffer> do_call(View req, uint32_t resp_size_hint) override {
    if (req.size() > cfg_.max_msg)
      throw std::length_error("bypass protocol: request exceeds slot");
    const uint32_t slot = co_await acquire_slot();
    const SlotGuard held(*this, slot);
    if (dead_) throw_wc("bypass", dead_status_);
    const uint64_t seq = ++seq_;
    // Request: [u64 seq][u32 len][payload] written into the server slot.
    std::byte* p = cli_req_src_->data() + size_t(slot) * req_stride_;
    put_u64(p, seq);
    put_u32(p + 8, static_cast<uint32_t>(req.size()));
    const uint32_t wire = kReqHdr + static_cast<uint32_t>(req.size());
    copy_bytes(p + kReqHdr, req.data(), req.size());
    verbs::SendWr wr;
    wr.local = {p, wire};
    wr.remote = srv_req_slot_->remote(size_t(slot) * req_stride_);
    wr.signaled = false;
    if (event_server()) {
      wr.opcode = verbs::Opcode::kWriteImm;
      wr.imm = slot_imm(slot, wire);
    } else {
      wr.opcode = verbs::Opcode::kWrite;
    }
    co_await cep_.qp->post_send(std::move(wr));

    if (kind_ != ProtocolKind::kHerd)
      co_return co_await fetch_response(slot, seq, resp_size_hint);
    while (co_await mail_.turn(slot))
      mail_.sweep(co_await resp_pipe_->recv(), [this](std::optional<Buffer>& m) {
        return untag(*resp_pipe_, m);
      });
    Routed r = mail_.take(slot);
    if (r.status != verbs::WcStatus::kSuccess) throw_wc("herd recv", r.status);
    co_return std::move(r.msg);
  }

  sim::Task<void> serve() override {
    return event_server() ? serve_event() : serve_busy();
  }

  void extra_shutdown() override { watch_.notify_all(); }

 private:
  BypassChannel(ProtocolKind kind, verbs::Node& client, verbs::Node& server,
                Handler handler, ChannelConfig cfg)
      : ChannelBase(kind, client, server, std::move(handler), cfg),
        watch_(client.fabric().simulator()),
        srv_send_mu_(client.fabric().simulator()),
        mail_(*this) {
    const uint32_t w = cfg_.window;
    req_stride_ = kReqHdr + cfg_.max_msg;
    exp_stride_ = kExportHdr + cfg_.max_msg;
    if (event_server() && req_stride_ > kLenMask)
      throw std::length_error("bypass protocol: max_msg exceeds the 24-bit "
                              "imm length field");
    // Each stride's header is polled before the first write lands in it.
    auto zero_headers = [w](verbs::MemoryRegion* mr, uint32_t stride,
                            uint32_t hdr) {
      for (uint32_t s = 0; s < w; ++s)
        std::memset(mr->data() + size_t(s) * stride, 0, hdr);
    };
    cli_req_src_ = cl_.pd().alloc_mr(size_t(req_stride_) * w);
    srv_req_slot_ = sv_.pd().alloc_mr(size_t(req_stride_) * w);
    zero_headers(srv_req_slot_, req_stride_, kReqHdr);
    served_seq_.assign(w, 0);
    if (kind_ == ProtocolKind::kHerd) {
      resp_pipe_.emplace(sep_, cep_, cfg_, channel_counters());
    } else {
      // Exported region the client READs: [meta1 16B][meta2 16B][payload],
      // and the client buffer those READs land in, one stride per slot.
      srv_export_ = sv_.pd().alloc_mr(size_t(exp_stride_) * w);
      cli_read_buf_ = cl_.pd().alloc_mr(size_t(exp_stride_) * w);
      zero_headers(srv_export_, exp_stride_, kExportHdr);
      zero_headers(cli_read_buf_, exp_stride_, kExportHdr);
    }
    if (event_server()) {
      if (cfg_.server_srq) sep_.qp->set_srq(cfg_.server_srq);
      const uint32_t ring = std::max(kEagerSlots, w);
      for (uint32_t i = 0; i < ring; ++i)
        if (!cfg_.server_srq) sep_.qp->post_recv(verbs::RecvWr{.wr_id = i});
    } else {
      srv_req_slot_->set_write_watch(
          [this](uint64_t, size_t) { watch_.notify_all(); });
    }
  }

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  using Routed = Router<Buffer>::Routed;

  static constexpr uint32_t kReqHdr = 12;    // [u64 seq][u32 len]
  static constexpr uint32_t kMetaBytes = 16;
  static constexpr uint32_t kExportHdr = 32;  // meta1 + meta2

  /// Export-metadata length of a response that did not fit max_msg.
  static constexpr uint32_t kOversized = UINT32_MAX;

  /// The response length the server published at `p`; fails the call on
  /// the oversize mark, or on any length past max_msg (it is read remotely).
  uint32_t reply_len(const std::byte* p) const {
    const uint32_t len = get_u32(p);
    if (len > cfg_.max_msg)
      throw std::length_error("bypass protocol: response exceeds slot");
    return len;
  }

  bool event_server() const {
    return cfg_.server_poll == sim::PollMode::kEvent;
  }

  void repost_recv(uint32_t idx) {
    if (verbs::SharedReceiveQueue* srq = sep_.qp->srq())
      srq->post_recv(verbs::RecvWr{.wr_id = idx}, channel_counters());
    else
      sep_.qp->post_recv(verbs::RecvWr{.wr_id = idx});
  }

  /// A READ that found the reply not yet published; traced as a decision.
  void note_read_retry() {
    if (obs_->tracer.enabled())
      obs_->tracer.instant("read-retry", "proto", sim_.now(), obs_pid(),
                           obs_channel_id());
  }

  /// Slot-tagged READ of `len` export bytes at `remote_off` into the slot's
  /// read stride at `local_off`; mail_ routes its completion by wr_id.
  sim::Task<void> issue_read(uint32_t slot, uint64_t remote_off, uint32_t len,
                             uint64_t local_off = 0) {
    const size_t base = size_t(slot) * exp_stride_;
    co_await cep_.qp->post_send(verbs::SendWr{
        .wr_id = slot,
        .opcode = verbs::Opcode::kRead,
        .local = {cli_read_buf_->data() + base + local_off, len},
        .remote = srv_export_->remote(base + remote_off)});
    while (co_await mail_.turn(slot))
      mail_.sweep(co_await cep_.scq->reap(cep_.poll, cfg_.window),
                  [](const verbs::Wc& wc) -> Routed {
                    return {.status = wc.status, .slot = uint32_t(wc.wr_id)};
                  });
    const Routed r = mail_.take(slot);
    if (r.status != verbs::WcStatus::kSuccess) throw_wc("bypass read", r.status);
  }

  sim::Task<Buffer> fetch_response(uint32_t slot, uint64_t seq,
                                   uint32_t hint) {
    const std::byte* b = cli_read_buf_->data() + size_t(slot) * exp_stride_;
    switch (kind_) {
      case ProtocolKind::kPilaf: {
        // Probe meta1 until the server published our sequence number...
        while (true) {
          co_await issue_read(slot, 0, kMetaBytes);
          if (get_u64(b) == seq) break;
          note_read_retry();
        }
        // ...then fetch meta2 (extent) and finally the payload.
        co_await issue_read(slot, 16, kMetaBytes);
        uint32_t len = reply_len(b + 8);
        co_await issue_read(slot, kExportHdr, len);
        co_return Buffer(b, b + len);
      }
      case ProtocolKind::kFarm: {
        // meta1+meta2 in one aligned object read, then the payload.
        uint32_t len = 0;
        while (true) {
          co_await issue_read(slot, 0, kExportHdr);
          if (get_u64(b) == seq) {
            len = reply_len(b + 24);
            break;
          }
          note_read_retry();
        }
        co_await issue_read(slot, kExportHdr, len);
        co_return Buffer(b, b + len);
      }
      case ProtocolKind::kRfp: {
        // RFP's adaptive remote fetching: wait out the LEARNED server
        // response delay (EWMA over past calls), then fetch header+payload
        // in one READ sized by the caller's hint (one eager slot without
        // one), never past the stride. A mistimed optimistic fetch costs a
        // wasted payload-sized READ, so misses poll with cheap header-only
        // reads, then one payload read — and feed the observed delay back
        // into the estimate.
        const uint32_t guess =
            std::min(hint > 0 ? hint : kEagerSlot, cfg_.max_msg);
        sim::Time t0 = sim_.now();
        if (fetch_delay_ > sim::Duration{0}) co_await sim_.sleep(fetch_delay_);
        co_await issue_read(slot, 0, kExportHdr + guess);
        if (get_u64(b) != seq) {
          note_read_retry();
          while (true) {
            co_await issue_read(slot, 0, kExportHdr);
            if (get_u64(b) == seq) break;
            note_read_retry();
          }
          // The response became visible roughly one read RTT before the
          // succeeding poll returned; learn the larger delay.
          sim::Duration observed = sim_.now() - t0;
          fetch_delay_ = (fetch_delay_ * 3 + observed) / 4;
          uint32_t len = reply_len(b + 24);
          co_await issue_read(slot, kExportHdr, len, kExportHdr);
          co_return Buffer(b + kExportHdr, b + kExportHdr + len);
        }
        // Hit on the first fetch: decay the delay so we stay optimistic.
        fetch_delay_ = fetch_delay_ * 7 / 8;
        uint32_t len = reply_len(b + 24);
        if (len > guess) {
          // Undersized fetch: one more READ for the tail.
          co_await issue_read(slot, kExportHdr + guess, len - guess,
                              kExportHdr + guess);
        }
        co_return Buffer(b + kExportHdr, b + kExportHdr + len);
      }
      default:
        throw std::logic_error("not a bypass protocol");
    }
  }

  sim::Task<void> serve_event() {
    std::vector<verbs::Wc> wcs;
    for (;;) {
      if (one_slot()) {
        const verbs::Wc wc = co_await sep_.recv_wc();
        wcs.assign(1, wc);
      } else {
        wcs = co_await sep_.recv_wcs(cfg_.window);
      }
      for (const verbs::Wc& wc : wcs) {
        if (!wc.ok()) co_return;
        repost_recv(static_cast<uint32_t>(wc.wr_id));
        // The slot comes off the wire: one past the window is dropped.
        if (in_window(imm_slot(wc.imm)))
          co_await take_request(imm_slot(wc.imm), imm_len(wc.imm) - kReqHdr);
      }
    }
  }

  sim::Task<void> serve_busy() {
    std::vector<uint32_t> found;
    while (!stop_) {
      found.clear();
      {
        // CPU memory polling: spin (occupying a core) until a request
        // header's sequence number advances.
        auto guard = sv_.cpu().busy_guard();
        for (;;) {
          for (uint32_t s = 0; s < cfg_.window; ++s)
            if (get_u64(slot_req(s)) != served_seq_[s]) found.push_back(s);
          if (!found.empty() || stop_) break;
          co_await watch_.wait();
        }
        if (stop_) break;
        // One pickup charge covers the whole detected batch. With one slot
        // the poller serves the request itself, so it spins through it.
        if (one_slot())
          co_await sim_.sleep(sv_.cpu().pickup_delay(sim::PollMode::kBusy));
      }
      if (!one_slot())
        co_await sim_.sleep(sv_.cpu().pickup_delay(sim::PollMode::kBusy));
      for (uint32_t s : found)
        co_await take_request(s, get_u32(slot_req(s) + 8));
    }
  }

  /// Marks `slot`'s request served and hands it to serve_request. The
  /// length comes off the wire: a request overrunning its slot is dropped.
  sim::Task<void> take_request(uint32_t slot, uint32_t req_len) {
    served_seq_[slot] = get_u64(slot_req(slot));
    if (req_len > cfg_.max_msg) return {};
    return serve_request(handle_slot(slot, req_len));
  }

  sim::Task<void> handle_slot(uint32_t slot, uint32_t req_len) {
    const std::byte* r = slot_req(slot);
    const uint64_t seq = get_u64(r);
    Buffer resp = (co_await run_handler(View{r + kReqHdr, req_len})).take();
    if (kind_ != ProtocolKind::kHerd) {
      co_await publish(srv_export_->data() + size_t(slot) * exp_stride_, seq,
                       resp);
      co_return;
    }
    auto guard = co_await srv_send_mu_.scoped();
    co_await resp_pipe_->send(resp, wire_tag(slot));
  }

  /// Places `resp` in the export stride at `e` (the intrinsic server-side
  /// copy: the client can only READ from registered export space), then
  /// meta2 and meta1 (ready flag last, matching write ordering). A reply
  /// past max_msg publishes only the oversize mark, failing just its call.
  sim::Task<void> publish(std::byte* e, uint64_t seq, const Buffer& resp) {
    uint32_t len = kOversized;
    if (resp.size() <= cfg_.max_msg) {
      co_await charge_server_copy(resp.size());
      copy_bytes(e + kExportHdr, resp.data(), resp.size());
      len = static_cast<uint32_t>(resp.size());
    }
    put_u64(e + 16, seq);
    put_u32(e + 24, len);
    put_u64(e, seq);
  }

  std::byte* slot_req(uint32_t slot) const {
    return srv_req_slot_->data() + size_t(slot) * req_stride_;
  }

  verbs::MemoryRegion* cli_req_src_ = nullptr;
  verbs::MemoryRegion* cli_read_buf_ = nullptr;  // Pilaf, FaRM and RFP
  verbs::MemoryRegion* srv_req_slot_ = nullptr;
  verbs::MemoryRegion* srv_export_ = nullptr;
  std::optional<EagerPipe> resp_pipe_;  // HERD response path
  sim::WaitQueue watch_;
  sim::Mutex srv_send_mu_;  // serializes windowed HERD pipe responses
  uint64_t seq_ = 0;
  std::vector<uint64_t> served_seq_;  // per slot: last served request seq
  uint32_t req_stride_ = 0;
  uint32_t exp_stride_ = 0;
  // Each slot's READ completions (Pilaf, FaRM, RFP) or reply (HERD).
  Router<Buffer> mail_;
  sim::Duration fetch_delay_{};  // RFP adaptive-fetch delay estimate
};

}  // namespace hatrpc::proto
