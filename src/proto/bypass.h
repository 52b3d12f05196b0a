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
// Pipelining (window > 1): the request slot and export region become rings
// of per-slot strides. The busy server scans every slot per wakeup (one
// pickup charge per detected batch) and spawns a handler per ready slot;
// the event server recovers the slot from the imm tag. Client READs are
// tagged wr_id=slot and routed by a send-CQ dispatcher so concurrent
// fetches never steal each other's completions. window=1 keeps the classic
// single-slot layout and charges bit-for-bit.
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
    if (cfg_.window > 1) co_return co_await do_call_w(req, resp_size_hint);
    const uint64_t seq = ++seq_;
    // Request: [u64 seq][u32 len][payload] written into the server slot.
    std::byte* p = cli_req_src_->data();
    put_u64(p, seq);
    put_u32(p + 8, static_cast<uint32_t>(req.size()));
    const uint32_t wire = kReqHdr + static_cast<uint32_t>(req.size());
    copy_bytes(p + kReqHdr, req.data(), req.size());
    verbs::SendWr wr;
    wr.local = {p, wire};
    wr.remote = srv_req_slot_->remote(0);
    wr.signaled = false;
    if (event_server()) {
      ++stats_.write_imms;
      wr.opcode = verbs::Opcode::kWriteImm;
      wr.imm = wire;
    } else {
      ++stats_.writes;
      wr.opcode = verbs::Opcode::kWrite;
    }
    co_await cep_.qp->post_send(std::move(wr));

    if (kind_ == ProtocolKind::kHerd) {
      auto resp = co_await resp_pipe_->recv();
      if (!resp) throw_wc("herd recv", resp_pipe_->last_status());
      co_return std::move(*resp);
    }
    co_return co_await fetch_response(seq, resp_size_hint);
  }

  sim::Task<void> serve() override {
    if (cfg_.window > 1) {
      if (event_server())
        co_await serve_event_w();
      else
        co_await serve_busy_w();
      co_return;
    }
    while (!stop_) {
      uint32_t req_len = 0;
      if (event_server()) {
        verbs::Wc wc = co_await sep_.recv_wc();
        if (!wc.ok()) break;
        repost_recv(static_cast<uint32_t>(wc.wr_id));
        req_len = wc.imm - kReqHdr;
      } else {
        // CPU memory polling: spin (occupying a core) until the request
        // header's sequence number advances.
        auto guard = sv_.cpu().busy_guard();
        while (!stop_ && get_u64(srv_req_slot_->data()) == served_) {
          co_await watch_.wait();
        }
        if (stop_) break;
        co_await sim_.sleep(sv_.cpu().pickup_delay(sim::PollMode::kBusy));
        req_len = get_u32(srv_req_slot_->data() + 8);
      }
      served_ = get_u64(srv_req_slot_->data());

      Buffer resp = (co_await run_handler(
                         View{srv_req_slot_->data() + kReqHdr, req_len}))
                        .take();

      if (kind_ == ProtocolKind::kHerd) {
        if (!co_await resp_pipe_->send(resp)) break;
        continue;
      }
      co_await publish(srv_export_->data(), served_, resp);
    }
  }

  void start() override {
    ChannelBase::start();
    if (cfg_.window > 1) {
      if (kind_ == ProtocolKind::kHerd)
        sim_.spawn(herd_dispatch());
      else
        sim_.spawn(read_dispatch());
    }
  }

  void extra_shutdown() override { watch_.notify_all(); }

 private:
  BypassChannel(ProtocolKind kind, verbs::Node& client, verbs::Node& server,
                Handler handler, ChannelConfig cfg)
      : ChannelBase(kind, client, server, std::move(handler), cfg),
        watch_(client.fabric().simulator()),
        srv_send_mu_(client.fabric().simulator()) {
    const uint32_t w = cfg_.window;
    req_stride_ = kReqHdr + cfg_.max_msg;
    exp_stride_ = kExportHdr + cfg_.max_msg;
    if (w > 1 && event_server() && req_stride_ > kLenMask)
      throw std::length_error("bypass protocol: max_msg exceeds the 24-bit "
                              "imm length field");
    cli_req_src_ = alloc_client_mr(size_t(req_stride_) * w);
    srv_req_slot_ = alloc_server_mr(size_t(req_stride_) * w);
    if (w == 1) {
      cli_read_buf_ = alloc_client_mr(kMetaBytes + cfg_.max_msg);
      srv_req_slot_->zero_prefix(kReqHdr);  // polled before the first write
      cli_read_buf_->zero_prefix(kExportHdr);
    } else {
      cli_read_buf_ = alloc_client_mr(size_t(exp_stride_) * w);
      for (uint32_t s = 0; s < w; ++s) {
        std::memset(srv_req_slot_->data() + size_t(s) * req_stride_, 0,
                    kReqHdr);
        std::memset(cli_read_buf_->data() + size_t(s) * exp_stride_, 0,
                    kExportHdr);
      }
      served_v_.assign(w, 0);
      if (kind_ == ProtocolKind::kHerd) {
        pending_.resize(w);
      } else {
        for (uint32_t s = 0; s < w; ++s)
          read_done_.push_back(
              std::make_unique<sim::Channel<verbs::WcStatus>>(sim_));
      }
    }
    if (kind_ == ProtocolKind::kHerd) {
      resp_pipe_.emplace(sep_, cep_, cfg_, &stats_, channel_counters());
      stats_.client_registered += resp_pipe_->ring_bytes();
      stats_.server_registered += resp_pipe_->ring_bytes();
    } else {
      // Exported region the client READs: [meta1 16B][meta2 16B][payload].
      srv_export_ = alloc_server_mr(size_t(exp_stride_) * w);
      if (w == 1)
        srv_export_->zero_prefix(kExportHdr);
      else
        for (uint32_t s = 0; s < w; ++s)
          std::memset(srv_export_->data() + size_t(s) * exp_stride_, 0,
                      kExportHdr);
    }
    if (event_server()) {
      if (cfg_.server_srq) sep_.qp->set_srq(cfg_.server_srq);
      const uint32_t ring = std::max(cfg_.eager_slots, w);
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

  static constexpr uint32_t kReqHdr = 12;    // [u64 seq][u32 len]
  static constexpr uint32_t kMetaBytes = 16;
  static constexpr uint32_t kExportHdr = 32;  // meta1 + meta2

  /// Export-metadata length of a response that did not fit max_msg.
  static constexpr uint32_t kOversized = UINT32_MAX;

  /// The response length the server published at `p`; fails the call when
  /// the server published the oversize mark instead of a payload.
  static uint32_t reply_len(const std::byte* p) {
    const uint32_t len = get_u32(p);
    if (len == kOversized)
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

  sim::Task<verbs::Wc> issue_read(uint64_t remote_off, uint32_t len,
                                  uint64_t local_off = 0) {
    ++stats_.reads;
    co_await cep_.qp->post_send(verbs::SendWr{
        .wr_id = 3,
        .opcode = verbs::Opcode::kRead,
        .local = {cli_read_buf_->data() + local_off, len},
        .remote = srv_export_->remote(remote_off)});
    verbs::Wc wc = co_await cep_.send_wc();
    if (!wc.ok()) throw_wc("bypass read", wc.status);
    co_return wc;
  }

  sim::Task<Buffer> fetch_response(uint64_t seq, uint32_t hint) {
    const std::byte* b = cli_read_buf_->data();
    switch (kind_) {
      case ProtocolKind::kPilaf: {
        // Probe meta1 until the server published our sequence number...
        while (true) {
          co_await issue_read(0, kMetaBytes);
          if (get_u64(b) == seq) break;
          ++stats_.read_retries;
        }
        // ...then fetch meta2 (extent) and finally the payload.
        co_await issue_read(16, kMetaBytes);
        uint32_t len = reply_len(b + 8);
        co_await issue_read(kExportHdr, len);
        co_return Buffer(b, b + len);
      }
      case ProtocolKind::kFarm: {
        // meta1+meta2 in one aligned object read, then the payload.
        uint32_t len = 0;
        while (true) {
          co_await issue_read(0, kExportHdr);
          if (get_u64(b) == seq) {
            len = reply_len(b + 24);
            break;
          }
          ++stats_.read_retries;
        }
        co_await issue_read(kExportHdr, len);
        co_return Buffer(b, b + len);
      }
      case ProtocolKind::kRfp: {
        // RFP's adaptive remote fetching: wait out the LEARNED server
        // response delay (EWMA over past calls), then fetch header+payload
        // in one READ sized by the caller's hint. A mistimed optimistic
        // fetch costs a wasted payload-sized READ, so misses poll with
        // cheap header-only reads, then one payload read — and feed the
        // observed delay back into the estimate.
        uint32_t guess = hint > 0 ? std::min(hint, cfg_.max_msg)
                                  : cfg_.eager_slot;
        sim::Time t0 = sim_.now();
        if (fetch_delay_ > sim::Duration{0}) co_await sim_.sleep(fetch_delay_);
        co_await issue_read(0, kExportHdr + guess);
        if (get_u64(b) != seq) {
          ++stats_.read_retries;
          while (true) {
            co_await issue_read(0, kExportHdr);
            if (get_u64(b) == seq) break;
            ++stats_.read_retries;
          }
          // The response became visible roughly one read RTT before the
          // succeeding poll returned; learn the larger delay.
          sim::Duration observed = sim_.now() - t0;
          fetch_delay_ = (fetch_delay_ * 3 + observed) / 4;
          uint32_t len = reply_len(b + 24);
          co_await issue_read(kExportHdr, len, kExportHdr);
          co_return Buffer(b + kExportHdr, b + kExportHdr + len);
        }
        // Hit on the first fetch: decay the delay so we stay optimistic.
        fetch_delay_ = fetch_delay_ * 7 / 8;
        uint32_t len = reply_len(b + 24);
        if (len > guess) {
          // Undersized fetch: one more READ for the tail.
          co_await issue_read(kExportHdr + guess, len - guess,
                              kExportHdr + guess);
        }
        co_return Buffer(b + kExportHdr, b + kExportHdr + len);
      }
      default:
        throw std::logic_error("not a bypass protocol");
    }
  }

  // ---- Windowed path ----------------------------------------------------

  sim::Task<Buffer> do_call_w(View req, uint32_t hint) {
    uint32_t slot = co_await acquire_slot();
    if (dead_) {
      release_slot(slot);
      throw_wc("bypass", dead_status_);
    }
    try {
      Buffer out = co_await run_call_w(slot, req, hint);
      release_slot(slot);
      co_return out;
    } catch (...) {
      release_slot(slot);
      throw;
    }
  }

  sim::Task<Buffer> run_call_w(uint32_t slot, View req, uint32_t hint) {
    const uint64_t seq = ++seq_;
    std::byte* p = cli_req_src_->data() + size_t(slot) * req_stride_;
    put_u64(p, seq);
    put_u32(p + 8, static_cast<uint32_t>(req.size()));
    const uint32_t wire = kReqHdr + static_cast<uint32_t>(req.size());
    std::shared_ptr<PendingCall> pend;
    if (kind_ == ProtocolKind::kHerd) {
      pend = sim::pooled_shared<PendingCall>(sim_);
      pending_[slot] = pend;
    }
    copy_bytes(p + kReqHdr, req.data(), req.size());
    verbs::SendWr wr;
    wr.local = {p, wire};
    wr.remote = srv_req_slot_->remote(size_t(slot) * req_stride_);
    wr.signaled = false;
    if (event_server()) {
      ++stats_.write_imms;
      wr.opcode = verbs::Opcode::kWriteImm;
      wr.imm = slot_imm(slot, wire);
    } else {
      ++stats_.writes;
      wr.opcode = verbs::Opcode::kWrite;
    }
    co_await cep_.qp->post_send(std::move(wr));
    if (kind_ == ProtocolKind::kHerd) {
      co_await pend->done.wait();
      pending_[slot].reset();
      if (pend->status != verbs::WcStatus::kSuccess)
        throw_wc("herd recv", pend->status);
      co_return std::move(pend->resp);
    }
    co_return co_await fetch_response_w(slot, seq, hint);
  }

  /// Slot-tagged READ: wr_id carries the slot so read_dispatch can route
  /// the completion back to this call's mailbox.
  sim::Task<void> issue_read_w(uint32_t slot, uint64_t remote_off,
                               uint32_t len, uint64_t local_off = 0) {
    ++stats_.reads;
    const size_t base = size_t(slot) * exp_stride_;
    co_await cep_.qp->post_send(verbs::SendWr{
        .wr_id = slot,
        .opcode = verbs::Opcode::kRead,
        .local = {cli_read_buf_->data() + base + local_off, len},
        .remote = srv_export_->remote(base + remote_off)});
    auto st = co_await read_done_[slot]->pop();
    if (!st || *st != verbs::WcStatus::kSuccess)
      throw_wc("bypass read", st ? *st : verbs::WcStatus::kWrFlushErr);
  }

  sim::Task<Buffer> fetch_response_w(uint32_t slot, uint64_t seq,
                                     uint32_t hint) {
    const std::byte* b = cli_read_buf_->data() + size_t(slot) * exp_stride_;
    switch (kind_) {
      case ProtocolKind::kPilaf: {
        while (true) {
          co_await issue_read_w(slot, 0, kMetaBytes);
          if (get_u64(b) == seq) break;
          ++stats_.read_retries;
        }
        co_await issue_read_w(slot, 16, kMetaBytes);
        uint32_t len = reply_len(b + 8);
        co_await issue_read_w(slot, kExportHdr, len);
        co_return Buffer(b, b + len);
      }
      case ProtocolKind::kFarm: {
        uint32_t len = 0;
        while (true) {
          co_await issue_read_w(slot, 0, kExportHdr);
          if (get_u64(b) == seq) {
            len = reply_len(b + 24);
            break;
          }
          ++stats_.read_retries;
        }
        co_await issue_read_w(slot, kExportHdr, len);
        co_return Buffer(b, b + len);
      }
      case ProtocolKind::kRfp: {
        uint32_t guess = hint > 0 ? std::min(hint, cfg_.max_msg)
                                  : cfg_.eager_slot;
        sim::Time t0 = sim_.now();
        if (fetch_delay_ > sim::Duration{0}) co_await sim_.sleep(fetch_delay_);
        co_await issue_read_w(slot, 0, kExportHdr + guess);
        if (get_u64(b) != seq) {
          ++stats_.read_retries;
          while (true) {
            co_await issue_read_w(slot, 0, kExportHdr);
            if (get_u64(b) == seq) break;
            ++stats_.read_retries;
          }
          sim::Duration observed = sim_.now() - t0;
          fetch_delay_ = (fetch_delay_ * 3 + observed) / 4;
          uint32_t len = reply_len(b + 24);
          co_await issue_read_w(slot, kExportHdr, len, kExportHdr);
          co_return Buffer(b + kExportHdr, b + kExportHdr + len);
        }
        fetch_delay_ = fetch_delay_ * 7 / 8;
        uint32_t len = reply_len(b + 24);
        if (len > guess) {
          co_await issue_read_w(slot, kExportHdr + guess, len - guess,
                                kExportHdr + guess);
        }
        co_return Buffer(b + kExportHdr, b + kExportHdr + len);
      }
      default:
        throw std::logic_error("not a bypass protocol");
    }
  }

  /// Routes slot-tagged READ completions to their fetch; a terminal
  /// completion fails every slot and marks the channel dead.
  sim::Task<void> read_dispatch() {
    for (;;) {
      auto wcs = co_await cep_.send_wcs(cfg_.window);
      for (verbs::Wc& wc : wcs) {
        if (!wc.ok()) {
          mark_dead(wc.status);
          for (auto& m : read_done_) m->push(wc.status);
          co_return;
        }
        read_done_[wc.wr_id]->push(wc.status);
      }
    }
  }

  /// HERD: routes slot-prefixed SEND responses to their pending calls.
  sim::Task<void> herd_dispatch() {
    for (;;) {
      auto m = co_await resp_pipe_->recv();
      if (!m) {
        mark_dead(resp_pipe_->last_status());
        for (auto& p : pending_)
          if (p) {
            p->status = dead_status_;
            p->done.set();
          }
        co_return;
      }
      uint32_t slot = get_u32(m->data());
      if (slot < pending_.size()) {
        if (auto& p = pending_[slot]) {
          p->resp.assign(m->begin() + 4, m->end());
          p->status = verbs::WcStatus::kSuccess;
          p->done.set();
        }
      }
    }
  }

  sim::Task<void> serve_event_w() {
    for (;;) {
      auto wcs = co_await sep_.recv_wcs(cfg_.window);
      for (verbs::Wc& wc : wcs) {
        if (!wc.ok()) co_return;
        repost_recv(static_cast<uint32_t>(wc.wr_id));
        const uint32_t slot = imm_slot(wc.imm);
        const uint32_t wire = imm_len(wc.imm);
        served_v_[slot] = get_u64(slot_req(slot));
        sim_.spawn(handle_slot(slot, wire - kReqHdr));
      }
    }
  }

  sim::Task<void> serve_busy_w() {
    std::vector<uint32_t> found;
    while (!stop_) {
      found.clear();
      {
        auto guard = sv_.cpu().busy_guard();
        for (;;) {
          for (uint32_t s = 0; s < cfg_.window; ++s)
            if (get_u64(slot_req(s)) != served_v_[s]) found.push_back(s);
          if (!found.empty() || stop_) break;
          co_await watch_.wait();
        }
      }
      if (stop_) break;
      // One pickup charge covers the whole detected batch.
      co_await sim_.sleep(sv_.cpu().pickup_delay(sim::PollMode::kBusy));
      for (uint32_t s : found) {
        served_v_[s] = get_u64(slot_req(s));
        sim_.spawn(handle_slot(s, get_u32(slot_req(s) + 8)));
      }
    }
  }

  sim::Task<void> handle_slot(uint32_t slot, uint32_t req_len) {
    const std::byte* r = slot_req(slot);
    const uint64_t seq = get_u64(r);
    Buffer resp = (co_await run_handler(View{r + kReqHdr, req_len})).take();
    if (kind_ == ProtocolKind::kHerd) {
      Buffer framed(4 + resp.size());
      put_u32(framed.data(), slot);
      if (!resp.empty())
        copy_bytes(framed.data() + 4, resp.data(), resp.size());
      auto guard = co_await srv_send_mu_.scoped();
      co_await resp_pipe_->send(framed);
      co_return;
    }
    co_await publish(srv_export_->data() + size_t(slot) * exp_stride_, seq,
                     resp);
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
  verbs::MemoryRegion* cli_read_buf_ = nullptr;
  verbs::MemoryRegion* srv_req_slot_ = nullptr;
  verbs::MemoryRegion* srv_export_ = nullptr;
  std::optional<EagerPipe> resp_pipe_;  // HERD response path
  sim::WaitQueue watch_;
  sim::Mutex srv_send_mu_;  // serializes windowed HERD pipe responses
  uint64_t seq_ = 0;
  uint64_t served_ = 0;                  // window=1: last served request seq
  std::vector<uint64_t> served_v_;       // window>1: per-slot served seq
  uint32_t req_stride_ = 0;
  uint32_t exp_stride_ = 0;
  std::vector<std::unique_ptr<sim::Channel<verbs::WcStatus>>> read_done_;
  std::vector<std::shared_ptr<PendingCall>> pending_;  // HERD window>1
  sim::Duration fetch_delay_{};  // RFP adaptive-fetch delay estimate
};

}  // namespace hatrpc::proto
