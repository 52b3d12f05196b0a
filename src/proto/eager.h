// Eager-SendRecv protocol (Fig. 3a): payloads travel inside pre-posted
// circular-buffer slots together with the control message. Cheap setup and
// modest pinned memory, but every byte is staged through a slot copy on
// both sides, so it suits small messages (and the res_util hint).
//
// Pipelining (window > 1): messages gain a 4-byte slot prefix so responses
// can be routed back to the right pending call; whole-message sends are
// serialized per pipe direction (the ring is a shared resource) while the
// window lets multiple requests be in flight and the server handle them
// concurrently. window=1 keeps the classic unprefixed framing bit-for-bit.
#pragma once

#include "proto/base.h"
#include "proto/eager_pipe.h"
#include "proto/error.h"

namespace hatrpc::proto {

class EagerChannel : public ChannelBase {
 public:
  sim::Task<Buffer> do_call(View req, uint32_t /*resp_size_hint*/) override {
    if (cfg_.window == 1) {
      if (cfg_.zero_copy) co_return co_await do_call_zc(req);
      if (!co_await c2s_.send(req))
        throw_wc("eager send", c2s_.last_status());
      auto resp = co_await s2c_.recv();
      if (!resp) throw_wc("eager recv", s2c_.last_status());
      co_return std::move(*resp);
    }
    uint32_t slot = co_await acquire_slot();
    if (dead_) {
      release_slot(slot);
      throw_wc("eager recv", dead_status_);
    }
    auto pend = sim::pooled_shared<PendingCall>(sim_);
    pending_[slot] = pend;
    bool sent;
    if (cfg_.zero_copy) {
      // The request gathers straight out of the caller's buffer (which
      // outlives the call); the slot tag rides the gathered wire header.
      auto guard = co_await send_mu_.scoped();
      sent = co_await c2s_.send_zc(req, &slot);
    } else {
      Buffer framed(4 + req.size());
      put_u32(framed.data(), slot);
      if (!req.empty())
        copy_bytes(framed.data() + 4, req.data(), req.size());
      auto guard = co_await send_mu_.scoped();
      sent = co_await c2s_.send(framed);
    }
    if (!sent) {
      pending_[slot].reset();
      release_slot(slot);
      throw_wc("eager send", c2s_.last_status());
    }
    co_await pend->done.wait();
    pending_[slot].reset();
    if (pend->status != verbs::WcStatus::kSuccess) {
      release_slot(slot);
      throw_wc("eager recv", pend->status);
    }
    Buffer out = std::move(pend->resp);
    release_slot(slot);
    co_return out;
  }

  /// Leased receive (the satellite of the fig05 profile): single-segment
  /// responses are handed to the caller as a view into the s2c recv ring,
  /// skipping the client-side materialization copy entirely; the ring slot
  /// is reposted when the LeasedReply dies. Every outstanding lease parks
  /// one of the pipe's eager_slots recvs, so leased delivery is only
  /// offered while the window cannot park more than half the ring —
  /// otherwise (and on non-zero-copy channels) fall back to the staged
  /// copying path with an owned buffer.
  sim::Task<LeasedReply> do_call_leased(View req,
                                        uint32_t resp_size_hint) override {
    if (!cfg_.zero_copy || 2 * cfg_.window > cfg_.eager_slots)
      co_return LeasedReply(co_await do_call(req, resp_size_hint));
    if (cfg_.window == 1) {
      if (!co_await c2s_.send_zc(req))
        throw_wc("eager send", c2s_.last_status());
      auto m = co_await s2c_.recv_zc();
      if (!m) throw_wc("eager recv", s2c_.last_status());
      if (!m->in_place()) co_return LeasedReply(std::move(m->owned));
      count_lease();
      const uint32_t ring = m->slot;
      co_return LeasedReply(m->view, [this, ring] { s2c_.release(ring); });
    }
    uint32_t slot = co_await acquire_slot();
    if (dead_) {
      release_slot(slot);
      throw_wc("eager recv", dead_status_);
    }
    auto pend = sim::pooled_shared<PendingCall>(sim_);
    pend->lease_wanted = true;
    pending_[slot] = pend;
    bool sent;
    {
      auto guard = co_await send_mu_.scoped();
      sent = co_await c2s_.send_zc(req, &slot);
    }
    if (!sent) {
      pending_[slot].reset();
      release_slot(slot);
      throw_wc("eager send", c2s_.last_status());
    }
    co_await pend->done.wait();
    pending_[slot].reset();
    if (pend->status != verbs::WcStatus::kSuccess) {
      release_slot(slot);
      throw_wc("eager recv", pend->status);
    }
    release_slot(slot);
    if (pend->lease_slot != UINT32_MAX) {
      count_lease();
      const uint32_t ring = pend->lease_slot;
      View v = pend->lease_view;
      co_return LeasedReply(v, [this, ring] { s2c_.release(ring); });
    }
    co_return LeasedReply(std::move(pend->resp));
  }

 protected:
  sim::Task<void> serve() override {
    if (cfg_.zero_copy) co_return co_await serve_zc();
    while (!stop_) {
      auto req = co_await c2s_.recv();
      if (!req) break;
      if (cfg_.window == 1) {
        Buffer resp = (co_await run_handler(*req)).take();
        if (!co_await s2c_.send(resp)) break;
      } else {
        sim_.spawn(serve_one(std::move(*req)));
      }
    }
  }

  void start() override {
    ChannelBase::start();
    if (cfg_.window > 1)
      sim_.spawn(cfg_.zero_copy ? client_dispatch_zc() : client_dispatch());
  }

 private:
  EagerChannel(verbs::Node& client, verbs::Node& server, Handler handler,
               ChannelConfig cfg)
      : ChannelBase(ProtocolKind::kEagerSendRecv, client, server,
                    std::move(handler), cfg),
        c2s_(cep_, sep_, cfg_, &stats_, channel_counters()),
        s2c_(sep_, cep_, cfg_, &stats_, channel_counters()),
        send_mu_(sim_), srv_send_mu_(sim_) {
    // Each pipe pins one ring per side.
    stats_.client_registered += c2s_.ring_bytes() + s2c_.ring_bytes();
    stats_.server_registered += c2s_.ring_bytes() + s2c_.ring_bytes();
    pending_.resize(cfg_.window);
  }

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  // ---- Zero-copy paths ---------------------------------------------------
  // The single payload copy per direction happens where the user-facing
  // Buffer is materialized (client side); the server handler runs over the
  // recv ring in place and responds from an owned buffer whose lifetime
  // rides the WQE. 64B echo: 1 client copy, 0 server copies, both sends
  // inline.

  void count_lease() {
    cl_.counters().add(obs::Ctr::kRecvLeases);
    if (auto* c = channel_counters()) c->add(obs::Ctr::kRecvLeases);
  }

  sim::Task<Buffer> do_call_zc(View req) {
    if (!co_await c2s_.send_zc(req))
      throw_wc("eager send", c2s_.last_status());
    auto m = co_await s2c_.recv_zc();
    if (!m) throw_wc("eager recv", s2c_.last_status());
    if (!m->in_place()) co_return std::move(m->owned);
    co_await charge_client_copy(m->view.size());
    Buffer out(m->view.begin(), m->view.end());
    s2c_.release(m->slot);
    co_return out;
  }

  sim::Task<void> serve_zc() {
    while (!stop_) {
      auto m = co_await c2s_.recv_zc();
      if (!m) break;
      if (cfg_.window == 1) {
        Buffer resp = (co_await run_handler(m->bytes())).take();
        if (m->in_place()) c2s_.release(m->slot);
        if (!co_await s2c_.send_zc_owned(std::move(resp))) break;
      } else {
        sim_.spawn(serve_one_zc(std::move(*m)));
      }
    }
  }

  sim::Task<void> serve_one_zc(EagerPipe::ZcMsg m) {
    View b = m.bytes();
    uint32_t slot = get_u32(b.data());
    Buffer resp =
        (co_await run_handler(View{b.data() + 4, b.size() - 4})).take();
    if (m.in_place()) c2s_.release(m.slot);
    auto guard = co_await srv_send_mu_.scoped();
    co_await s2c_.send_zc_owned(std::move(resp), &slot);
  }

  sim::Task<void> client_dispatch_zc() {
    for (;;) {
      auto m = co_await s2c_.recv_zc();
      if (!m) {
        mark_dead(s2c_.last_status());
        for (auto& p : pending_)
          if (p) {
            p->status = dead_status_;
            p->done.set();
          }
        co_return;
      }
      View b = m->bytes();
      uint32_t slot = get_u32(b.data());
      if (slot < pending_.size()) {
        if (auto& p = pending_[slot]) {
          if (p->lease_wanted && m->in_place()) {
            // Park the in-place view; the caller's LeasedReply owns the
            // ring slot now and reposts it on release — no copy here.
            p->lease_view = View{b.data() + 4, b.size() - 4};
            p->lease_slot = m->slot;
            p->status = verbs::WcStatus::kSuccess;
            p->done.set();
            continue;
          }
          co_await charge_client_copy(b.size() - 4);
          p->resp.assign(b.begin() + 4, b.end());
          p->status = verbs::WcStatus::kSuccess;
          p->done.set();
        }
      }
      if (m->in_place()) s2c_.release(m->slot);
    }
  }

  sim::Task<void> serve_one(Buffer req) {
    uint32_t slot = get_u32(req.data());
    Buffer resp =
        (co_await run_handler(View{req.data() + 4, req.size() - 4})).take();
    Buffer framed(4 + resp.size());
    put_u32(framed.data(), slot);
    if (!resp.empty())
      copy_bytes(framed.data() + 4, resp.data(), resp.size());
    auto guard = co_await srv_send_mu_.scoped();
    co_await s2c_.send(framed);
  }

  sim::Task<void> client_dispatch() {
    for (;;) {
      auto m = co_await s2c_.recv();
      if (!m) {
        mark_dead(s2c_.last_status());
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

  EagerPipe c2s_;
  EagerPipe s2c_;
  sim::Mutex send_mu_;
  sim::Mutex srv_send_mu_;
  std::vector<std::shared_ptr<PendingCall>> pending_;
};

}  // namespace hatrpc::proto
