// Eager-SendRecv protocol (Fig. 3a): payloads travel inside pre-posted
// circular-buffer slots together with the control message. Cheap setup and
// modest pinned memory, but every byte is staged through a slot copy on
// both sides, so it suits small messages (and the res_util hint).
//
// Call windows: every call holds a window slot. With one slot there is one
// waiter, so the caller reads its own reply off the response pipe and the
// server runs the handler inline. With more, messages gain a 4-byte slot
// prefix so a client dispatcher can route each response to its pending
// call; whole-message sends are serialized per pipe direction (the ring is
// a shared resource) while the server handles requests concurrently.
#pragma once

#include "proto/base.h"
#include "proto/eager_pipe.h"
#include "proto/error.h"

namespace hatrpc::proto {

class EagerChannel : public ChannelBase {
 public:
  sim::Task<Buffer> do_call(View req, uint32_t /*resp_size_hint*/) override {
    const uint32_t slot = co_await acquire_slot();
    const SlotGuard held(*this, slot);
    if (dead_) throw_wc("eager recv", dead_status_);
    if (one_slot()) {
      if (!co_await c2s_.send(req))
        throw_wc("eager send", c2s_.last_status());
      auto resp = co_await s2c_.recv();
      if (!resp) throw_wc("eager recv", s2c_.last_status());
      co_return std::move(*resp);
    }
    auto pend = sim::pooled_shared<PendingCall>(sim_);
    pending_[slot] = pend;
    bool sent;
    {
      Buffer framed(4 + req.size());
      put_u32(framed.data(), slot);
      if (!req.empty())
        copy_bytes(framed.data() + 4, req.data(), req.size());
      auto guard = co_await send_mu_.scoped();
      sent = co_await c2s_.send(framed);
    }
    if (!sent) {
      pending_[slot].reset();
      throw_wc("eager send", c2s_.last_status());
    }
    co_await pend->done.wait();
    pending_[slot].reset();
    if (pend->status != verbs::WcStatus::kSuccess)
      throw_wc("eager recv", pend->status);
    co_return std::move(pend->resp);
  }

 protected:
  sim::Task<void> serve() override {
    while (!stop_) {
      auto req = co_await c2s_.recv();
      if (!req) break;
      if (one_slot()) {
        Buffer resp = (co_await run_handler(*req)).take();
        if (!co_await s2c_.send(resp)) break;
      } else {
        sim_.spawn(serve_one(std::move(*req)));
      }
    }
  }

  void start() override {
    ChannelBase::start();
    if (!one_slot())
      sim_.spawn(client_dispatch());
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
