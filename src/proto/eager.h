// Eager-SendRecv protocol (Fig. 3a): payloads travel inside pre-posted
// circular-buffer slots together with the control message. Cheap setup and
// modest pinned memory, but every byte is staged through a slot copy on
// both sides, so it suits small messages (and the res_util hint).
//
// Call windows: every call holds a window slot. The waiting callers take
// turns reading the response pipe, and the Router hands each response to
// the call holding its slot. With more than one slot, messages gain a
// 4-byte slot tag and the server handles requests concurrently;
// whole-message sends are serialized per pipe direction (the ring is a
// shared resource).
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
    bool sent;
    {
      auto guard = co_await send_mu_.scoped();
      sent = co_await c2s_.send(req, wire_tag(slot));
    }
    if (!sent) throw_wc("eager send", c2s_.last_status());
    while (co_await replies_.turn(slot))
      replies_.sweep(co_await s2c_.recv(), [this](std::optional<Buffer>& m) {
        return untag(s2c_, m);
      });
    auto r = replies_.take(slot);
    if (r.status != verbs::WcStatus::kSuccess) throw_wc("eager recv", r.status);
    co_return std::move(r.msg);
  }

 protected:
  /// A fragment the pipe rejects, or a request naming no slot of the
  /// window, is dropped; a failed completion ends the loop.
  sim::Task<void> serve() override {
    while (!stop_) {
      auto req = co_await c2s_.recv();
      auto r = untag(c2s_, req);
      if (r.status != verbs::WcStatus::kSuccess) break;
      if (in_window(r.slot))
        co_await serve_request(serve_one(r.slot, std::move(r.msg)));
    }
  }

 private:
  EagerChannel(verbs::Node& client, verbs::Node& server, Handler handler,
               ChannelConfig cfg)
      : ChannelBase(ProtocolKind::kEagerSendRecv, client, server,
                    std::move(handler), cfg),
        c2s_(cep_, sep_, cfg_, channel_counters()),
        s2c_(sep_, cep_, cfg_, channel_counters()),
        send_mu_(sim_), srv_send_mu_(sim_),
        replies_(*this) {}

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  /// Serves one request, answering under its slot tag (none with one slot).
  sim::Task<void> serve_one(uint32_t slot, Buffer req) {
    Buffer resp = (co_await run_handler(View(req))).take();
    auto guard = co_await srv_send_mu_.scoped();
    co_await s2c_.send(resp, wire_tag(slot));
  }

  EagerPipe c2s_;
  EagerPipe s2c_;
  sim::Mutex send_mu_;
  sim::Mutex srv_send_mu_;
  Router<Buffer> replies_;  // each slot's reply
};

}  // namespace hatrpc::proto
