// Eager-SendRecv protocol (Fig. 3a): payloads travel inside pre-posted
// circular-buffer slots together with the control message. Cheap setup and
// modest pinned memory, but every byte is staged through a slot copy on
// both sides, so it suits small messages (and the res_util hint).
//
// Call windows: every call holds a window slot. With one slot there is one
// waiter, so the caller reads its own reply off the response pipe and the
// server runs each request inline. With more, messages gain a 4-byte slot
// tag so the client's Router can hand each response to the call holding
// its slot; whole-message sends are serialized per pipe direction (the ring
// is a shared resource) while the server handles requests concurrently.
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
    std::optional<Buffer> resp;
    if (one_slot())
      resp = co_await s2c_.recv();
    else
      resp = co_await replies_.next(slot);
    if (!resp)
      throw_wc("eager recv", one_slot() ? s2c_.last_status() : dead_status_);
    co_return std::move(*resp);
  }

 protected:
  /// A fragment the pipe rejects is dropped (a real failed completion is
  /// followed by the QP's flush); any other failed completion ends the loop.
  sim::Task<void> serve() override {
    while (!stop_) {
      auto req = co_await c2s_.recv();
      if (req)
        co_await serve_request(serve_one(std::move(*req)));
      else if (c2s_.last_status() != verbs::WcStatus::kLocLenErr)
        break;
    }
  }

  void start() override {
    ChannelBase::start();
    if (!one_slot()) sim_.spawn(replies_.drain(s2c_));
  }

 private:
  EagerChannel(verbs::Node& client, verbs::Node& server, Handler handler,
               ChannelConfig cfg)
      : ChannelBase(ProtocolKind::kEagerSendRecv, client, server,
                    std::move(handler), cfg),
        c2s_(cep_, sep_, cfg_, &stats_, channel_counters()),
        s2c_(sep_, cep_, cfg_, &stats_, channel_counters()),
        send_mu_(sim_), srv_send_mu_(sim_),
        replies_(*this, routed_slots()) {
    // Each pipe pins one ring per side.
    stats_.client_registered += c2s_.ring_bytes() + s2c_.ring_bytes();
    stats_.server_registered += c2s_.ring_bytes() + s2c_.ring_bytes();
  }

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  /// Serves one request, answering under its slot tag (none with one slot).
  /// The tag comes off the wire: a request naming no slot of the window is
  /// dropped.
  sim::Task<void> serve_one(Buffer req) {
    const uint32_t slot = one_slot() ? 0 : EagerPipe::slot_tag(req);
    if (!in_window(slot)) co_return;
    Buffer resp =
        (co_await run_handler(View(req).subspan(one_slot() ? 0 : 4))).take();
    auto guard = co_await srv_send_mu_.scoped();
    co_await s2c_.send(resp, wire_tag(slot));
  }

  EagerPipe c2s_;
  EagerPipe s2c_;
  sim::Mutex send_mu_;
  sim::Mutex srv_send_mu_;
  Router<Buffer> replies_;  // windowed: each slot's reply
};

}  // namespace hatrpc::proto
