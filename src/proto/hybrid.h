// Adaptive two-protocol channels: eager below the rendezvous threshold
// (4 KB, paper §4.3), rendezvous above.
//   Hybrid-EagerRNDV — the paper's vanilla baseline (eager + Write-RNDV);
//   AR-gRPC          — the §5.4 comparator (eager + Read-RNDV).
// The decision uses max(request size, response-size hint), reproducing the
// "extra control messages just above the switching point" behaviour the
// paper attributes to AR-gRPC.
#pragma once

#include <memory>

#include "proto/channel.h"

namespace hatrpc::proto {

class HybridChannel : public RpcChannel {
 public:
  void shutdown() override {
    eager_->shutdown();
    rndv_->shutdown();
  }

  void abort() override {
    eager_->abort();
    rndv_->abort();
  }

  ProtocolKind kind() const override { return kind_; }

  /// Live reconfiguration forwards to both inner channels: the threshold
  /// split is per call, so either path may serve the next one.
  void set_poll_modes(sim::PollMode client, sim::PollMode server) override {
    eager_->set_poll_modes(client, server);
    rndv_->set_poll_modes(client, server);
  }

  bool resize_window(uint32_t n) override {
    const bool e = eager_->resize_window(n);
    const bool r = rndv_->resize_window(n);
    return e && r;
  }

 protected:
  sim::Task<Buffer> do_call(View req, uint32_t resp_size_hint) override {
    size_t decisive = std::max<size_t>(req.size(), resp_size_hint);
    RpcChannel& path = decisive <= threshold_ ? *eager_ : *rndv_;
    CallResult r = co_await path.call(req, resp_size_hint);
    if (!r) throw r.error();
    co_return std::move(*r);
  }

 private:
  HybridChannel(ProtocolKind kind, verbs::Node& client,
                std::unique_ptr<RpcChannel> eager,
                std::unique_ptr<RpcChannel> rndv, uint32_t threshold)
      : kind_(kind), eager_(std::move(eager)), rndv_(std::move(rndv)),
        threshold_(threshold) {
    bind_obs(client.fabric(), client.id());
    // The inner path's call() counts a failure on the client node already.
    counts_node_failures_ = false;
  }

  friend std::unique_ptr<RpcChannel> make_channel(ProtocolKind,
                                                  verbs::Node&, verbs::Node&,
                                                  Handler, ChannelConfig);

  ProtocolKind kind_;
  std::unique_ptr<RpcChannel> eager_;
  std::unique_ptr<RpcChannel> rndv_;
  uint32_t threshold_;
};

}  // namespace hatrpc::proto
