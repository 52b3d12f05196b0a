// The hint-aware RDMA engine of §4.3 (Fig. 9), tying together the hint
// hierarchy, the Figure-6 selection algorithm, and the protocol channels.
// HatConnection is the bridge that lets Thrift-generated stubs drive an
// RDMA channel unchanged:
//
//   * at connection establishment, static (service-level) hints size and
//     configure the engine;
//   * per-function plans are resolved once and cached — the "dynamic hints
//     are passed by pointer / cached per RPC function type" optimization;
//   * each distinct plan materializes one protocol channel, created lazily
//     and shared by all functions mapping to the same plan (optimization
//     isolation: a latency function's busy-polled WriteIMM channel is
//     unaffected by a throughput function's event-polled RFP channel);
//   * plans with transport=tcp route through the Thrift socket stack
//     instead (hybrid transports, §5.5).
#pragma once

#include <memory>
#include <tuple>

#include "core/runtime.h"
#include "hint/selection.h"
#include "sim/sync.h"
#include "thrift/server.h"

namespace hatrpc::core {

struct EngineConfig {
  hint::SelectionParams selection{};
  proto::ChannelConfig channel{};  // base geometry (max_msg, slots, ...)
  /// Thrift serialization/deserialization CPU model.
  sim::Duration serialize_fixed = std::chrono::nanoseconds(250);
  double serialize_gbps = 4.0;
  uint16_t tcp_port = 9900;
};

class HatConnection;

/// Server side: owns the dispatcher, accepts HatConnections, and (when a
/// SocketNet is supplied) runs a Thrift TServer for tcp-hinted functions.
class HatServer {
 public:
  HatServer(verbs::Node& node, hint::ServiceHints hints, EngineConfig cfg,
            thrift::SocketNet* net = nullptr);
  ~HatServer();

  HatDispatcher& dispatcher() { return dispatcher_; }
  verbs::Node& node() { return node_; }
  const hint::ServiceHints& hints() const { return hints_; }
  const EngineConfig& config() const { return cfg_; }
  thrift::SocketNet* socket_net() { return net_; }

  /// The byte-level processor (envelope in/out) with server-side
  /// (de)serialization CPU charged; shared by RDMA channels and the TServer.
  /// It serializes the reply into the response area its channel hands it.
  proto::Handler processor();

  void stop();

 private:
  friend class HatConnection;
  void track(HatConnection* conn) { connections_.push_back(conn); }
  void untrack(HatConnection* conn) { std::erase(connections_, conn); }

  verbs::Node& node_;
  hint::ServiceHints hints_;
  EngineConfig cfg_;
  thrift::SocketNet* net_;
  HatDispatcher dispatcher_;
  std::unique_ptr<thrift::TServer> tcp_server_;
  std::vector<HatConnection*> connections_;
  bool stopped_ = false;
};

/// Client side of one logical connection. Implements HatCaller for the
/// generated stubs.
class HatConnection : public HatCaller {
 public:
  HatConnection(verbs::Node& client, HatServer& server);
  ~HatConnection() override;

  /// Begins the envelope in a send block lent by the method's channel when
  /// that channel exists and has one free; a heap envelope otherwise.
  Envelope begin_call(std::string_view method) override;

  sim::Task<Reply> call(std::string method, Envelope envelope) override;

  /// Resolved + cached plan for a method (exposed for tests/benches).
  const hint::Plan& plan_for(const std::string& method);

  /// Number of distinct protocol channels materialized so far.
  size_t channel_count() const { return channels_.size(); }

  const proto::RpcChannel* channel_for_plan(const hint::Plan& plan) const;

  void close();

 private:
  using ChannelKey = std::tuple<int, int, int, bool, uint32_t>;
  ChannelKey key_of(const hint::Plan& p) const {
    return {static_cast<int>(p.protocol), static_cast<int>(p.client_poll),
            static_cast<int>(p.server_poll), p.numa_bind, sized_max_msg(p)};
  }
  uint32_t sized_max_msg(const hint::Plan& p) const;

  proto::RpcChannel& channel_for(const hint::Plan& plan);
  sim::Task<thrift::SocketRpcClient*> tcp_client();
  sim::Cpu::Compute charge_serialize(verbs::Node& node, size_t bytes);

  verbs::Node& client_;
  HatServer& server_;
  std::map<std::string, hint::Plan> plans_;
  std::map<ChannelKey, std::unique_ptr<proto::RpcChannel>> channels_;
  std::unique_ptr<thrift::SocketRpcClient> tcp_;
  bool tcp_connecting_ = false;
  sim::Event tcp_ready_;
  int32_t seq_ = 0;
  bool closed_ = false;
  bool tracked_ = true;  // cleared when the server is destroyed first

  friend class HatServer;
};

}  // namespace hatrpc::core
