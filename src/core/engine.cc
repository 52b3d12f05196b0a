#include "core/engine.h"

namespace hatrpc::core {

using sim::Task;

HatServer::HatServer(verbs::Node& node, hint::ServiceHints hints,
                     EngineConfig cfg, thrift::SocketNet* net)
    : node_(node), hints_(std::move(hints)), cfg_(cfg), net_(net) {
  if (net_) {
    tcp_server_ = std::make_unique<thrift::TServer>(*net_, node_,
                                                    cfg_.tcp_port, processor());
    tcp_server_->start();
  }
}

HatServer::~HatServer() {
  stop();
  // Connections may outlive the server (a cluster tears replicas down
  // before its client connections); they must not untrack from it then.
  for (HatConnection* c : connections_) c->tracked_ = false;
}

proto::Handler HatServer::processor() {
  return [this](proto::View req,
                std::span<std::byte> area) -> Task<proto::Response> {
    // Server-side deserialization + result serialization CPU.
    co_await node_.cpu().compute(
        cfg_.serialize_fixed +
        sim::transfer_time(req.size(), cfg_.serialize_gbps));
    // The reply is serialized straight into the channel's response area; one
    // that outgrows it spills to the heap.
    thrift::TMemoryBuffer out = thrift::TMemoryBuffer::backed(area);
    co_await dispatcher_.process(req, out);
    const size_t n = out.view().size();
    co_await node_.cpu().compute(cfg_.serialize_fixed +
                                 sim::transfer_time(n, cfg_.serialize_gbps));
    if (out.backed_in_place()) co_return proto::Response::written(n);
    co_return out.take();
  };
}

void HatServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (HatConnection* c : connections_) c->close();
  if (tcp_server_) tcp_server_->stop();
}

HatConnection::HatConnection(verbs::Node& client, HatServer& server)
    : client_(client), server_(server),
      tcp_ready_(client.fabric().simulator()) {
  server_.track(this);
}

HatConnection::~HatConnection() {
  if (tracked_) server_.untrack(this);
}

const hint::Plan& HatConnection::plan_for(const std::string& method) {
  auto it = plans_.find(method);
  if (it == plans_.end()) {
    it = plans_
             .emplace(method,
                      hint::select_plan(server_.hints(), method,
                                        server_.config().selection))
             .first;
  }
  return it->second;
}

uint32_t HatConnection::sized_max_msg(const hint::Plan& plan) const {
  // Payload hints let the engine size the pre-known per-connection buffers
  // (with 2x headroom); unhinted plans keep the configured default.
  uint32_t base = server_.config().channel.max_msg;
  if (plan.expected_payload == 0) return base;
  return std::max<uint32_t>(64 << 10, plan.expected_payload * 2);
}

proto::RpcChannel& HatConnection::channel_for(const hint::Plan& plan) {
  ChannelKey key = key_of(plan);
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    proto::ChannelConfig cfg = server_.config().channel;
    cfg.max_msg = sized_max_msg(plan);
    cfg.client_poll = plan.client_poll;
    cfg.server_poll = plan.server_poll;
    // NUMA binding applies to the client threads; the server's NIC-side
    // thread placement is managed by the server runtime (bound when the
    // plan asks and the node is under-subscribed).
    cfg.client_numa_local = plan.numa_bind;
    cfg.server_numa_local = plan.numa_bind;
    it = channels_
             .emplace(key, proto::make_channel(plan.protocol, client_,
                                               server_.node(),
                                               server_.processor(), cfg))
             .first;
  }
  return *it->second;
}

const proto::RpcChannel* HatConnection::channel_for_plan(
    const hint::Plan& plan) const {
  auto it = channels_.find(key_of(plan));
  return it == channels_.end() ? nullptr : it->second.get();
}

Task<thrift::SocketRpcClient*> HatConnection::tcp_client() {
  if (tcp_) co_return tcp_.get();
  if (tcp_connecting_) {  // another call is mid-handshake
    co_await tcp_ready_.wait();
    co_return tcp_.get();
  }
  tcp_connecting_ = true;
  thrift::SocketNet* net = server_.socket_net();
  if (!net)
    throw std::logic_error(
        "transport=tcp hint but HatServer has no SocketNet");
  thrift::SimSocket* sock = co_await net->connect(
      client_, server_.node(), server_.config().tcp_port);
  tcp_ = std::make_unique<thrift::SocketRpcClient>(sock);
  tcp_ready_.set();
  co_return tcp_.get();
}

sim::Cpu::Compute HatConnection::charge_serialize(verbs::Node& node,
                                                  size_t bytes) {
  const EngineConfig& cfg = server_.config();
  return node.cpu().compute(
      cfg.serialize_fixed + sim::transfer_time(bytes, cfg.serialize_gbps));
}

Envelope HatConnection::begin_call(std::string_view method) {
  // No channel is created here: a method's first call creates its channel
  // in call(), at the same virtual instant as before.
  proto::SendBlock block;
  if (!closed_) {
    const hint::Plan& plan = plan_for(std::string(method));
    if (plan.transport != hint::Transport::kTcp) {
      auto it = channels_.find(key_of(plan));
      if (it != channels_.end()) block = it->second->lease_send_block();
    }
  }
  return Envelope(method, std::move(block));
}

Task<Reply> HatConnection::call(std::string method, Envelope envelope) {
  if (closed_) throw std::runtime_error("connection closed");
  const hint::Plan& plan = plan_for(method);
  HatDispatcher::stamp_seqid(envelope.bytes(), ++seq_);
  co_await charge_serialize(client_, envelope.size());

  proto::LeasedReply reply;
  if (plan.transport == hint::Transport::kTcp) {
    thrift::SocketRpcClient* rpc = co_await tcp_client();
    reply = proto::LeasedReply(co_await rpc->call(envelope.view()));
  } else {
    proto::RpcChannel& ch = channel_for(plan);
    // A Direct channel lends its response slot without holding it, so a
    // lent reply changes no timing; other protocols keep the owned copy.
    if (proto::is_direct(ch.kind())) {
      proto::LeasedResult r =
          co_await ch.call_leased(envelope.view(), plan.expected_payload);
      reply = std::move(r).value();
    } else {
      proto::CallResult r =
          co_await ch.call(envelope.view(), plan.expected_payload);
      reply = proto::LeasedReply(std::move(r).value());
    }
  }
  envelope = Envelope();  // the send block goes back once answered

  co_await charge_serialize(client_, reply.bytes().size());
  co_return HatDispatcher::reply_of(std::move(reply), method);
}

void HatConnection::close() {
  if (closed_) return;
  closed_ = true;
  for (auto& [key, ch] : channels_) ch->shutdown();
  if (tcp_) tcp_->close();
}

}  // namespace hatrpc::core
