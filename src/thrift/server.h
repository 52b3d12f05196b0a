// The Thrift server over the socket transport: TThreadedServer, a task per
// connection, each driving the Processor (serialized request -> serialized
// response). HatServer runs one for tcp-hinted functions.
#pragma once

#include <memory>
#include <vector>

#include "proto/channel.h"
#include "thrift/transport.h"

namespace hatrpc::thrift {

/// Handles one serialized request message, returning the serialized reply.
/// The RDMA channels' handler type: a socket has no registered response
/// area to lend, so the reply always comes back as a buffer.
using Processor = proto::Handler;

class TServer {
 public:
  TServer(SocketNet& net, verbs::Node& node, uint16_t port,
          Processor processor)
      : net_(net), node_(node), processor_(std::move(processor)) {
    listener_ = net_.listen(node, port);
  }

  /// Spawns the accept loop.
  void start() { net_.simulator().spawn(accept_loop()); }

  void stop() {
    stopping_ = true;
    listener_->close();
    // serve_connection unregisters as it unwinds — iterate over a snapshot
    // so the erase does not invalidate this loop.
    std::vector<SimSocket*> open = conns_;
    for (auto* s : open) s->close();
  }

  uint64_t requests_served() const { return served_; }
  size_t open_connections() const { return conns_.size(); }

 private:
  sim::Task<void> accept_loop() {
    while (true) {
      SimSocket* sock = co_await listener_->accept();
      if (!sock) break;
      conns_.push_back(sock);
      net_.simulator().spawn(serve_connection(sock, next_conn_id_++));
    }
  }

  sim::Task<void> serve_connection(SimSocket* sock, uint64_t conn_id) {
    TFramedTransport framed(sock);
    obs::Obs& obs = node_.obs();
    while (!stopping_) {
      // A connection dying mid-exchange (peer reset, stop() racing a
      // request) must drop this connection only, never unwind the server.
      std::optional<Buffer> req;
      try {
        req = co_await framed.recv();
      } catch (const TTransportException&) {
        break;
      }
      if (!req) break;
      node_.counters().add(obs::Ctr::kRequests);
      const sim::Time t0 = net_.simulator().now();
      Buffer resp = (co_await processor_(*req, {})).take();
      if (obs.tracer.enabled())
        obs.tracer.complete("tserver/request", "thrift", t0,
                            net_.simulator().now() - t0, node_.id(), conn_id);
      ++served_;
      try {
        co_await framed.send(resp);
      } catch (const TTransportException&) {
        break;
      }
    }
    // Unregister so conns_ tracks live connections only (it used to grow
    // for the server's lifetime, and stop() would re-close dead sockets).
    std::erase(conns_, sock);
    sock->close();
  }

  SocketNet& net_;
  verbs::Node& node_;
  Processor processor_;
  Listener* listener_ = nullptr;
  std::vector<SimSocket*> conns_;
  bool stopping_ = false;
  uint64_t served_ = 0;
  uint64_t next_conn_id_ = 0;
};

/// Client-side message RPC over a framed socket: the "Thrift over IPoIB"
/// call path.
class SocketRpcClient {
 public:
  explicit SocketRpcClient(SimSocket* sock) : framed_(sock) {}

  sim::Task<Buffer> call(View req) {
    co_await framed_.send(req);
    auto resp = co_await framed_.recv();
    if (!resp)
      throw TTransportException(TTransportException::Kind::kEndOfFile,
                                "server closed connection");
    co_return std::move(*resp);
  }

  void close() { framed_.close(); }

 private:
  TFramedTransport framed_;
};

}  // namespace hatrpc::thrift
