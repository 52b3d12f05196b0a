// Transport-layer tests: simulated TCP/IPoIB sockets (byte-stream
// semantics, EOF, latency/bandwidth behaviour), framed messaging, and the
// threaded TServer.
#include <gtest/gtest.h>

#include <string>

#include "thrift/server.h"

namespace hatrpc::thrift {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

View view_of(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string str_of(View v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

struct Net {
  Simulator sim;
  verbs::Fabric fabric{sim};
  SocketNet net{fabric};
  verbs::Node* a = fabric.add_node();
  verbs::Node* b = fabric.add_node();
};

TEST(SimSocket, ByteStreamRoundTrip) {
  Net n;
  std::string got;
  Listener* lis = n.net.listen(*n.b, 9090);
  n.sim.spawn([](Net& n, Listener* lis, std::string& got) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::byte buf[64];
    size_t k = co_await s->read(buf, sizeof buf);
    got.assign(reinterpret_cast<char*>(buf), k);
    co_await s->write(view_of("pong"));
  }(n, lis, got));
  std::string reply;
  n.sim.spawn([](Net& n, std::string& reply) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 9090);
    co_await c->write(view_of("ping"));
    std::byte buf[64];
    size_t k = co_await c->read(buf, sizeof buf);
    reply.assign(reinterpret_cast<char*>(buf), k);
    c->close();
  }(n, reply));
  n.sim.run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(reply, "pong");
}

TEST(SimSocket, EofAfterClose) {
  Net n;
  Listener* lis = n.net.listen(*n.b, 1);
  size_t got = 99;
  n.sim.spawn([](Listener* lis, size_t& got) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::byte buf[8];
    got = co_await s->read(buf, 8);  // peer closes without sending
  }(lis, got));
  n.sim.spawn([](Net& n) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 1);
    c->close();
  }(n));
  n.sim.run();
  EXPECT_EQ(got, 0u);
}

TEST(SimSocket, ConnectToUnboundPortThrows) {
  Net n;
  n.sim.spawn([](Net& n) -> Task<void> {
    co_await n.net.connect(*n.a, *n.b, 4242);
  }(n));
  EXPECT_THROW(n.sim.run(), TTransportException);
}

TEST(SimSocket, LargeTransferIsBandwidthBound) {
  // 8 MB at IPoIB's ~3 GB/s is ~2.7 ms; native RDMA would take ~0.64 ms.
  Net n;
  Listener* lis = n.net.listen(*n.b, 2);
  constexpr size_t kBytes = 8 << 20;
  sim::Time done{};
  n.sim.spawn([](Net& n, Listener* lis, sim::Time& done) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::vector<std::byte> buf(kBytes);
    co_await s->read_exact(buf.data(), kBytes);
    done = n.sim.now();
  }(n, lis, done));
  n.sim.spawn([](Net& n) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 2);
    std::vector<std::byte> data(kBytes, std::byte{0x5a});
    co_await c->write(data);
  }(n));
  n.sim.run();
  EXPECT_GE(done, 2500us);
  EXPECT_LE(done, 4000us);
}

TEST(SimSocket, SmallRpcLatencyRealisticForIpoib) {
  // A 64B echo over IPoIB should land in the tens of microseconds —
  // roughly an order of magnitude above native RDMA.
  Net n;
  Listener* lis = n.net.listen(*n.b, 3);
  n.sim.spawn([](Listener* lis) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    std::byte buf[64];
    co_await s->read_exact(buf, 64);
    co_await s->write({buf, 64});
  }(lis));
  sim::Time done{};
  n.sim.spawn([](Net& n, sim::Time& done) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 3);
    sim::Time t0 = n.sim.now();
    std::byte buf[64]{};
    co_await c->write({buf, 64});
    co_await c->read_exact(buf, 64);
    done = n.sim.now() - t0;
    c->close();
  }(n, done));
  n.sim.run();
  EXPECT_GE(done, 10us);
  EXPECT_LE(done, 60us);
}

TEST(FramedTransport, MessageBoundariesPreserved) {
  Net n;
  Listener* lis = n.net.listen(*n.b, 4);
  std::vector<std::string> got;
  n.sim.spawn([](Listener* lis, std::vector<std::string>& got) -> Task<void> {
    SimSocket* s = co_await lis->accept();
    TFramedTransport f(s);
    while (auto m = co_await f.recv()) got.push_back(str_of(*m));
  }(lis, got));
  n.sim.spawn([](Net& n) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 4);
    TFramedTransport f(c);
    co_await f.send(view_of("first"));
    co_await f.send(view_of(""));
    co_await f.send(view_of(std::string(100000, 'z')));
    c->close();
  }(n));
  n.sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], std::string(100000, 'z'));
}

Processor echo_processor(verbs::Node& node) {
  return [&node](View req) -> Task<Buffer> {
    co_await node.cpu().compute(500ns);
    co_return Buffer(req.begin(), req.end());
  };
}

TEST(TServer, ThreadedServesConcurrentClients) {
  Net n;
  TServer server(n.net, *n.b, 5, echo_processor(*n.b));
  server.start();
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    n.sim.spawn([](Net& n, int i, int& ok) -> Task<void> {
      SimSocket* c = co_await n.net.connect(*n.a, *n.b, 5);
      SocketRpcClient rpc(c);
      for (int j = 0; j < 5; ++j) {
        std::string msg = "c" + std::to_string(i) + "-" + std::to_string(j);
        Buffer resp = co_await rpc.call(view_of(msg));
        if (str_of(resp) == msg) ++ok;
      }
      rpc.close();
    }(n, i, ok));
  }
  n.sim.run_until(sim::Time(50ms));
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(server.requests_served(), 20u);
}

TEST(TServer, ConnectionTrackingShrinksAndStopIsIdempotent) {
  // conns_ must track LIVE connections only: a closed connection leaves the
  // list as its serve loop unwinds, and stop() after that must not touch
  // the dead socket again.
  Net n;
  TServer server(n.net, *n.b, 8, echo_processor(*n.b));
  server.start();
  size_t open_while_connected = 0;
  n.sim.spawn([](Net& n, TServer& server, size_t& open) -> Task<void> {
    {
      SimSocket* c1 = co_await n.net.connect(*n.a, *n.b, 8);
      SocketRpcClient rpc1(c1);
      co_await rpc1.call(view_of("one"));
      SimSocket* c2 = co_await n.net.connect(*n.a, *n.b, 8);
      SocketRpcClient rpc2(c2);
      co_await rpc2.call(view_of("two"));
      open = server.open_connections();
      rpc1.close();
      rpc2.close();
    }
    // Let both serve loops observe EOF and unregister.
    co_await n.sim.sleep(1ms);
    EXPECT_EQ(server.open_connections(), 0u);
    server.stop();
    server.stop();  // second stop over the same (empty) set: no-op
  }(n, server, open_while_connected));
  n.sim.run();
  EXPECT_EQ(open_while_connected, 2u);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(n.sim.live_tasks(), 0u);
}

TEST(TServer, StopClosesLiveConnections) {
  Net n;
  TServer server(n.net, *n.b, 9, echo_processor(*n.b));
  server.start();
  bool server_hung_up = false;
  n.sim.spawn([](Net& n, TServer& server, bool& hung_up) -> Task<void> {
    SimSocket* c = co_await n.net.connect(*n.a, *n.b, 9);
    SocketRpcClient rpc(c);
    co_await rpc.call(view_of("hello"));
    EXPECT_EQ(server.open_connections(), 1u);
    server.stop();
    bool threw = false;
    try {
      co_await rpc.call(view_of("after-stop"));
    } catch (const TTransportException&) {
      threw = true;
    }
    hung_up = threw;
    rpc.close();
  }(n, server, server_hung_up));
  n.sim.run();
  EXPECT_TRUE(server_hung_up);
  EXPECT_EQ(n.sim.live_tasks(), 0u);
}

}  // namespace
}  // namespace hatrpc::thrift
