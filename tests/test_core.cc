// Core-runtime tests: envelope round trips, dispatcher error replies, plan
// caching, per-plan channel sharing (optimization isolation), the RDMA and
// TCP call paths, and heterogeneous per-function plans on one connection —
// the paper's central mechanism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "loopback_caller.h"
#include "trace_counts.h"

namespace hatrpc::core {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

Buffer bytes_of(const std::string& s) {
  auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Buffer(p, p + s.size());
}
std::string str_of(View v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

TEST(Dispatcher, EnvelopeRoundTrip) {
  Buffer env = HatDispatcher::make_call("Ping", bytes_of("ARGS"), 7);
  thrift::TMemoryBuffer b = thrift::TMemoryBuffer::wrap(env);
  thrift::TBinaryProtocol p(b);
  auto head = p.readMessageBegin();
  EXPECT_EQ(head.name, "Ping");
  EXPECT_EQ(head.type, thrift::TMessageType::kCall);
  EXPECT_EQ(head.seqid, 7);
}

/// A raw handler that echoes its args bytes as the result.
HatDispatcher::MethodFn echo_fn() {
  return [](View args, thrift::TMemoryBuffer& out) -> Task<void> {
    out.write(args.data(), args.size());
    co_return;
  };
}

/// A raw handler that answers `s` whatever the args.
HatDispatcher::MethodFn answer_fn(std::string s) {
  return [s](View, thrift::TMemoryBuffer& out) -> Task<void> {
    out.write(s.data(), s.size());
    co_return;
  };
}

TEST(Dispatcher, DispatchesToRegisteredMethod) {
  Simulator sim;
  HatDispatcher d;
  d.register_method("Echo", echo_fn());
  EXPECT_TRUE(d.has_method("Echo"));
  Buffer env = HatDispatcher::make_call("Echo", bytes_of("payload"), 1);
  std::string got;
  sim.spawn([](HatDispatcher& d, Buffer env, std::string& got) -> Task<void> {
    Buffer reply = co_await d.process(env);
    got = str_of(HatDispatcher::parse_reply(reply, "Echo"));
  }(d, env, got));
  sim.run();
  EXPECT_EQ(got, "payload");
}

TEST(Dispatcher, UnknownMethodYieldsApplicationException) {
  Simulator sim;
  HatDispatcher d;
  Buffer env = HatDispatcher::make_call("Nope", bytes_of(""), 2);
  bool threw = false;
  sim.spawn([](HatDispatcher& d, Buffer env, bool& threw) -> Task<void> {
    Buffer reply = co_await d.process(env);
    try {
      HatDispatcher::parse_reply(reply, "Nope");
    } catch (const thrift::TApplicationException& e) {
      threw = true;
      EXPECT_EQ(e.kind(),
                thrift::TApplicationException::Kind::kUnknownMethod);
    }
  }(d, env, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(Dispatcher, MismatchedReplyNameThrows) {
  Simulator sim;
  HatDispatcher d;
  d.register_method("A", answer_fn(""));
  Buffer env = HatDispatcher::make_call("A", bytes_of(""), 3);
  sim.spawn([](HatDispatcher& d, Buffer env) -> Task<void> {
    Buffer reply = co_await d.process(env);
    EXPECT_THROW(HatDispatcher::parse_reply(reply, "B"),
                 thrift::TApplicationException);
  }(d, env));
  sim.run();
}

TEST(Dispatcher, HandlerThrowingMidResultYieldsTheExceptionReply) {
  Simulator sim;
  HatDispatcher d;
  d.register_method("Half",
                    [](View, thrift::TMemoryBuffer& out) -> Task<void> {
                      out.write("partial result", 14);
                      throw std::runtime_error("died mid-result");
                      co_return;
                    });
  // The reply a throwing handler has always produced: an EXCEPTION
  // envelope around TApplicationException(INTERNAL_ERROR, what()).
  thrift::TMemoryBuffer want;
  thrift::TBinaryProtocol w(want);
  w.writeMessageBegin("Half", thrift::TMessageType::kException, 9);
  w.writeFieldBegin(thrift::TType::kString, 1);
  w.writeString("died mid-result");
  w.writeFieldBegin(thrift::TType::kI32, 2);
  w.writeI32(6);
  w.writeFieldStop();
  Buffer got;
  sim.spawn([](HatDispatcher& d, Buffer& got) -> Task<void> {
    got = co_await d.process(HatDispatcher::make_call("Half", {}, 9));
  }(d, got));
  sim.run();
  EXPECT_EQ(got, want.take());
}

TEST(Dispatcher, StampSeqidRewritesOnlyTheSeqid) {
  Buffer env = HatDispatcher::make_call("Calc:Add", bytes_of("ARGS"), 0);
  HatDispatcher::stamp_seqid(env, 0x01020304);
  EXPECT_EQ(env, HatDispatcher::make_call("Calc:Add", bytes_of("ARGS"),
                                          0x01020304));
}

TEST(Envelope, FusedCallIsByteIdenticalToMakeCall) {
  Simulator sim;
  HatDispatcher d;
  d.register_method("Echo", echo_fn());
  MultiplexedDispatcher(d, "Calc").register_method("Add", echo_fn());
  LoopbackCaller loop(d);
  MultiplexedCaller calc(loop, "Calc");
  const Buffer args = bytes_of("serialized-args");
  std::vector<Reply> replies;
  sim.spawn([](LoopbackCaller& loop, MultiplexedCaller& calc,
               const Buffer& args, std::vector<Reply>& replies) -> Task<void> {
    replies.push_back(co_await loop.call_raw("Echo", args));
    replies.push_back(co_await calc.call_raw("Add", args));
  }(loop, calc, args, replies));
  sim.run();
  ASSERT_EQ(loop.sent.size(), 2u);
  EXPECT_EQ(loop.sent[0], HatDispatcher::make_call("Echo", args, 1));
  EXPECT_EQ(loop.sent[1], HatDispatcher::make_call("Calc:Add", args, 2));
  for (const Reply& r : replies) {
    EXPECT_EQ(str_of(r.view()), "serialized-args");
    // The result is decoded in place, not copied out of the envelope.
    EXPECT_EQ(r.view().data(), r.envelope.bytes().data() + r.body);
  }
}

// ---------------------------------------------------------------------------
// Engine fixture: a service with heterogeneous per-function hints.
// ---------------------------------------------------------------------------

struct Cluster {
  Simulator sim;
  verbs::Fabric fabric{sim};
  thrift::SocketNet net{fabric};
  verbs::Node* client = fabric.add_node();
  verbs::Node* server_node = fabric.add_node();
};

hint::ServiceHints heterogeneous_hints() {
  using namespace hatrpc::hint;
  ServiceHints h;
  h.service().add(Side::kShared, Key::kConcurrency,
                  parse_value(Key::kConcurrency, "1"));
  h.function("FastGet").add(Side::kShared, Key::kPerfGoal,
                            parse_value(Key::kPerfGoal, "latency"));
  h.function("FastGet").add(Side::kShared, Key::kPayloadSize,
                            parse_value(Key::kPayloadSize, "512"));
  h.function("BulkPut").add(Side::kShared, Key::kPerfGoal,
                            parse_value(Key::kPerfGoal, "res_util"));
  h.function("BulkPut").add(Side::kShared, Key::kPayloadSize,
                            parse_value(Key::kPayloadSize, "128k"));
  h.function("Legacy").add(Side::kShared, Key::kTransport,
                           parse_value(Key::kTransport, "tcp"));
  return h;
}

void register_echo_methods(HatServer& server) {
  for (const char* m : {"FastGet", "BulkPut", "Legacy", "Plain"}) {
    server.dispatcher().register_method(
        m, [&server](View args, thrift::TMemoryBuffer& out) -> Task<void> {
          co_await server.node().cpu().compute(300ns);
          out.write(args.data(), args.size());
        });
  }
}

TEST(Engine, CallOverRdmaRoundTrips) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  std::string got;
  c.sim.spawn([](HatConnection& conn, std::string& got,
                 HatServer& server) -> Task<void> {
    Reply r = co_await conn.call_raw("FastGet", bytes_of("hello-hat"));
    got = str_of(r.view());
    server.stop();
  }(conn, got, server));
  c.sim.run();
  EXPECT_EQ(got, "hello-hat");
  EXPECT_EQ(c.sim.live_tasks(), 0u);
}

TEST(Engine, PlansAreCachedPerMethod) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  const hint::Plan& p1 = conn.plan_for("FastGet");
  const hint::Plan& p2 = conn.plan_for("FastGet");
  EXPECT_EQ(&p1, &p2);  // same object — resolved once (§4.3 caching)
  server.stop();
}

TEST(Engine, HeterogeneousFunctionsGetDistinctPlans) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  const hint::Plan& fast = conn.plan_for("FastGet");
  const hint::Plan& bulk = conn.plan_for("BulkPut");
  EXPECT_EQ(fast.protocol, proto::ProtocolKind::kDirectWriteImm);
  EXPECT_EQ(fast.client_poll, PollMode::kBusy);
  EXPECT_EQ(bulk.protocol, proto::ProtocolKind::kWriteRndv);
  EXPECT_EQ(bulk.client_poll, PollMode::kEvent);
  server.stop();
}

TEST(Engine, ChannelsMaterializeLazilyAndAreSharedPerPlan) {
  Cluster c;
  hint::ServiceHints h = heterogeneous_hints();
  // Two functions with identical hints must share one channel.
  h.function("FastGet2").add(hint::Side::kShared, hint::Key::kPerfGoal,
                             hint::parse_value(hint::Key::kPerfGoal,
                                               "latency"));
  h.function("FastGet2").add(hint::Side::kShared, hint::Key::kPayloadSize,
                             hint::parse_value(hint::Key::kPayloadSize,
                                               "512"));
  HatServer server(*c.server_node, h, {});
  register_echo_methods(server);
  server.dispatcher().register_method("FastGet2", echo_fn());
  HatConnection conn(*c.client, server);
  EXPECT_EQ(conn.channel_count(), 0u);  // lazy
  c.sim.spawn([](HatConnection& conn, HatServer& server) -> Task<void> {
    co_await conn.call_raw("FastGet", bytes_of("a"));
    co_await conn.call_raw("FastGet2", bytes_of("b"));  // same plan -> reuse
    co_await conn.call_raw("BulkPut", bytes_of("c"));  // new plan -> new channel
    server.stop();
  }(conn, server));
  c.sim.run();
  EXPECT_EQ(conn.channel_count(), 2u);
}

TEST(Engine, ChannelMatchesPlanProtocol) {
  Cluster c;
  c.fabric.obs().tracer.enable();
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  c.sim.spawn([](HatConnection& conn, HatServer& server) -> Task<void> {
    co_await conn.call_raw("FastGet", bytes_of("x"));
    server.stop();
  }(conn, server));
  c.sim.run();
  const proto::RpcChannel* ch = conn.channel_for_plan(conn.plan_for("FastGet"));
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->kind(), proto::ProtocolKind::kDirectWriteImm);
  EXPECT_EQ(obs::TraceCounts(c.fabric.obs().tracer)["call/Direct-WriteIMM"],
            1u);
}

TEST(Engine, TcpHintedFunctionUsesSocketPath) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {}, &c.net);
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  std::string got;
  c.sim.spawn([](HatConnection& conn, std::string& got,
                 HatServer& server) -> Task<void> {
    Reply r = co_await conn.call_raw("Legacy", bytes_of("over-tcp"));
    got = str_of(r.view());
    server.stop();
  }(conn, got, server));
  c.sim.run();
  EXPECT_EQ(got, "over-tcp");
  EXPECT_EQ(conn.channel_count(), 0u);  // no RDMA channel was created
}

TEST(Engine, TcpWithoutSocketNetIsAnError) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});  // no net
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  c.sim.spawn([](HatConnection& conn) -> Task<void> {
    co_await conn.call_raw("Legacy", bytes_of("x"));
  }(conn));
  EXPECT_THROW(c.sim.run(), std::logic_error);
}

TEST(Engine, MixedTrafficOnOneConnectionStaysIsolated) {
  // The headline mechanism: latency and bulk functions interleave on one
  // connection, each over its own channel, both correct.
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  int ok = 0;
  c.sim.spawn([](HatConnection& conn, int& ok, HatServer& server)
                  -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      std::string small = "get-" + std::to_string(i);
      std::string big(20000, static_cast<char>('A' + i));
      Reply r1 = co_await conn.call_raw("FastGet", bytes_of(small));
      Reply r2 = co_await conn.call_raw("BulkPut", bytes_of(big));
      if (str_of(r1.view()) == small && str_of(r2.view()) == big) ++ok;
    }
    server.stop();
  }(conn, ok, server));
  c.sim.run();
  EXPECT_EQ(ok, 10);
}

TEST(Engine, UnhintedMethodGetsDefaultPlan) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  register_echo_methods(server);
  HatConnection conn(*c.client, server);
  const hint::Plan& plan = conn.plan_for("Plain");
  // No payload hint -> the engine cannot size pre-known buffers and keeps
  // the conservative adaptive protocol.
  EXPECT_EQ(plan.protocol, proto::ProtocolKind::kHybridEagerRndv);
  EXPECT_EQ(plan.transport, hint::Transport::kRdma);
  server.stop();
}

TEST(Dispatcher, HandlerExceptionBecomesInternalErrorReply) {
  // An undeclared exception must not kill the serve loop: the client gets
  // a TApplicationException(kInternalError) and the server keeps serving.
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  int calls = 0;
  server.dispatcher().register_method(
      "Flaky", [&calls](View, thrift::TMemoryBuffer& out) -> Task<void> {
        if (++calls == 1) throw std::runtime_error("handler blew up");
        out.write("recovered", 9);
        co_return;
      });
  HatConnection conn(*c.client, server);
  bool caught = false;
  std::string second;
  c.sim.spawn([](HatConnection& conn, bool& caught, std::string& second,
                 HatServer& server) -> Task<void> {
    try {
      co_await conn.call_raw("Flaky", {});
    } catch (const thrift::TApplicationException& e) {
      caught = true;
      EXPECT_EQ(e.kind(),
                thrift::TApplicationException::Kind::kInternalError);
      EXPECT_STREQ(e.what(), "handler blew up");
    }
    // The SAME connection and server must still work afterwards.
    second = str_of((co_await conn.call_raw("Flaky", {})).view());
    server.stop();
  }(conn, caught, second, server));
  c.sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(second, "recovered");
  EXPECT_EQ(c.sim.live_tasks(), 0u);
}

TEST(Multiplexed, TwoServicesShareOneConnection) {
  // Thrift multiplexing: "Calc:Add" and "Echo:Add" are distinct methods on
  // one dispatcher/connection.
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  MultiplexedDispatcher calc(server.dispatcher(), "Calc");
  MultiplexedDispatcher echo(server.dispatcher(), "Echo");
  calc.register_method("Add", answer_fn("calc-add"));
  echo.register_method("Add", answer_fn("echo-add"));
  HatConnection conn(*c.client, server);
  MultiplexedCaller calc_caller(conn, "Calc");
  MultiplexedCaller echo_caller(conn, "Echo");
  std::string r1, r2;
  c.sim.spawn([](MultiplexedCaller& a, MultiplexedCaller& b, std::string& r1,
                 std::string& r2, HatServer& server) -> Task<void> {
    r1 = str_of((co_await a.call_raw("Add", {})).view());
    r2 = str_of((co_await b.call_raw("Add", {})).view());
    server.stop();
  }(calc_caller, echo_caller, r1, r2, server));
  c.sim.run();
  EXPECT_EQ(r1, "calc-add");
  EXPECT_EQ(r2, "echo-add");
}

TEST(Multiplexed, UnprefixedCallMissesService) {
  Cluster c;
  HatServer server(*c.server_node, heterogeneous_hints(), {});
  MultiplexedDispatcher calc(server.dispatcher(), "Calc");
  calc.register_method("Add", answer_fn("x"));
  EXPECT_TRUE(server.dispatcher().has_method("Calc:Add"));
  EXPECT_FALSE(server.dispatcher().has_method("Add"));
  server.stop();
}

}  // namespace
}  // namespace hatrpc::core
