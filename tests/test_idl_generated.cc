// End-to-end test of hatrpc-gen output: echo_kv.hatrpc is compiled to C++
// at build time, the generated client/handler pair runs over the full
// HatRPC engine (hints -> plans -> RDMA channels), and every generated
// construct is exercised: structs, enums, containers, declared exceptions,
// oneway calls, and the embedded hint map.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "echo_kv_gen.h"
#include "loopback_caller.h"

namespace {

using hatrpc::sim::Simulator;
using hatrpc::sim::Task;
using namespace std::chrono_literals;

class KvHandler : public genkv::GenKVIf {
 public:
  explicit KvHandler(hatrpc::verbs::Node& node) : node_(node) {}

  Task<genkv::Record> Fetch(const std::string& key) override {
    co_await node_.cpu().compute(200ns);
    auto it = store_.find(key);
    if (it == store_.end())
      throw genkv::NotFound{.key = key, .code = 404};
    co_return it->second;
  }

  Task<void> Store(const genkv::Record& rec) override {
    co_await node_.cpu().compute(200ns);
    store_[rec.key] = rec;
    co_return;
  }

  Task<std::map<std::string, int64_t>> Stats(
      const std::vector<std::string>& which, bool verbose) override {
    std::map<std::string, int64_t> out;
    for (const auto& w : which) out[w] = static_cast<int64_t>(w.size());
    if (verbose) out["total"] = static_cast<int64_t>(store_.size());
    co_return out;
  }

  Task<void> Nudge(int32_t generation) override {
    last_nudge_ = generation;
    co_return;
  }

  int32_t last_nudge() const { return last_nudge_; }

 private:
  hatrpc::verbs::Node& node_;
  std::map<std::string, genkv::Record> store_;
  int32_t last_nudge_ = -1;
};

struct GeneratedFixture : ::testing::Test {
  Simulator sim;
  hatrpc::verbs::Fabric fabric{sim};
  hatrpc::verbs::Node* client_node = fabric.add_node();
  hatrpc::verbs::Node* server_node = fabric.add_node();
  hatrpc::core::HatServer server{*server_node, genkv::GenKV_hints(), {}};
  KvHandler handler{*server_node};
  hatrpc::core::HatConnection conn{*client_node, server};

  GeneratedFixture() { genkv::register_GenKV(server.dispatcher(), handler); }

  void run(std::function<Task<void>(genkv::GenKVClient&)> body) {
    sim.spawn([](GeneratedFixture* self,
                 std::function<Task<void>(genkv::GenKVClient&)> body)
                  -> Task<void> {
      genkv::GenKVClient client(self->conn);
      co_await body(client);
      self->server.stop();
    }(this, std::move(body)));
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
  }
};

TEST_F(GeneratedFixture, StoreThenFetchRoundTripsStruct) {
  run([](genkv::GenKVClient& c) -> Task<void> {
    genkv::Record rec;
    rec.key = "alpha";
    rec.value = "v1";
    rec.version = 7;
    rec.mode = genkv::Consistency::STRONG;
    co_await c.Store(rec);
    genkv::Record got = co_await c.Fetch("alpha");
    EXPECT_EQ(got, rec);
    EXPECT_EQ(got.mode, genkv::Consistency::STRONG);
  });
}

TEST_F(GeneratedFixture, DeclaredExceptionPropagatesToClient) {
  run([](genkv::GenKVClient& c) -> Task<void> {
    bool caught = false;
    try {
      co_await c.Fetch("missing-key");
    } catch (const genkv::NotFound& e) {
      caught = true;
      EXPECT_EQ(e.key, "missing-key");
      EXPECT_EQ(e.code, 404);
    }
    EXPECT_TRUE(caught);
  });
}

TEST_F(GeneratedFixture, ContainersRoundTrip) {
  run([](genkv::GenKVClient& c) -> Task<void> {
    std::vector<std::string> which;
    which.push_back("aa");
    which.push_back("bbbb");
    which.push_back("c");
    std::map<std::string, int64_t> stats = co_await c.Stats(which, true);
    EXPECT_EQ(stats.size(), 4u);
    EXPECT_EQ(stats["aa"], 2);
    EXPECT_EQ(stats["bbbb"], 4);
    EXPECT_EQ(stats["total"], 0);
  });
}

TEST_F(GeneratedFixture, OnewayReachesHandler) {
  run([this](genkv::GenKVClient& c) -> Task<void> {
    co_await c.Nudge(42);
    EXPECT_EQ(handler.last_nudge(), 42);
  });
}

TEST_F(GeneratedFixture, StubEnvelopesAreByteIdenticalToMakeCall) {
  // The args structs exactly as a separate serialization pass writes them.
  hatrpc::thrift::TMemoryBuffer nudge, fetch;
  {
    hatrpc::thrift::TBinaryProtocol p(nudge);
    p.writeFieldBegin(hatrpc::thrift::TType::kI32, 1);
    p.writeI32(42);
    p.writeFieldStop();
  }
  {
    hatrpc::thrift::TBinaryProtocol p(fetch);
    p.writeFieldBegin(hatrpc::thrift::TType::kString, 1);
    p.writeString("missing-key");
    p.writeFieldStop();
  }
  hatrpc::core::LoopbackCaller loop(server.dispatcher());
  sim.spawn([](hatrpc::core::LoopbackCaller& loop) -> Task<void> {
    genkv::GenKVClient c(loop);
    co_await c.Nudge(42);  // oneway
    try {
      co_await c.Fetch("missing-key");
    } catch (const genkv::NotFound&) {
    }
  }(loop));
  sim.run();
  using hatrpc::core::HatDispatcher;
  ASSERT_EQ(loop.sent.size(), 2u);
  EXPECT_EQ(loop.sent[0], HatDispatcher::make_call("Nudge", nudge.view(), 1));
  EXPECT_EQ(loop.sent[1], HatDispatcher::make_call("Fetch", fetch.view(), 2));
  EXPECT_EQ(handler.last_nudge(), 42);
  server.stop();
}

TEST_F(GeneratedFixture, GeneratedHintsDrivePlanSelection) {
  // Fetch is latency-hinted at the client -> busy WriteIMM; Stats is
  // res_util with 64k payload -> event-polled Write-RNDV.
  const hatrpc::hint::Plan& fetch = conn.plan_for("Fetch");
  EXPECT_EQ(fetch.protocol, hatrpc::proto::ProtocolKind::kDirectWriteImm);
  EXPECT_EQ(fetch.client_poll, hatrpc::sim::PollMode::kBusy);
  const hatrpc::hint::Plan& stats = conn.plan_for("Stats");
  EXPECT_EQ(stats.protocol, hatrpc::proto::ProtocolKind::kWriteRndv);
  EXPECT_EQ(stats.client_poll, hatrpc::sim::PollMode::kEvent);
  EXPECT_EQ(stats.expected_payload, 64u * 1024);
  // Heterogeneous functions on one connection -> distinct channels.
  run([](genkv::GenKVClient& c) -> Task<void> {
    genkv::Record rec;
    rec.key = "k";
    rec.value = "v";
    rec.version = 1;
    co_await c.Store(rec);
    co_await c.Fetch("k");
    std::vector<std::string> which;
    which.push_back("k");
    co_await c.Stats(which, false);
    co_return;
  });
  EXPECT_EQ(conn.channel_count(), 2u);  // WriteIMM shared by Fetch/Store +
                                        // the res_util Write-RNDV channel
}

}  // namespace
