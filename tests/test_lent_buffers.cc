// The zero-copy client path of engine Direct calls: a stub serializes into a
// send block the Direct channel lends, and the reply is lent from the
// channel's response slot. Pins the lent reply's lifetime (recalled before
// its slot is reused or its channel dies), that every fallback to the heap
// envelope gives the same bytes, virtual times and counters as the staged
// path, and that repeated seeded runs in one process stay identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sim/rng.h"

namespace hatrpc::core {
namespace {

using sim::Simulator;
using sim::Task;
using namespace std::chrono_literals;

std::string str_of(View v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

struct World {
  Simulator sim;
  verbs::Fabric fabric{sim};
  thrift::SocketNet net{fabric};
  verbs::Node* client = fabric.add_node();
  verbs::Node* server_node = fabric.add_node();
};

/// FastGet: Direct-WriteIMM (64 KiB blocks); Stream: Direct, 256 KiB
/// blocks; BulkPut: Write-RNDV; Legacy: the TCP transport.
hint::ServiceHints lending_hints() {
  using namespace hatrpc::hint;
  ServiceHints h;
  h.service().add(Side::kShared, Key::kConcurrency,
                  parse_value(Key::kConcurrency, "16"));
  h.service().add(Side::kShared, Key::kPerfGoal,
                  parse_value(Key::kPerfGoal, "throughput"));
  h.function("FastGet").add(Side::kShared, Key::kPerfGoal,
                            parse_value(Key::kPerfGoal, "latency"));
  h.function("FastGet").add(Side::kShared, Key::kPayloadSize,
                            parse_value(Key::kPayloadSize, "512"));
  h.function("Stream").add(Side::kShared, Key::kPayloadSize,
                           parse_value(Key::kPayloadSize, "128k"));
  h.function("BulkPut").add(Side::kShared, Key::kPerfGoal,
                            parse_value(Key::kPerfGoal, "res_util"));
  h.function("BulkPut").add(Side::kShared, Key::kPayloadSize,
                            parse_value(Key::kPayloadSize, "128k"));
  h.function("Legacy").add(Side::kShared, Key::kTransport,
                           parse_value(Key::kTransport, "tcp"));
  return h;
}

/// Echoes the args after a payload-proportional compute.
void register_echo(HatServer& server) {
  for (const char* m : {"FastGet", "Stream", "BulkPut", "Legacy"}) {
    server.dispatcher().register_method(
        m, [&server](View args, thrift::TMemoryBuffer& out) -> Task<void> {
          co_await server.node().cpu().compute(
              300ns + sim::Duration(args.size() / 16));
          out.write(args.data(), args.size());
        });
  }
}

/// Forwards to a HatConnection but begins heap envelopes only: the staged
/// path every fallback must match.
class StagedCaller : public HatCaller {
 public:
  explicit StagedCaller(HatConnection& conn) : conn_(conn) {}
  Task<Reply> call(std::string method, Envelope envelope) override {
    return conn_.call(std::move(method), std::move(envelope));
  }

 private:
  HatConnection& conn_;
};

/// One call with raw args; records whether its envelope sat in a lent
/// send block.
Task<Reply> call_noting(HatCaller& caller, std::string method,
                        std::string args, std::vector<bool>& in_block) {
  Envelope env = caller.begin_call(method);
  env.buffer().write(args.data(), args.size());
  in_block.push_back(env.in_send_block());
  co_return co_await caller.call(std::move(method), std::move(env));
}

TEST(LentSendBlock, SteadyStateDirectCallsSerializeIntoTheBlock) {
  World w;
  HatServer server(*w.server_node, lending_hints(), {});
  register_echo(server);
  HatConnection conn(*w.client, server);
  std::vector<bool> in_block;
  std::vector<std::string> got;
  w.sim.spawn([](HatConnection& conn, HatServer& server,
                 std::vector<bool>& in_block,
                 std::vector<std::string>& got) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      Reply r = co_await call_noting(conn, "FastGet",
                                     "req-" + std::to_string(i), in_block);
      got.push_back(str_of(r.view()));
    }
    server.stop();
  }(conn, server, in_block, got));
  w.sim.run();
  // The first call has no channel yet; later ones borrow its block.
  EXPECT_EQ(in_block, (std::vector<bool>{false, true, true}));
  EXPECT_EQ(got, (std::vector<std::string>{"req-0", "req-1", "req-2"}));
  EXPECT_EQ(w.sim.live_tasks(), 0u);
}

TEST(LentReply, HeldAcrossTheNextCallKeepsItsBytes) {
  World w;
  HatServer server(*w.server_node, lending_hints(), {});
  register_echo(server);
  HatConnection conn(*w.client, server);
  std::string first_before, first_after, second;
  bool lent_before = false, lent_after = true, second_lent = false;
  w.sim.spawn([](HatConnection& conn, HatServer& server, std::string& fb,
                 std::string& fa, std::string& s2, bool& lb, bool& la,
                 bool& l2) -> Task<void> {
    Reply r1 = co_await conn.call_raw("FastGet", View{});  // makes the channel
    r1 = co_await conn.call_raw(
        "FastGet", proto::to_buffer("first reply, held on"));
    lb = r1.envelope.in_place();
    fb = str_of(r1.view());
    // Window 1: this call re-acquires r1's slot and overwrites its area.
    Reply r2 = co_await conn.call_raw("FastGet",
                                      proto::to_buffer("second reply"));
    la = r1.envelope.in_place();
    fa = str_of(r1.view());
    l2 = r2.envelope.in_place();
    s2 = str_of(r2.view());
    server.stop();
  }(conn, server, first_before, first_after, second, lent_before, lent_after,
    second_lent));
  w.sim.run();
  EXPECT_TRUE(lent_before);
  EXPECT_FALSE(lent_after);  // recalled before the slot was reused
  EXPECT_EQ(first_before, "first reply, held on");
  EXPECT_EQ(first_after, "first reply, held on");
  EXPECT_TRUE(second_lent);
  EXPECT_EQ(second, "second reply");
  EXPECT_EQ(w.sim.live_tasks(), 0u);
}

TEST(LentReply, TwoConcurrentCallersShareOneWindowSlot) {
  World w;
  HatServer server(*w.server_node, lending_hints(), {});
  register_echo(server);
  HatConnection conn(*w.client, server);
  int ok = 0, calls = 0;
  auto caller = [](Simulator& sim, HatConnection& conn, std::string tag,
                   int& ok, int& calls) -> Task<void> {
    Reply held;
    std::string held_want;
    for (int i = 0; i < 6; ++i) {
      const std::string want = tag + std::to_string(i);
      Reply r = co_await conn.call_raw("FastGet", proto::to_buffer(want));
      co_await sim.sleep(700ns);  // the other caller reuses the slot
      ++calls;
      if (str_of(r.view()) == want) ++ok;
      // The reply kept from the previous round must still read right.
      if (i == 0 || str_of(held.view()) == held_want) ++ok;
      held = std::move(r);
      held_want = want;
    }
  };
  w.sim.spawn([](Simulator& sim, HatConnection& conn, HatServer& server,
                 auto caller, int& ok, int& calls) -> Task<void> {
    co_await conn.call_raw("FastGet", View{});  // makes the channel
    sim::WaitGroup wg(sim);
    wg.add(2);
    auto run = [](sim::WaitGroup& wg, Task<void> t) -> Task<void> {
      co_await std::move(t);
      wg.done();
    };
    sim.spawn(run(wg, caller(sim, conn, "alpha-", ok, calls)));
    sim.spawn(run(wg, caller(sim, conn, "beta-", ok, calls)));
    co_await wg.wait();
    server.stop();
  }(w.sim, conn, server, caller, ok, calls));
  w.sim.run();
  EXPECT_EQ(calls, 12);
  EXPECT_EQ(ok, 24);
  EXPECT_EQ(w.sim.live_tasks(), 0u);
}

TEST(LentReply, OutlivesCloseAndChannelDestruction) {
  // Everything the reply was lent from is destroyed before it is read, so
  // a missed recall reads freed memory (the sanitizer job reports it).
  Reply reply;
  bool lent = false;
  {
    auto w = std::make_unique<World>();
    auto server =
        std::make_unique<HatServer>(*w->server_node, lending_hints(),
                                    EngineConfig{});
    register_echo(*server);
    auto conn = std::make_unique<HatConnection>(*w->client, *server);
    w->sim.spawn([](HatConnection& conn, Reply& reply,
                    bool& lent) -> Task<void> {
      co_await conn.call_raw("FastGet", View{});
      reply = co_await conn.call_raw("FastGet",
                                     proto::to_buffer("outlives it all"));
      lent = reply.envelope.in_place();
    }(*conn, reply, lent));
    w->sim.run();
    conn->close();
    server->stop();
    w->sim.run();  // the serve loops wind down
    EXPECT_EQ(w->sim.live_tasks(), 0u);
    EXPECT_TRUE(reply.envelope.in_place());  // closing keeps the loan
    conn.reset();
    EXPECT_FALSE(reply.envelope.in_place());  // the channel recalled it
    server.reset();
    w.reset();
  }
  EXPECT_TRUE(lent);
  EXPECT_EQ(str_of(reply.view()), "outlives it all");
}

// ---- Fallbacks: same bytes, virtual times and counters as the staged path.

struct Outcome {
  std::vector<std::string> replies;  // or "throw: <what>"
  std::vector<int64_t> done_ns;
  std::vector<bool> in_block;
  std::string counters;
};

enum class Fallback { kFirstCall, kOversized, kNoFreeBlock, kTcp, kNonDirect };

Task<void> one_call(Simulator& sim, HatCaller& caller, std::string method,
                    std::string args, Outcome& out) {
  try {
    Reply r = co_await call_noting(caller, method, std::move(args),
                                   out.in_block);
    out.replies.push_back(str_of(r.view()));
  } catch (const std::exception& e) {
    out.replies.push_back(std::string("throw: ") + e.what());
  }
  out.done_ns.push_back(sim.now().count());
}

Outcome run_fallback(Fallback f, bool staged) {
  World w;
  HatServer server(*w.server_node, lending_hints(), {}, &w.net);
  register_echo(server);
  HatConnection conn(*w.client, server);
  StagedCaller staged_caller(conn);
  HatCaller& caller = staged ? static_cast<HatCaller&>(staged_caller) : conn;
  Outcome out;
  w.sim.spawn([](Simulator& sim, HatCaller& caller, HatServer& server,
                 Fallback f, Outcome& out) -> Task<void> {
    const std::string small(300, 's');
    switch (f) {
      case Fallback::kFirstCall:
        co_await one_call(sim, caller, "FastGet", small, out);
        break;
      case Fallback::kOversized:  // past FastGet's 64 KiB block
        co_await one_call(sim, caller, "FastGet", small, out);
        co_await one_call(sim, caller, "FastGet",
                          std::string(70 << 10, 'o'), out);
        break;
      case Fallback::kNoFreeBlock: {
        co_await one_call(sim, caller, "FastGet", small, out);
        sim::WaitGroup wg(sim);
        wg.add(2);
        auto run = [](sim::WaitGroup& wg, Task<void> t) -> Task<void> {
          co_await std::move(t);
          wg.done();
        };
        sim.spawn(run(wg, one_call(sim, caller, "FastGet", "one", out)));
        sim.spawn(run(wg, one_call(sim, caller, "FastGet", "two", out)));
        co_await wg.wait();
        break;
      }
      case Fallback::kTcp:
        co_await one_call(sim, caller, "Legacy", small, out);
        co_await one_call(sim, caller, "Legacy", small, out);
        break;
      case Fallback::kNonDirect:
        co_await one_call(sim, caller, "BulkPut", std::string(20000, 'b'),
                          out);
        co_await one_call(sim, caller, "BulkPut", std::string(20000, 'c'),
                          out);
        break;
    }
    server.stop();
  }(w.sim, caller, server, f, out));
  w.sim.run();
  EXPECT_EQ(w.sim.live_tasks(), 0u);
  out.counters = w.fabric.obs().counters.dump();
  return out;
}

TEST(EnvelopeFallback, EachFallbackMatchesTheStagedPath) {
  struct Case {
    Fallback f;
    const char* name;
    std::vector<bool> in_block;  // of the natural run's envelopes
  };
  const Case cases[] = {
      {Fallback::kFirstCall, "first call", {false}},
      {Fallback::kOversized, "envelope larger than a block", {false, false}},
      {Fallback::kNoFreeBlock, "more envelopes than blocks",
       {false, true, false}},
      {Fallback::kTcp, "tcp transport", {false, false}},
      {Fallback::kNonDirect, "non-Direct protocol", {false, false}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Outcome natural = run_fallback(c.f, false);
    const Outcome staged = run_fallback(c.f, true);
    EXPECT_EQ(natural.in_block, c.in_block);
    EXPECT_EQ(natural.replies, staged.replies);
    EXPECT_EQ(natural.done_ns, staged.done_ns);
    EXPECT_EQ(natural.counters, staged.counters);
  }
  // The oversized envelope fails like a staged one does.
  EXPECT_EQ(run_fallback(Fallback::kOversized, false).replies.back(),
            "throw: direct protocol: request exceeds the pre-known buffer");
}

// ---- Determinism: a seeded Direct Stream workload, run twice in one
// process, gives identical counters and virtual latencies (heap addresses
// differ between the runs, so nothing modeled may depend on them).

struct StreamRun {
  std::string counters;
  std::vector<int64_t> latency_ns;
  int mismatches = 0;
};

StreamRun run_stream(uint64_t seed, bool zero_copy) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server_node = fabric.add_node();
  EngineConfig cfg;
  cfg.channel.zero_copy = zero_copy;
  HatServer server(*server_node, lending_hints(), cfg);
  register_echo(server);
  constexpr int kClients = 3, kCalls = 8;
  std::vector<std::unique_ptr<HatConnection>> conns;
  for (int c = 0; c < kClients; ++c)
    conns.push_back(
        std::make_unique<HatConnection>(*fabric.add_node(), server));
  EXPECT_TRUE(proto::is_direct(conns[0]->plan_for("Stream").protocol));
  StreamRun run;
  sim::Rng rng(seed);
  sim::WaitGroup wg(sim);
  wg.add(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::string> payloads;
    for (int i = 0; i < kCalls; ++i)
      payloads.emplace_back((128 << 10) - (16 << 10) + rng.bounded(32 << 10),
                            static_cast<char>('a' + rng.bounded(26)));
    const auto start = sim::Duration(rng.bounded(50000));
    sim.spawn([](Simulator& sim, HatConnection& conn,
                 std::vector<std::string> payloads, sim::Duration start,
                 StreamRun& run, sim::WaitGroup& wg) -> Task<void> {
      co_await sim.sleep(start);
      for (const std::string& p : payloads) {
        const sim::Time t0 = sim.now();
        Reply r = co_await conn.call_raw(
            "Stream", View(reinterpret_cast<const std::byte*>(p.data()),
                           p.size()));
        run.latency_ns.push_back((sim.now() - t0).count());
        if (str_of(r.view()) != p) ++run.mismatches;
      }
      wg.done();
    }(sim, *conns[size_t(c)], std::move(payloads), start, run, wg));
  }
  sim.spawn([](sim::WaitGroup& wg, HatServer& server) -> Task<void> {
    co_await wg.wait();
    server.stop();
  }(wg, server));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  run.counters = fabric.obs().counters.dump();
  return run;
}

TEST(LentBuffersDeterminism, SeededStreamRunsRepeatIdentically) {
  for (bool zero_copy : {false, true}) {
    SCOPED_TRACE(zero_copy ? "zero-copy channels" : "staged channels");
    const StreamRun a = run_stream(7, zero_copy);
    const StreamRun b = run_stream(7, zero_copy);
    EXPECT_EQ(a.mismatches, 0);
    EXPECT_EQ(a.latency_ns.size(), 24u);
    EXPECT_EQ(a.latency_ns, b.latency_ns);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_FALSE(a.counters.empty());
  }
}

}  // namespace
}  // namespace hatrpc::core
