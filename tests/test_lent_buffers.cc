// The zero-copy paths of Direct calls. Client side: a stub serializes into
// a send block the Direct channel lends, and the reply is lent from the
// channel's response slot. Server side: the handler writes its reply into
// the slot's registered response area, which the reply is posted from.
// Pins the lent reply's lifetime (recalled before its slot is reused or its
// channel dies), that every fallback to the heap envelope and every
// in-place reply gives the same bytes, virtual times and counters as the
// staged path, and that repeated seeded runs in one process stay identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "proto/reliable.h"
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

TEST(LentReply, EachLentReplyCountsOneRecvLease) {
  // Five engine Direct calls lend five replies. The first is held across
  // the next call, which reuses its slot and recalls it: still one lease.
  World w;
  HatServer server(*w.server_node, lending_hints(), {});
  register_echo(server);
  HatConnection conn(*w.client, server);
  bool recalled = false;
  w.sim.spawn([](HatConnection& conn, HatServer& server,
                 bool& recalled) -> Task<void> {
    Reply held = co_await conn.call_raw("FastGet", proto::to_buffer("held"));
    for (int i = 0; i < 4; ++i)
      co_await conn.call_raw("FastGet", proto::to_buffer("next"));
    recalled = !held.envelope.in_place() && str_of(held.view()) == "held";
    server.stop();
  }(conn, server, recalled));
  w.sim.run();
  EXPECT_TRUE(recalled);
  const obs::Counters& ctrs = w.fabric.obs().counters;
  EXPECT_EQ(ctrs.node(w.client->id()).get(obs::Ctr::kRecvLeases), 5u);
  EXPECT_EQ(ctrs.node(w.server_node->id()).get(obs::Ctr::kRecvLeases), 0u);
  uint64_t channel_leases = 0;
  for (uint32_t c = 0; c < ctrs.channel_count(); ++c)
    channel_leases += ctrs.channel(c).get(obs::Ctr::kRecvLeases);
  EXPECT_EQ(channel_leases, 5u);
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

StreamRun run_stream(uint64_t seed) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server_node = fabric.add_node();
  HatServer server(*server_node, lending_hints(), EngineConfig{});
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
  const StreamRun a = run_stream(7);
  const StreamRun b = run_stream(7);
  EXPECT_EQ(a.mismatches, 0);
  EXPECT_EQ(a.latency_ns.size(), 24u);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_FALSE(a.counters.empty());
}

// ---- In-place server replies: a handler writes its reply into its Direct
// slot's response area. Each case must equal its staged twin, the same
// handler behind a Buffer-returning shim (it gets no area, so the channel
// stages its reply into the area), in reply bytes, completion times and
// counters.

using proto::ProtocolKind;

constexpr ProtocolKind kDirectKinds[] = {ProtocolKind::kDirectWriteSend,
                                         ProtocolKind::kChainedWriteSend,
                                         ProtocolKind::kDirectWriteImm};

/// The staged twin of an area handler.
proto::Handler staged_twin(proto::Handler h) {
  return [h](View req) -> Task<Buffer> {
    co_return (co_await h(req, {})).take();
  };
}

/// Forwards to `h`, noting whether each reply was written in place.
proto::Handler noting_in_area(proto::Handler h, std::vector<bool>& in_area) {
  return [h, &in_area](View req,
                       std::span<std::byte> area) -> Task<proto::Response> {
    proto::Response r = co_await h(req, area);
    in_area.push_back(r.in_area());
    co_return r;
  };
}

/// Echoes the request in `pieces` parts with a compute step after each, into
/// the area when it fits, so a reply is written across suspension points
/// while other slots' handlers write and their replies are in flight.
proto::Handler piecewise_echo(verbs::Node& server, int pieces) {
  return [&server, pieces](
             View req, std::span<std::byte> area) -> Task<proto::Response> {
    const bool fits = req.size() <= area.size();
    Buffer own(fits ? 0 : req.size());
    std::byte* dst = fits ? area.data() : own.data();
    size_t done = 0;
    for (int i = 1; i <= pieces; ++i) {
      const size_t end = req.size() * size_t(i) / size_t(pieces);
      std::copy(req.begin() + ptrdiff_t(done), req.begin() + ptrdiff_t(end),
                dst + done);
      co_await server.cpu().compute(150ns + sim::Duration((end - done) / 8));
      done = end;
    }
    if (!fits) co_return own;
    co_return proto::Response::written(req.size());
  };
}

struct RawRun {
  std::vector<std::string> replies;  // completion order; or "throw: <what>"
  std::vector<int64_t> done_ns;
  std::string counters;
};

/// Drives one raw channel: each lane is a client task issuing its requests
/// in turn; with several lanes the channel's window is their number.
RawRun run_raw(ProtocolKind kind,
               const std::vector<std::vector<std::string>>& lanes,
               const std::function<proto::Handler(verbs::Node&)>& handler,
               uint32_t max_msg = 64 << 10) {
  Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* client = fabric.add_node();
  verbs::Node* server = fabric.add_node();
  proto::ChannelConfig cfg;
  cfg.with_max_msg(max_msg).with_window(uint32_t(lanes.size()));
  auto ch = proto::make_channel(kind, *client, *server, handler(*server), cfg);
  RawRun run;
  std::vector<std::vector<Buffer>> reqs;
  for (const auto& lane : lanes) {
    reqs.emplace_back();
    for (const std::string& r : lane) reqs.back().push_back(proto::to_buffer(r));
  }
  sim::WaitGroup wg(sim);
  wg.add(int(lanes.size()));
  for (const auto& lane : reqs) {
    sim.spawn([](Simulator& sim, proto::RpcChannel& ch,
                 const std::vector<Buffer>& reqs, RawRun& run,
                 sim::WaitGroup& wg) -> Task<void> {
      for (const Buffer& r : reqs) {
        try {
          proto::CallResult res = co_await ch.call(r);
          run.replies.push_back(str_of(res.value()));
        } catch (const std::exception& e) {
          run.replies.push_back(std::string("throw: ") + e.what());
        }
        run.done_ns.push_back(sim.now().count());
      }
      wg.done();
    }(sim, *ch, lane, run, wg));
  }
  sim.spawn([](sim::WaitGroup& wg, proto::RpcChannel& ch) -> Task<void> {
    co_await wg.wait();
    ch.shutdown();
  }(wg, *ch));
  sim.run();
  EXPECT_EQ(sim.live_tasks(), 0u);
  run.counters = fabric.obs().counters.dump();
  return run;
}

void expect_same(const RawRun& natural, const RawRun& staged) {
  EXPECT_EQ(natural.replies, staged.replies);
  EXPECT_EQ(natural.done_ns, staged.done_ns);
  EXPECT_EQ(natural.counters, staged.counters);
}

/// A distinct payload per call, seeded.
std::string payload(sim::Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>('!' + rng.bounded(90));
  return s;
}

TEST(InPlaceReply, EveryDirectVariantMatchesTheStagedPath) {
  for (ProtocolKind kind : kDirectKinds) {
    for (size_t bytes : {size_t(40), size_t(6000)}) {
      SCOPED_TRACE(std::string(proto::to_string(kind)) + " " +
                   std::to_string(bytes) + " B");
      sim::Rng rng(bytes);
      const std::vector<std::vector<std::string>> lanes = {
          {payload(rng, bytes), payload(rng, bytes), payload(rng, bytes)}};
      std::vector<bool> in_area;
      const RawRun natural = run_raw(kind, lanes, [&](verbs::Node& sv) {
        return noting_in_area(piecewise_echo(sv, 1), in_area);
      });
      const RawRun staged = run_raw(kind, lanes, [](verbs::Node& sv) {
        return staged_twin(piecewise_echo(sv, 1));
      });
      EXPECT_EQ(natural.replies, lanes[0]);
      EXPECT_EQ(in_area, (std::vector<bool>{true, true, true}));
      expect_same(natural, staged);
    }
  }
}

TEST(InPlaceReply, WindowedRepliesWrittenInPiecesStayInTheirSlots) {
  for (ProtocolKind kind : kDirectKinds) {
    SCOPED_TRACE(std::string(proto::to_string(kind)));
    sim::Rng rng(17);
    std::vector<std::vector<std::string>> lanes(4);
    std::vector<std::string> want;
    for (auto& lane : lanes)
      for (int i = 0; i < 6; ++i) {
        lane.push_back(payload(rng, 3000 + rng.bounded(6000)));
        want.push_back(lane.back());
      }
    std::vector<bool> in_area;
    const RawRun natural = run_raw(kind, lanes, [&](verbs::Node& sv) {
      return noting_in_area(piecewise_echo(sv, 4), in_area);
    });
    const RawRun staged = run_raw(kind, lanes, [](verbs::Node& sv) {
      return staged_twin(piecewise_echo(sv, 4));
    });
    // Every call got its own payload back, whatever order they finished.
    std::vector<std::string> got = natural.replies;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(in_area, std::vector<bool>(24, true));
    expect_same(natural, staged);
  }
}

TEST(InPlaceReply, BufferHandlerRepliesAreUnchanged) {
  // A Buffer-returning handler stages into the area once, as before the
  // area existed. The completion times and counters are pinned from the
  // code before in-place replies.
  sim::Rng rng(5);
  std::vector<std::vector<std::string>> lanes(2);
  for (auto& lane : lanes)
    for (size_t n : {size_t(48), size_t(20000), size_t(700)})
      lane.push_back(payload(rng, n));
  const RawRun run = run_raw(
      ProtocolKind::kDirectWriteImm, lanes,
      [](verbs::Node& sv) -> proto::Handler {
        return [&sv](View req) -> Task<Buffer> {
          co_await sv.cpu().compute(300ns + sim::Duration(req.size() / 8));
          co_return Buffer(req.rbegin(), req.rend());
        };
      });
  std::vector<std::string> want;
  for (const auto& lane : lanes)
    for (const std::string& p : lane) want.emplace_back(p.rbegin(), p.rend());
  std::vector<std::string> got = run.replies;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(run.done_ns, (std::vector<int64_t>{2278, 2278, 10142, 11754,
                                               12485, 14097}));
  EXPECT_EQ(run.counters,
            "node/0: doorbells=4 wqes_posted=6 cqes_polled=6 "
            "dma_bytes=82992 mr_bytes=262144 doorbell_coalesced_wqes=2 "
            "cq_batch_polls=5\n"
            "node/1: doorbells=5 wqes_posted=6 cqes_polled=6 "
            "dma_bytes=82992 mr_bytes=262144 doorbell_coalesced_wqes=1 "
            "cq_batch_polls=5\n"
            "channel/0: doorbells=9 wqes_posted=12 dma_bytes=82992 "
            "doorbell_coalesced_wqes=3\n");
}

/// A dispatcher method that writes part of its result, then fails.
void register_failing(HatServer& server) {
  server.dispatcher().register_method(
      "Stream", [&server](View args, thrift::TMemoryBuffer& out) -> Task<void> {
        thrift::TBinaryProtocol p(out);
        p.writeStructBegin("Stream_result");
        p.writeFieldBegin(thrift::TType::kString, 0);
        p.writeString(str_of(args));  // most of the result is written
        co_await server.node().cpu().compute(2us);
        throw std::runtime_error("failed after " +
                                 std::to_string(args.size()) + " bytes");
      });
}

/// A raw call envelope for `method` with `args`.
Buffer envelope_of(const std::string& method, const std::string& args,
                   int32_t seqid) {
  Envelope env(method);
  env.buffer().write(args.data(), args.size());
  HatDispatcher::stamp_seqid(env.bytes(), seqid);
  return Buffer(env.view().begin(), env.view().end());
}

TEST(InPlaceReply, ThrowingMethodRepliesWithTheExceptionInPlace) {
  const std::string args(9000, 'x');
  auto run = [&](bool staged, std::vector<bool>* in_area) {
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* client = fabric.add_node();
    verbs::Node* server_node = fabric.add_node();
    HatServer server(*server_node, lending_hints(), {});
    register_failing(server);
    proto::Handler h = staged ? staged_twin(server.processor())
                              : noting_in_area(server.processor(), *in_area);
    auto ch = proto::make_channel(ProtocolKind::kDirectWriteImm, *client,
                                  *server_node, h,
                                  proto::ChannelConfig{}.with_max_msg(64 << 10));
    RawRun out;
    sim.spawn([](Simulator& sim, proto::RpcChannel& ch, Buffer req,
                 RawRun& out) -> Task<void> {
      for (int i = 0; i < 2; ++i) {
        Buffer reply = (co_await ch.call(req)).value();
        out.done_ns.push_back(sim.now().count());
        try {
          HatDispatcher::reply_of(std::move(reply), "Stream");
          out.replies.push_back("no exception");
        } catch (const thrift::TApplicationException& e) {
          out.replies.push_back(
              std::to_string(static_cast<int>(e.kind())) + ": " + e.what());
        }
      }
      ch.shutdown();
    }(sim, *ch, envelope_of("Stream", args, 1), out));
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
    out.counters = fabric.obs().counters.dump();
    return out;
  };
  std::vector<bool> in_area;
  const RawRun natural = run(false, &in_area);
  const RawRun staged = run(true, nullptr);
  const std::string want =
      "6: failed after " + std::to_string(args.size()) + " bytes";
  EXPECT_EQ(natural.replies, (std::vector<std::string>{want, want}));
  EXPECT_EQ(in_area, (std::vector<bool>{true, true}));
  expect_same(natural, staged);

  // Through HatConnection the caller sees the same exception.
  World w;
  HatServer server(*w.server_node, lending_hints(), {});
  register_failing(server);
  HatConnection conn(*w.client, server);
  std::vector<std::string> seen;
  w.sim.spawn([](HatConnection& conn, HatServer& server, std::string args,
                 std::vector<std::string>& seen) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      try {
        co_await conn.call_raw("Stream", proto::to_buffer(args));
        seen.push_back("no exception");
      } catch (const thrift::TApplicationException& e) {
        seen.push_back(std::to_string(static_cast<int>(e.kind())) + ": " +
                       e.what());
      }
    }
    server.stop();
  }(conn, server, args, seen));
  w.sim.run();
  EXPECT_EQ(seen, (std::vector<std::string>{want, want}));
  EXPECT_EQ(w.sim.live_tasks(), 0u);
}

/// FastGet echoes its args, except "big", which answers 70 KiB: more than
/// FastGet's 64 KiB Direct slots.
void register_growing(HatServer& server) {
  server.dispatcher().register_method(
      "FastGet", [](View args, thrift::TMemoryBuffer& out) -> Task<void> {
        if (str_of(args) == "big") {
          const std::string big(70 << 10, 'g');
          out.write(big.data(), big.size());
        } else {
          out.write(args.data(), args.size());
        }
        co_return;
      });
}

TEST(InPlaceReply, ReplyLargerThanTheAreaFailsOnlyItsCall) {
  const std::vector<std::string> args = {"one", "big", "two"};
  const std::vector<std::string> want = {
      "one", "throw: direct protocol: response exceeds the pre-known buffer",
      "two"};
  World w;
  HatServer server(*w.server_node, lending_hints(), {});
  register_growing(server);
  HatConnection conn(*w.client, server);
  std::vector<std::string> got;
  w.sim.spawn([](HatConnection& conn, HatServer& server,
                 std::vector<std::string> args,
                 std::vector<std::string>& got) -> Task<void> {
    for (const std::string& a : args) {
      try {
        Reply r = co_await conn.call_raw("FastGet", proto::to_buffer(a));
        got.push_back(str_of(r.view()));
      } catch (const std::length_error& e) {
        got.push_back(std::string("throw: ") + e.what());
      }
    }
    server.stop();
  }(conn, server, args, got));
  w.sim.run();
  EXPECT_EQ(got, want);
  EXPECT_EQ(w.sim.live_tasks(), 0u);

  // The spilled reply costs what a staged one does.
  auto run = [&](bool staged, std::vector<bool>* in_area) {
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* client = fabric.add_node();
    verbs::Node* server_node = fabric.add_node();
    HatServer server(*server_node, lending_hints(), {});
    register_growing(server);
    proto::Handler h = staged ? staged_twin(server.processor())
                              : noting_in_area(server.processor(), *in_area);
    auto ch = proto::make_channel(ProtocolKind::kDirectWriteImm, *client,
                                  *server_node, h,
                                  proto::ChannelConfig{}.with_max_msg(64 << 10));
    RawRun out;
    sim.spawn([](Simulator& sim, proto::RpcChannel& ch,
                 std::vector<std::string> args, RawRun& out) -> Task<void> {
      int32_t seq = 0;
      for (const std::string& a : args) {
        try {
          Buffer reply =
              (co_await ch.call(envelope_of("FastGet", a, ++seq))).value();
          out.replies.push_back(
              str_of(HatDispatcher::reply_of(std::move(reply), "FastGet")
                         .view()));
        } catch (const std::length_error& e) {
          out.replies.push_back(std::string("throw: ") + e.what());
        }
        out.done_ns.push_back(sim.now().count());
      }
      ch.shutdown();
    }(sim, *ch, args, out));
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
    out.counters = fabric.obs().counters.dump();
    return out;
  };
  std::vector<bool> in_area;
  const RawRun natural = run(false, &in_area);
  const RawRun staged = run(true, nullptr);
  EXPECT_EQ(natural.replies, want);
  EXPECT_EQ(in_area, (std::vector<bool>{true, false, true}));
  expect_same(natural, staged);
}

TEST(InPlaceReply, ReliableDirectReplayIsWrittenIntoTheArea) {
  // The client QP dies after the request reached the server; the retry
  // carries the same sequence number and is answered from the replay
  // cache, into the new channel's area.
  auto run = [](bool staged, int& executed, uint64_t& replays) {
    Simulator sim;
    verbs::Fabric fabric(sim);
    verbs::Node* cl = fabric.add_node();
    verbs::Node* sv = fabric.add_node();
    proto::Handler slow = [&sim, &executed](
                              View req, std::span<std::byte> area)
        -> Task<proto::Response> {
      ++executed;
      std::copy(req.begin(), req.end(), area.begin());
      co_await sim.sleep(30us);  // the reply is outstanding when the QP dies
      co_return proto::Response::written(req.size());
    };
    proto::Handler echo = [&sim, &executed](View req) -> Task<Buffer> {
      ++executed;
      co_await sim.sleep(30us);
      co_return Buffer(req.begin(), req.end());
    };
    proto::RetryPolicy pol;
    pol.backoff_base = 50us;  // the retry lands after the handler finished
    pol.fallback_to_eager = false;
    auto ch = proto::make_reliable_channel(
        ProtocolKind::kDirectWriteImm, *cl, *sv, staged ? echo : slow,
        proto::ChannelConfig{}.with_max_msg(64 << 10), pol);
    auto plan = std::make_unique<verbs::FaultPlan>(5);
    plan->fail_qp_at(1, sim::Time(25us));  // qp 1 = the client QP
    fabric.set_fault_plan(std::move(plan));
    RawRun out;
    sim.spawn([](Simulator& sim, proto::ReliableChannel& ch,
                 RawRun& out) -> Task<void> {
      for (const char* msg : {"needs-retry", "then-fresh"}) {
        Buffer r = (co_await ch.call(proto::to_buffer(msg))).value();
        out.replies.push_back(str_of(r));
        out.done_ns.push_back(sim.now().count());
      }
      ch.abort();
    }(sim, *ch, out));
    sim.run();
    EXPECT_EQ(sim.live_tasks(), 0u);
    replays = ch->counters()->get(obs::Ctr::kReplays);
    out.counters = fabric.obs().counters.dump();
    return out;
  };
  int executed_natural = 0, executed_staged = 0;
  uint64_t replays_natural = 0, replays_staged = 0;
  const RawRun natural = run(false, executed_natural, replays_natural);
  const RawRun staged = run(true, executed_staged, replays_staged);
  EXPECT_EQ(natural.replies,
            (std::vector<std::string>{"needs-retry", "then-fresh"}));
  EXPECT_EQ(executed_natural, 2);
  EXPECT_EQ(replays_natural, 1u);
  EXPECT_EQ(executed_staged, 2);
  EXPECT_EQ(replays_staged, 1u);
  expect_same(natural, staged);
}

}  // namespace
}  // namespace hatrpc::core
