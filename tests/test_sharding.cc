// Per-core sharded TServerRdma: round-robin steering, per-shard counter
// accounting, core binding, a golden pin of the default single-shard
// server's timeline and counters, and accept over every protocol kind.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "all_protocols.h"
#include "sim/sync.h"
#include "thrift/rdma.h"
#include "verbs/fabric.h"

namespace hatrpc {
namespace {

using namespace std::chrono_literals;
using sim::Task;

proto::Handler echo_handler(verbs::Node& server, int core = -1) {
  return [&server, core](proto::View req) -> Task<proto::Buffer> {
    co_await server.cpu().compute(1000ns, core);
    co_return proto::Buffer(req.begin(), req.end());
  };
}

struct Bed {
  sim::Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* server;
  std::vector<verbs::Node*> clients;

  explicit Bed(uint32_t n_clients) {
    server = fabric.add_node();
    for (uint32_t i = 0; i < n_clients; ++i)
      clients.push_back(fabric.add_node());
  }
};

std::vector<size_t> shard_loads(const thrift::TServerRdma& srv) {
  std::vector<size_t> loads;
  for (uint32_t i = 0; i < srv.shard_count(); ++i)
    loads.push_back(srv.shard(i).channels.size());
  return loads;
}

TEST(Steering, RoundRobinCyclesShards) {
  Bed bed(8);
  thrift::TServerRdma::Options so;
  so.shards = 4;
  thrift::TServerRdma srv(*bed.server, echo_handler(*bed.server), so);
  for (uint32_t c = 0; c < 8; ++c) {
    srv.accept(*bed.clients[c], proto::ProtocolKind::kEagerSendRecv,
               proto::ChannelConfig{});
    // Connection c lands on shard c % 4, in accept order.
    EXPECT_EQ(srv.shard(c % 4).channels.size(), c / 4 + 1) << "accept " << c;
  }
  EXPECT_EQ(shard_loads(srv), (std::vector<size_t>{2, 2, 2, 2}));
  for (uint32_t i = 0; i < 4; ++i)
    EXPECT_EQ(srv.shard(i).ctrs->get(obs::Ctr::kShardAccepts), 2u);
  srv.stop();
  bed.sim.run();
}

Task<void> call_n(sim::Simulator&, proto::RpcChannel& ch, uint32_t n,
                  sim::WaitGroup& wg) {
  proto::Buffer payload(64, std::byte{0x11});
  for (uint32_t i = 0; i < n; ++i) (co_await ch.call(payload, 64)).value();
  wg.done();
}

TEST(ShardCounters, PollsSumToServerNodeTotal) {
  Bed bed(4);
  thrift::TServerRdma::Options so;
  so.shards = 2;
  so.bind_cores = true;
  thrift::TServerRdma srv(*bed.server, echo_handler(*bed.server), so);
  std::vector<proto::RpcChannel*> chs;
  for (uint32_t c = 0; c < 4; ++c)
    chs.push_back(&srv.accept(*bed.clients[c],
                              proto::ProtocolKind::kEagerSendRecv,
                              proto::ChannelConfig{}));
  sim::WaitGroup wg(bed.sim);
  wg.add(4);
  for (uint32_t c = 0; c < 4; ++c)
    bed.sim.spawn(call_n(bed.sim, *chs[c], 8, wg));
  bed.sim.spawn([](sim::Simulator&, sim::WaitGroup& wg,
                   thrift::TServerRdma& srv) -> Task<void> {
    co_await wg.wait();
    srv.stop();
  }(bed.sim, wg, srv));
  bed.sim.run();

  auto& counters = bed.fabric.obs().counters;
  // Every server-side CQ belongs to a shard-attached channel, so the shard
  // scopes together mirror exactly the server node's CQE consumption.
  EXPECT_GT(counters.shard_total(obs::Ctr::kShardPolls), 0u);
  EXPECT_EQ(counters.shard_total(obs::Ctr::kShardPolls),
            counters.node(bed.server->id()).get(obs::Ctr::kCqesPolled));
  EXPECT_EQ(counters.shard_total(obs::Ctr::kShardAccepts), 4u);
  // Per-shard accepts match the steering outcome (round robin, 4 over 2).
  EXPECT_EQ(srv.shard(0).ctrs->get(obs::Ctr::kShardAccepts), 2u);
  EXPECT_EQ(srv.shard(1).ctrs->get(obs::Ctr::kShardAccepts), 2u);
}

TEST(ShardCounters, WindowStallsMirrorClientNodeTotals) {
  Bed bed(2);
  thrift::TServerRdma::Options so;
  so.shards = 2;
  thrift::TServerRdma srv(*bed.server, echo_handler(*bed.server), so);
  std::vector<proto::RpcChannel*> chs;
  for (uint32_t c = 0; c < 2; ++c)
    chs.push_back(&srv.accept(*bed.clients[c],
                              proto::ProtocolKind::kEagerSendRecv,
                              proto::ChannelConfig{}.with_window(2)));
  // Four concurrent lanes on a window-2 channel force stalls.
  sim::WaitGroup wg(bed.sim);
  wg.add(8);
  for (uint32_t c = 0; c < 2; ++c)
    for (int lane = 0; lane < 4; ++lane)
      bed.sim.spawn(call_n(bed.sim, *chs[c], 6, wg));
  bed.sim.spawn([](sim::Simulator&, sim::WaitGroup& wg,
                   thrift::TServerRdma& srv) -> Task<void> {
    co_await wg.wait();
    srv.stop();
  }(bed.sim, wg, srv));
  bed.sim.run();

  auto& counters = bed.fabric.obs().counters;
  uint64_t client_total = 0;
  for (verbs::Node* n : bed.clients)
    client_total += counters.node(n->id()).get(obs::Ctr::kWindowStalls);
  EXPECT_GT(counters.shard_total(obs::Ctr::kWindowStalls), 0u);
  EXPECT_EQ(counters.shard_total(obs::Ctr::kWindowStalls), client_total);
}

TEST(Sharding, PerShardSrqAndPoolArePrivate) {
  Bed bed(4);
  thrift::TServerRdma::Options so;
  so.shards = 2;
  so.srq_depth = 32;
  so.pool_block = 4096;
  so.pool_blocks = 4;
  std::vector<int> seen_cores;
  std::vector<proto::BufferPool*> seen_pools;
  thrift::TServerRdma::ShardProcessorFactory factory =
      [&](uint32_t, int core, proto::BufferPool* pool) {
        seen_cores.push_back(core);
        seen_pools.push_back(pool);
        return echo_handler(*bed.server, core);
      };
  so.bind_cores = true;
  thrift::TServerRdma srv(*bed.server, factory, so);
  ASSERT_EQ(srv.shard_count(), 2u);
  ASSERT_EQ(seen_cores.size(), 2u);
  EXPECT_EQ(seen_cores[0], 0);
  EXPECT_EQ(seen_cores[1], 1);
  EXPECT_NE(seen_pools[0], nullptr);
  EXPECT_NE(seen_pools[0], seen_pools[1]);
  EXPECT_NE(srv.shard(0).srq, nullptr);
  EXPECT_NE(srv.shard(0).srq, srv.shard(1).srq);

  std::vector<proto::RpcChannel*> chs;
  for (uint32_t c = 0; c < 4; ++c)
    chs.push_back(&srv.accept(*bed.clients[c],
                              proto::ProtocolKind::kDirectWriteImm,
                              proto::ChannelConfig{}));
  sim::WaitGroup wg(bed.sim);
  wg.add(4);
  for (uint32_t c = 0; c < 4; ++c)
    bed.sim.spawn(call_n(bed.sim, *chs[c], 4, wg));
  bed.sim.spawn([](sim::Simulator&, sim::WaitGroup& wg,
                   thrift::TServerRdma& srv) -> Task<void> {
    co_await wg.wait();
    srv.stop();
  }(bed.sim, wg, srv));
  bed.sim.run();
  EXPECT_EQ(bed.fabric.obs().counters.shard_total(obs::Ctr::kShardAccepts),
            4u);
}

TEST(Sharding, DefaultServerReproducesTheUnshardedGolden) {
  // The end time and node/channel counters the unsharded server produced
  // on this workload before it was folded into the sharded one. The
  // default server (one unbound shard) must reproduce both; its shard
  // registry only APPENDS its own line to the dump.
  constexpr sim::Time kGoldenEnd{40416};
  const std::string kGoldenDump =
      "node/0: doorbells=30 wqes_posted=30 cqes_polled=57 dma_bytes=4320 "
      "copy_bytes=4080 mr_bytes=393216\n"
      "node/1: doorbells=10 wqes_posted=10 cqes_polled=19 dma_bytes=1440 "
      "copy_bytes=1360 mr_bytes=131072\n"
      "node/2: doorbells=10 wqes_posted=10 cqes_polled=19 dma_bytes=1440 "
      "copy_bytes=1360 mr_bytes=131072\n"
      "node/3: doorbells=10 wqes_posted=10 cqes_polled=19 dma_bytes=1440 "
      "copy_bytes=1360 mr_bytes=131072\n"
      "channel/0: doorbells=20 wqes_posted=20 dma_bytes=1440 "
      "copy_bytes=2720\n"
      "channel/1: doorbells=20 wqes_posted=20 dma_bytes=1440 "
      "copy_bytes=2720\n"
      "channel/2: doorbells=20 wqes_posted=20 dma_bytes=1440 "
      "copy_bytes=2720\n";
  Bed bed(3);
  thrift::TServerRdma srv(*bed.server, echo_handler(*bed.server));
  std::vector<proto::RpcChannel*> chs;
  for (uint32_t c = 0; c < 3; ++c)
    chs.push_back(&srv.accept(*bed.clients[c],
                              proto::ProtocolKind::kEagerSendRecv,
                              proto::ChannelConfig{}.with_window(2)));
  sim::WaitGroup wg(bed.sim);
  wg.add(3);
  for (proto::RpcChannel* ch : chs)
    bed.sim.spawn(call_n(bed.sim, *ch, 10, wg));
  sim::Time end{};
  bed.sim.spawn([](sim::Simulator& sim, sim::WaitGroup& wg, sim::Time& end,
                   thrift::TServerRdma& srv) -> Task<void> {
    co_await wg.wait();
    end = sim.now();
    srv.stop();
  }(bed.sim, wg, end, srv));
  bed.sim.run();
  EXPECT_EQ(end, kGoldenEnd);
  EXPECT_EQ(bed.fabric.obs().counters.dump(),
            kGoldenDump + "shard/0: shard_accepts=3 shard_polls=57\n");
}

TEST(Sharding, ZeroShardsIsRejected) {
  Bed bed(1);
  thrift::TServerRdma::Options so;
  so.shards = 0;
  EXPECT_THROW(thrift::TServerRdma(*bed.server, echo_handler(*bed.server), so),
               std::invalid_argument);
  EXPECT_THROW(
      thrift::TServerRdma(
          *bed.server,
          [&bed](uint32_t, int, proto::BufferPool*) {
            return echo_handler(*bed.server);
          },
          so),
      std::invalid_argument);
}

// Every protocol kind, accepted by the default server and by a sharded one
// with an SRQ, echoes under both polling disciplines and leaves no task
// behind after stop(). 512 B and 8 KiB calls take both halves of the
// hybrid kinds.
using AcceptCase = std::tuple<proto::ProtocolKind, bool, sim::PollMode>;

class TServerRdma : public ::testing::TestWithParam<AcceptCase> {};

TEST_P(TServerRdma, AcceptServesEveryProtocolKind) {
  const auto [kind, sharded, poll] = GetParam();
  Bed bed(1);
  thrift::TServerRdma::Options so;
  if (sharded) so = {.srq_depth = 32, .shards = 2};
  thrift::TServerRdma srv(*bed.server, echo_handler(*bed.server), so);
  proto::RpcChannel& ch =
      srv.accept(*bed.clients[0], kind, proto::ChannelConfig{}.with_poll(poll));
  int echoed = 0;
  bed.sim.spawn([](proto::RpcChannel& ch, thrift::TServerRdma& srv,
                   int& echoed) -> Task<void> {
    for (uint32_t bytes : {512u, 8192u}) {
      proto::Buffer payload(bytes);
      for (uint32_t i = 0; i < bytes; ++i)
        payload[i] = std::byte(i * 7 + bytes);
      proto::CallResult r = co_await ch.call(payload, bytes);
      if (r.ok() && r.value() == payload) ++echoed;
    }
    srv.stop();
  }(ch, srv, echoed));
  bed.sim.run();
  EXPECT_EQ(echoed, 2);
  EXPECT_EQ(bed.sim.live_tasks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TServerRdma,
    ::testing::Combine(::testing::ValuesIn(proto::kAllProtocols),
                       ::testing::Bool(),
                       ::testing::Values(sim::PollMode::kBusy,
                                         sim::PollMode::kEvent)),
    [](const auto& info) {
      std::string name(proto::to_string(std::get<0>(info.param)));
      std::erase(name, '-');
      name += std::get<1>(info.param) ? "_Sharded" : "_Default";
      name += std::get<2>(info.param) == sim::PollMode::kBusy ? "_Busy"
                                                               : "_Event";
      return name;
    });

}  // namespace
}  // namespace hatrpc
