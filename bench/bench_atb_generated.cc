// ATB end-to-end on generated skeletons: unlike the Fig-4/11 channel-level
// microbenchmarks, this binary exercises the COMPLETE stack the paper's
// ATB uses — hatrpc-gen output (atb.hatrpc) -> Thrift serialization ->
// envelope -> hint-planned RDMA channels — and reports full-stack latency
// and mixed-workload throughput. One row per scenario, in simulated
// nanoseconds: Ping rows give the mean call latency, Mix rows the Ping
// calls' mean latency and the Stream calls' count over the run's span.
//
//   bench_atb_generated [--out F] [--filter S]
#include "atb_gen.h"
#include "core/engine.h"
#include "report.h"
#include "sim/rng.h"

namespace {

using namespace hatrpc;
using sim::Task;
using namespace std::chrono_literals;

class AtbHandler : public atb::AtbIf {
 public:
  explicit AtbHandler(verbs::Node& node) : node_(node) {}

  Task<std::string> Ping(const std::string& payload) override {
    co_await node_.cpu().compute(1us +
                                 sim::transfer_time(payload.size(), 20.0));
    co_return payload;
  }

  Task<std::string> Stream(const std::string& payload) override {
    co_await node_.cpu().compute(1us +
                                 sim::transfer_time(payload.size(), 20.0));
    co_return payload;
  }

 private:
  verbs::Node& node_;
};

struct AtbCluster {
  sim::Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* server_node = fabric.add_node();
  core::HatServer server{*server_node, atb::Atb_hints(), {}};
  AtbHandler handler{*server_node};

  AtbCluster() { atb::register_Atb(server.dispatcher(), handler); }
};

sim::Duration ping_latency(size_t bytes) {
  AtbCluster c;
  core::HatConnection conn(*c.fabric.add_node(), c.server);
  sim::Duration lat{};
  c.sim.spawn([](AtbCluster& c, core::HatConnection& conn, size_t bytes,
                 sim::Duration& lat) -> Task<void> {
    atb::AtbClient client(conn);
    std::string payload(bytes, 'p');
    co_await client.Ping(payload);  // warm-up (channel creation)
    sim::Time t0 = c.sim.now();
    for (int i = 0; i < 64; ++i) co_await client.Ping(payload);
    lat = (c.sim.now() - t0) / 64;
    c.server.stop();
  }(c, conn, bytes, lat));
  c.sim.run();
  return lat;
}

void mix_row(hatbench::Json& row, int clients) {
  AtbCluster c;
  std::vector<std::unique_ptr<core::HatConnection>> conns;
  std::vector<verbs::Node*> cnodes;
  for (int i = 0; i < 9; ++i) cnodes.push_back(c.fabric.add_node());
  sim::WaitGroup wg(c.sim);
  wg.add(size_t(clients));
  struct Totals {
    sim::Duration ping_total{};
    uint64_t pings = 0;
    uint64_t streams = 0;
  } totals;
  for (int i = 0; i < clients; ++i) {
    conns.push_back(std::make_unique<core::HatConnection>(
        *cnodes[size_t(i) % 9], c.server));
    c.sim.spawn([](AtbCluster& c, core::HatConnection& conn, int seed,
                   Totals& totals, sim::WaitGroup& wg) -> Task<void> {
      atb::AtbClient client(conn);
      sim::Rng rng(uint64_t(seed) + 11);
      std::string small(512, 's');
      std::string large(128 << 10, 'l');
      for (int op = 0; op < 20; ++op) {
        if (rng.chance(0.5)) {
          sim::Time t0 = c.sim.now();
          co_await client.Ping(small);
          totals.ping_total += c.sim.now() - t0;
          ++totals.pings;
        } else {
          co_await client.Stream(large);
          ++totals.streams;
        }
      }
      wg.done();
    }(c, *conns.back(), i, totals, wg));
  }
  sim::Time end{};
  c.sim.spawn([](AtbCluster& c, sim::WaitGroup& wg,
                 sim::Time& end) -> Task<void> {
    co_await wg.wait();
    end = c.sim.now();
    c.server.stop();
  }(c, wg, end));
  c.sim.run();
  row.put("pings", totals.pings)
      .put("ping_mean_ns",
           totals.pings ? (totals.ping_total / int64_t(totals.pings)).count()
                        : 0)
      .put("streams", totals.streams)
      .put("elapsed_ns", end.count());
}

}  // namespace

int main(int argc, char** argv) {
  hatbench::Figure fig("atb_generated", argc, argv);
  for (size_t bytes : {size_t(64), size_t(512), size_t(4096)}) {
    fig.add("ATB_e2e/Ping/" + std::to_string(bytes) + "B",
            [=](hatbench::Json& row) {
              row.put("latency_ns", ping_latency(bytes).count());
            });
  }
  for (int clients : {4, 16, 64}) {
    fig.add("ATB_e2e/Mix/c" + std::to_string(clients),
            [=](hatbench::Json& row) { mix_row(row, clients); });
  }
  return fig.run();
}
