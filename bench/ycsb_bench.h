// Shared implementation of the YCSB-on-HatKV comparison (Figs. 15 and 16):
// six configurations — HatRPC-Function, HatRPC-Service, and the emulated
// AR-gRPC / HERD / Pilaf / RFP comparators — all sharing the SAME mdblite
// backend and dispatcher (the paper's "same backend implementation to
// avoid unfair comparison"), differing only in the communication path.
// Topology per §5.4: 1 server node, 128 clients over 4 client nodes.
// Each row reports the run's span (`span_ns`) and, per operation type, its
// count and mean latency (`GET_ops`, `GET_mean_ns`, ...): per-operation
// throughput is ops over the span, the figure's first panel.
#pragma once

#include "kv/hatkv.h"
#include "report.h"
#include "ycsb/ycsb.h"

namespace hatbench {

using namespace hatrpc;
using sim::Task;
using namespace std::chrono_literals;

struct YcsbSetup {
  const char* label;
  bool engine;  // true: HatConnection (hint-driven); false: fixed protocol
  bool function_hints;                 // engine only
  proto::ProtocolKind fixed_protocol;  // comparator only
};

inline const std::vector<YcsbSetup>& ycsb_setups() {
  static const std::vector<YcsbSetup> setups{
      {"HatRPC-Function", true, true, proto::ProtocolKind::kDirectWriteImm},
      {"HatRPC-Service", true, false, proto::ProtocolKind::kDirectWriteImm},
      {"AR-gRPC", false, false, proto::ProtocolKind::kArGrpc},
      {"HERD", false, false, proto::ProtocolKind::kHerd},
      {"Pilaf", false, false, proto::ProtocolKind::kPilaf},
      {"RFP", false, false, proto::ProtocolKind::kRfp},
  };
  return setups;
}

/// HatCaller over one fixed protocol channel (the comparator emulations),
/// charging the same serialization costs as the engine path.
class FixedCaller : public core::HatCaller {
 public:
  FixedCaller(verbs::Node& client, verbs::Node& server,
              proto::Handler processor, proto::ProtocolKind kind) {
    proto::ChannelConfig cfg;
    cfg.client_poll = sim::PollMode::kEvent;  // 128 clients: scalable mode
    cfg.server_poll = sim::PollMode::kEvent;
    cfg.max_msg = 64 << 10;
    channel_ = proto::make_channel(kind, client, server,
                                   std::move(processor), cfg);
    cpu_ = &client.cpu();
  }

  Task<core::Reply> call(std::string method,
                         core::Envelope envelope) override {
    co_await cpu_->compute(2us + sim::transfer_time(envelope.size(), 1.0));
    // Response sizing pre-knowledge mirrors what each system's client
    // would configure: ~1KB single ops, ~11KB batched ops.
    uint32_t hint = method.starts_with("Multi") ? 11 << 10 : 1200;
    core::Buffer reply =
        (co_await channel_->call(envelope.view(), hint)).value();
    co_await cpu_->compute(2us + sim::transfer_time(reply.size(), 1.0));
    co_return core::HatDispatcher::reply_of(std::move(reply), method);
  }

  void shutdown() { channel_->shutdown(); }

 private:
  std::unique_ptr<proto::RpcChannel> channel_;
  sim::Cpu* cpu_ = nullptr;
};

struct YcsbRunResult {
  ycsb::StatsCollector stats;
  sim::Duration span{};
};

inline hint::ServiceHints service_only_hints() {
  hint::ServiceHints h;
  h.service().add(hint::Side::kShared, hint::Key::kConcurrency,
                  hint::parse_value(hint::Key::kConcurrency, "128"));
  h.service().add(hint::Side::kShared, hint::Key::kPerfGoal,
                  hint::parse_value(hint::Key::kPerfGoal, "throughput"));
  return h;
}

inline YcsbRunResult run_ycsb(const YcsbSetup& setup,
                              ycsb::WorkloadSpec spec, int clients,
                              int ops_per_client) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server_node = fabric.add_node();
  std::vector<verbs::Node*> client_nodes;
  for (int i = 0; i < 4; ++i) client_nodes.push_back(fabric.add_node());

  hint::ServiceHints hints = setup.engine && setup.function_hints
                                 ? hatkv::HatKV_hints()
                                 : service_only_hints();
  // Full-Thrift-stack software costs (the paper's server runs the complete
  // Apache Thrift processor; YCSB clients add comparable work): multi-us
  // per-message serialization keeps the system communication/CPU-bound,
  // like the paper's testbed, rather than storage-bound.
  core::EngineConfig ecfg;
  ecfg.serialize_fixed = 2us;
  ecfg.serialize_gbps = 1.0;
  core::HatServer server(*server_node, std::move(hints), ecfg);
  kv::HatKVHandler handler(
      *server_node, kv::HatKVConfig::from_hints(hatkv::HatKV_hints()));
  hatkv::register_HatKV(server.dispatcher(), handler);

  std::vector<std::unique_ptr<core::HatConnection>> conns;
  std::vector<std::unique_ptr<FixedCaller>> fixed;
  std::vector<core::HatCaller*> callers;
  for (int c = 0; c < clients; ++c) {
    verbs::Node* cn = client_nodes[size_t(c) % client_nodes.size()];
    if (setup.engine) {
      conns.push_back(std::make_unique<core::HatConnection>(*cn, server));
      callers.push_back(conns.back().get());
    } else {
      fixed.push_back(std::make_unique<FixedCaller>(
          *cn, *server_node, server.processor(), setup.fixed_protocol));
      callers.push_back(fixed.back().get());
    }
  }

  YcsbRunResult result;
  sim::WaitGroup wg(sim);
  wg.add(size_t(clients));
  for (int c = 0; c < clients; ++c) {
    sim.spawn([](sim::Simulator& sim, core::HatCaller* caller,
                 ycsb::WorkloadSpec spec, int c, int clients,
                 int ops_per_client, ycsb::StatsCollector& stats,
                 sim::WaitGroup& wg) -> Task<void> {
      hatkv::HatKVClient client(*caller);
      ycsb::WorkloadGenerator gen(spec, uint64_t(c) * 101 + 7);
      sim::Rng vrng(uint64_t(c) * 13 + 1);
      // Load phase: each client loads its stripe of the keyspace.
      for (uint64_t k = uint64_t(c); k < spec.record_count;
           k += uint64_t(clients))
        co_await client.Put(gen.key_of(k), gen.make_value(vrng));
      // Run phase.
      for (int i = 0; i < ops_per_client; ++i) {
        ycsb::Op op = gen.next();
        sim::Time t0 = sim.now();
        switch (op.type) {
          case ycsb::OpType::kGet:
            co_await client.Get(op.keys[0]);
            break;
          case ycsb::OpType::kPut:
            co_await client.Put(op.keys[0], op.values[0]);
            break;
          case ycsb::OpType::kMultiGet:
            co_await client.MultiGet(op.keys);
            break;
          case ycsb::OpType::kMultiPut: {
            std::vector<hatkv::KVPair> pairs(op.keys.size());
            for (size_t j = 0; j < op.keys.size(); ++j) {
              pairs[j].key = op.keys[j];
              pairs[j].value = op.values[j];
            }
            co_await client.MultiPut(pairs);
            break;
          }
        }
        stats.record(op.type, sim.now() - t0);
      }
      wg.done();
    }(sim, callers[size_t(c)], spec, c, clients, ops_per_client,
      result.stats, wg));
  }
  sim::Time end{};
  sim.spawn([](sim::Simulator& sim, sim::WaitGroup& wg, sim::Time& end,
               core::HatServer& server,
               std::vector<std::unique_ptr<FixedCaller>>& fixed)
                -> Task<void> {
    co_await wg.wait();
    end = sim.now();
    server.stop();
    for (auto& f : fixed) f->shutdown();
  }(sim, wg, end, server, fixed));
  sim.run();
  result.span = end;
  return result;
}

/// The YCSB figure `bench` (rows "<prefix>/<system>") on `spec`.
inline int run_ycsb_figure(const char* bench, const char* prefix,
                           const ycsb::WorkloadSpec& spec, int argc,
                           char** argv) {
  Figure fig(bench, argc, argv);
  for (const YcsbSetup& setup : ycsb_setups()) {
    fig.add(std::string(prefix) + "/" + setup.label, [&](Json& row) {
      const YcsbRunResult r =
          run_ycsb(setup, spec, /*clients=*/128, /*ops_per_client=*/25);
      row.put("span_ns", r.span.count());
      for (ycsb::OpType t : ycsb::kAllOps) {
        const std::string op(ycsb::to_string(t));
        row.put(op + "_ops", r.stats.count(t))
            .put(op + "_mean_ns", r.stats.mean_latency(t).count());
      }
    });
  }
  return fig.run();
}

}  // namespace hatbench
