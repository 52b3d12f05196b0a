#include "tpch/cluster.h"

namespace hatrpc::tpch {

using sim::Task;

namespace {
// Worker-side execution cost model: charged per fact row scanned (scaled
// by the query's pass count) and per partial row produced; the coordinator
// pays a merge cost per gathered row. Serialization itself is charged by
// the engine on the actual message bytes.
constexpr sim::Duration kScanRowCpu = std::chrono::nanoseconds(6);
constexpr sim::Duration kPartialRowCpu = std::chrono::nanoseconds(40);
constexpr sim::Duration kMergeRowCpu = std::chrono::nanoseconds(40);
}  // namespace

std::string_view to_string(TpchMode m) {
  switch (m) {
    case TpchMode::kThriftIpoib: return "Thrift-IPoIB";
    case TpchMode::kHatService: return "HatRPC-Service";
    case TpchMode::kHatFunction: return "HatRPC-Function";
  }
  return "?";
}

struct TpchCluster::WorkerRt {
  verbs::Node* node = nullptr;
  TpchSlice slice;
  std::unique_ptr<core::HatServer> server;
  std::unique_ptr<core::HatConnection> conn;
};

std::string TpchCluster::method_name(int qid) {
  return "Q" + std::to_string(qid);
}

hint::ServiceHints TpchCluster::build_hints() const {
  using namespace hatrpc::hint;
  ServiceHints h;
  h.service().add(Side::kShared, Key::kConcurrency,
                  parse_value(Key::kConcurrency, "1"));
  switch (mode_) {
    case TpchMode::kThriftIpoib:
      h.service().add(Side::kShared, Key::kTransport,
                      parse_value(Key::kTransport, "tcp"));
      break;
    case TpchMode::kHatService:
      // Service-granularity only: an overall goal, but no per-function
      // payload knowledge — the engine stays on the adaptive default.
      h.service().add(Side::kShared, Key::kPerfGoal,
                      parse_value(Key::kPerfGoal, "throughput"));
      break;
    case TpchMode::kHatFunction: {
      h.service().add(Side::kShared, Key::kPerfGoal,
                      parse_value(Key::kPerfGoal, "throughput"));
      h.service().add(Side::kShared, Key::kNumaBinding,
                      parse_value(Key::kNumaBinding, "true"));
      for (const Query& q : all_queries()) {
        HintGroup& fg = h.function(method_name(q.id));
        uint64_t bytes =
            std::max<uint64_t>(partial_size_hint_[size_t(q.id)], 64);
        fg.add(Side::kShared, Key::kPayloadSize,
               parse_value(Key::kPayloadSize, std::to_string(bytes)));
        fg.add(Side::kShared, Key::kPerfGoal,
               parse_value(Key::kPerfGoal,
                           q.small_partial ? "latency" : "throughput"));
      }
      break;
    }
  }
  return h;
}

TpchCluster::TpchCluster(sim::Simulator& sim, int workers, DbgenConfig dbcfg,
                         TpchMode mode)
    : sim_(sim), mode_(mode), fabric_(sim), net_(fabric_) {
  coordinator_ = fabric_.add_node();
  std::vector<TpchSlice> slices = dbgen(dbcfg, workers);

  // Coordinator keeps a dimensions-only replica (Q13/Q20/Q22 merges).
  dims_.region = slices[0].region;
  dims_.nation = slices[0].nation;
  dims_.supplier = slices[0].supplier;
  dims_.customer = slices[0].customer;
  dims_.part = slices[0].part;
  dims_.partsupp = slices[0].partsupp;

  // Calibration pass on worker 0's slice: measured partial sizes become
  // the payload hints of the kHatFunction configuration.
  partial_size_hint_.assign(all_queries().size() + 1, 0);
  for (const Query& q : all_queries())
    partial_size_hint_[size_t(q.id)] =
        serialize_rows(q.local(slices[0])).size();

  hint::ServiceHints hints = build_hints();
  for (int w = 0; w < workers; ++w) {
    auto rt = std::make_unique<WorkerRt>();
    rt->node = fabric_.add_node();
    rt->slice = std::move(slices[size_t(w)]);
    core::EngineConfig ecfg;
    ecfg.tcp_port = uint16_t(9900 + w);
    rt->server = std::make_unique<core::HatServer>(*rt->node, hints, ecfg,
                                                   &net_);
    WorkerRt* raw = rt.get();
    for (const Query& q : all_queries()) {
      rt->server->dispatcher().register_method(
          method_name(q.id),
          [raw, &q](core::View, thrift::TMemoryBuffer& out) -> Task<void> {
            verbs::Node& node = *raw->node;
            // Scan/join passes over the local partition.
            int64_t rows = int64_t(raw->slice.fact_rows());
            co_await node.cpu().compute(
                sim::scale(kScanRowCpu * rows, q.cpu_factor));
            std::vector<Row> partial = q.local(raw->slice);
            co_await node.cpu().compute(kPartialRowCpu *
                                        int64_t(partial.size()));
            thrift::TBinaryProtocol p(out);
            write_rows(p, partial);
          });
    }
    rt->conn = std::make_unique<core::HatConnection>(*coordinator_,
                                                     *rt->server);
    workers_.push_back(std::move(rt));
  }
}

TpchCluster::~TpchCluster() { stop(); }

void TpchCluster::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) w->server->stop();
}

Task<QueryResult> TpchCluster::run_query(int qid) {
  const Query& q = all_queries().at(size_t(qid - 1));
  std::string method = method_name(qid);
  sim::Time t0 = sim_.now();

  std::vector<core::Reply> partials(workers_.size());
  sim::WaitGroup wg(sim_);
  wg.add(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    sim_.spawn([](TpchCluster* self, const std::string& method, size_t w,
                  std::vector<core::Reply>& replies,
                  sim::WaitGroup& wg) -> Task<void> {
      replies[w] = co_await self->workers_[w]->conn->call_raw(method, {});
      wg.done();
    }(this, method, w, partials, wg));
  }
  co_await wg.wait();

  std::vector<Row> gathered;
  uint64_t bytes = 0;
  for (const core::Reply& r : partials) {
    bytes += r.view().size();
    std::vector<Row> rows = deserialize_rows(r.view());
    gathered.insert(gathered.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
  }
  co_await coordinator_->cpu().compute(kMergeRowCpu *
                                       int64_t(gathered.size()));
  MergeContext ctx{&dims_};
  QueryResult result = q.merge(std::move(gathered), ctx);
  last_elapsed_ = sim_.now() - t0;
  last_partial_bytes_ = bytes;
  co_return result;
}

}  // namespace hatrpc::tpch
