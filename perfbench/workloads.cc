// The four workloads: ping-512B and stream-128K (ATB through the generated
// atb::AtbClient on core::HatConnection), ycsb-a (HatKV through the
// generated hatkv::HatKVClient) and proto-sweep (the Fig. 5 protocols
// through raw proto::make_channel).
//
// Every simulated client has its own client node (node 0 is the server), so
// a span's pid names its client and run.py can attribute each span to one
// call.
#include <algorithm>
#include <cstring>
#include <utility>

#include "atb_gen.h"
#include "core/engine.h"
#include "hatbench.h"
#include "hint/selection.h"
#include "kv/hatkv.h"
#include "micro.h"
#include "sim/rng.h"
#include "ycsb/ycsb.h"

namespace hatbench {

using namespace hatrpc;
using sim::Task;
using namespace std::chrono_literals;

namespace {

// ---- Seeded data ----------------------------------------------------------

uint64_t fnv1a(const void* p, size_t n, uint64_t h = 1469598103934665603ull) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

void fill_seeded(sim::Rng& rng, char* out, size_t n) {
  for (size_t i = 0; i < n; i += 8) {
    uint64_t v = rng.next();
    std::memcpy(out + i, &v, std::min<size_t>(8, n - i));
  }
}

/// An echo payload: seeded bytes stamped with the calling client's node id
/// and the pool slot, so server-side spans can name their caller.
std::string stamped_payload(sim::Rng& rng, size_t n, uint32_t client,
                            uint32_t slot) {
  std::string s(n, '\0');
  fill_seeded(rng, s.data(), n);
  std::memcpy(s.data(), &client, 4);
  std::memcpy(s.data() + 4, &slot, 4);
  return s;
}

uint32_t stamped_client(const void* payload) {
  uint32_t c = 0;
  std::memcpy(&c, payload, 4);
  return c;
}

// A YCSB value (field_count x field_len = 1000 bytes) carries its key, a
// version and a checksum over everything else, so a GET can be checked
// without knowing which write it observed.
constexpr size_t kKeyLen = 24;
constexpr size_t kValueLen = 1000;
constexpr size_t kSumAt = kKeyLen + 8;
constexpr size_t kFillAt = kSumAt + 8;

uint64_t value_sum(const char* v) {
  return fnv1a(v + kFillAt, kValueLen - kFillAt, fnv1a(v, kSumAt));
}

std::string make_value(const std::string& key, uint64_t version,
                       uint64_t seed) {
  std::string v(kValueLen, '\0');
  std::memcpy(v.data(), key.data(), kKeyLen);
  std::memcpy(v.data() + kKeyLen, &version, 8);
  sim::Rng rng(seed ^ (version * 0x9e3779b97f4a7c15ull));
  fill_seeded(rng, v.data() + kFillAt, kValueLen - kFillAt);
  uint64_t sum = value_sum(v.data());
  std::memcpy(v.data() + kSumAt, &sum, 8);
  return v;
}

bool valid_value(const std::string& key, const std::string& v) {
  if (v.size() != kValueLen || key.size() != kKeyLen) return false;
  if (std::memcmp(v.data(), key.data(), kKeyLen) != 0) return false;
  uint64_t sum = 0;
  std::memcpy(&sum, v.data() + kSumAt, 8);
  return sum == value_sum(v.data());
}

/// The loaded key space: YCSB-A's 10k records of 24 B keys and 1000 B
/// values, enough for a three-level mdblite B+-tree.
struct KvSet {
  std::vector<std::string> keys;
  std::vector<std::string> values;
};

KvSet make_kv_set(const ycsb::WorkloadGenerator& gen, uint64_t seed) {
  KvSet s;
  for (uint64_t i = 0; i < gen.spec().record_count; ++i) {
    s.keys.push_back(gen.key_of(i));
    s.values.push_back(make_value(s.keys.back(), 0, seed));
  }
  return s;
}

void load(kv::Env& env, const KvSet& set) {
  kv::Txn t = env.begin(true);
  for (size_t i = 0; i < set.keys.size(); ++i) t.put(set.keys[i], set.values[i]);
  t.commit();
}

ycsb::WorkloadSpec ycsb_spec() {
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::workload_a();
  spec.key_len = kKeyLen;
  return spec;
}

// ---- Round plumbing -------------------------------------------------------

obs::CounterSet fabric_totals(const verbs::Fabric& f) {
  obs::CounterSet s;
  for (size_t i = 0; i < s.v.size(); ++i)
    s.v[i] = f.obs().counters.node_total(obs::Ctr(i));
  return s;
}

/// The measured region of one simulation: counter, event and clock deltas
/// are accumulated into the round (proto-sweep sums its rows).
class Region {
 public:
  Region(sim::Simulator& sim, verbs::Fabric& fabric, bool trace)
      : sim_(sim), fabric_(fabric) {
    if (trace) fabric.obs().tracer.enable();
    ctrs_ = fabric_totals(fabric);
    events_ = sim.events_processed();
    start_ = sim.now();
    host_ = cpu_s();
  }
  sim::Time& last() { return last_; }

  void finish(RoundOut& out) {
    out.run_s.push_back(cpu_s() - host_);
    out.events += sim_.events_processed() - events_;
    out.makespan_ns += (last_ - start_).count();
    obs::CounterSet d = fabric_totals(fabric_).delta_since(ctrs_);
    for (size_t i = 0; i < d.v.size(); ++i) out.ctrs.v[i] += d.v[i];
    out.peak_queue = std::max<uint64_t>(out.peak_queue, sim_.peak_queue_depth());
  }

 private:
  sim::Simulator& sim_;
  verbs::Fabric& fabric_;
  obs::CounterSet ctrs_;
  uint64_t events_ = 0;
  sim::Time start_{};
  sim::Time last_{};
  double host_ = 0;
};

/// Records one finished call (and its client-side span, named after `what`,
/// when tracing).
void record_call(verbs::Node& client, std::string_view what, sim::Time t0,
                 CallClass cls, RoundOut& out, sim::Time& last) {
  sim::Simulator& sim = client.fabric().simulator();
  obs::Tracer& tr = client.fabric().obs().tracer;
  if (tr.enabled())
    tr.complete("bench/client/" + std::string(what), "bench", t0,
                sim.now() - t0, client.id(), 0);
  out.lat_ns.push_back((sim.now() - t0).count());
  out.cls.push_back(cls);
  last = std::max(last, sim.now());
}

/// Server-side span around a benchmark-owned handler body.
void record_app(verbs::Node& server, const char* span, sim::Time t0,
                uint32_t client) {
  obs::Tracer& tr = server.fabric().obs().tracer;
  if (!tr.enabled()) return;
  tr.complete(span, "bench", t0, server.fabric().simulator().now() - t0,
              server.id(), kAppTid + client);
}

/// Merges the round's trace into `sink` under a fresh pid block and records
/// which client each server-side QP and handler span belongs to.
void merge_trace(verbs::Fabric& fabric, verbs::Node& server,
                 const std::vector<verbs::Node*>& clients, obs::Tracer& sink,
                 TraceMap& map) {
  const uint32_t base = map.next_pid;
  sink.absorb(fabric.obs().tracer, base);
  sink.set_process_name(base + server.id(), "server");
  for (verbs::Node* c : clients) {
    sink.set_process_name(base + c->id(), "client/" + std::to_string(c->id()));
    map.server_of.push_back({base + c->id(), base + server.id()});
    map.peer.push_back({base + server.id(), kAppTid + c->id(), base + c->id()});
  }
  for (uint32_t qpn = 1, misses = 0; misses < 64; ++qpn) {
    verbs::QueuePair* qp = fabric.find_qp(qpn);
    if (!qp) {
      ++misses;
      continue;
    }
    misses = 0;
    if (&qp->node() == &server && qp->peer())
      map.peer.push_back(
          {base + server.id(), qpn, base + qp->peer()->node().id()});
  }
  map.next_pid = base + uint32_t(fabric.node_count());
}

/// Drains the simulation after the servers stopped and checks the run's
/// invariants: no hung task, a clean fabric audit, no failed call, no WQE
/// error, no verbs-contract violation.
void teardown_checks(sim::Simulator& sim, verbs::Fabric& fabric,
                     RoundOut& out) {
  sim.run();
  if (sim.live_tasks() != 0)
    out.violations.push_back(std::to_string(sim.live_tasks()) +
                             " tasks still live after teardown");
  verbs::AuditReport a = fabric.audit();
  if (!a.clean()) out.violations.push_back("fabric audit: " + a.str());
  for (obs::Ctr c : {obs::Ctr::kFailedCalls, obs::Ctr::kWqeErrors,
                     obs::Ctr::kContractViolations}) {
    if (uint64_t n = fabric.obs().counters.node_total(c))
      out.violations.push_back(std::string(obs::to_string(c)) + " = " +
                               std::to_string(n));
  }
}

std::vector<verbs::Node*> add_clients(verbs::Fabric& fabric, int n) {
  std::vector<verbs::Node*> nodes;
  for (int c = 0; c < n; ++c) nodes.push_back(fabric.add_node());
  return nodes;
}

// ---- Thrift shapes of the workloads' messages ------------------------------
// These mirror what hatrpc-gen emits for atb.hatrpc and hatkv.hatrpc; the
// thrift/core microbenchmarks time them on the workloads' own data.

using thrift::TType;

void write_string_struct(thrift::TProtocol& p, const char* name, int16_t id,
                         std::string_view s) {
  p.writeStructBegin(name);
  p.writeFieldBegin(TType::kString, id);
  p.writeString(s);
  p.writeFieldEnd();
  p.writeFieldStop();
  p.writeStructEnd();
}

/// Reads any struct built from strings, lists of strings and lists of
/// KVPair; returns the string bytes seen.
size_t read_struct(thrift::TProtocol& p) {
  size_t n = 0;
  p.readStructBegin();
  for (;;) {
    auto f = p.readFieldBegin();
    if (f.type == TType::kStop) break;
    if (f.type == TType::kString) {
      n += p.readString().size();
    } else if (f.type == TType::kList) {
      auto lh = p.readListBegin();
      for (uint32_t i = 0; i < lh.size; ++i) {
        if (lh.elem == TType::kString) {
          n += p.readString().size();
        } else if (lh.elem == TType::kStruct) {
          hatkv::KVPair kv;
          kv.read(p);
          n += kv.key.size() + kv.value.size();
        } else {
          p.skip(lh.elem);
        }
      }
      p.readListEnd();
    } else {
      p.skip(f.type);
    }
    p.readFieldEnd();
  }
  p.readStructEnd();
  return n;
}

/// One call's args and result, serialized the way the generated code does.
struct Message {
  std::string method;
  proto::Buffer args;
  proto::Buffer result;
};

/// The reply envelope HatDispatcher::process wraps around `m`'s result.
proto::Buffer reply_envelope(const Message& m) {
  thrift::TMemoryBuffer buf;
  thrift::TBinaryProtocol p(buf);
  p.writeMessageBegin(m.method, thrift::TMessageType::kReply, 1);
  buf.write(m.result.data(), m.result.size());
  return buf.take();
}

/// Per-layer host microbenchmarks over `msgs`, shared by all workloads.
/// `encode` re-serializes message i's args and result.
template <class Encode>
void thrift_core_micro(const std::vector<Message>& msgs, Encode&& encode,
                       core::HatDispatcher& null_dispatcher, MicroOut& out) {
  out.thrift_encode_ns = ns_per_op([&](size_t n) {
    for (size_t i = 0; i < n; ++i) encode(i % msgs.size());
  });
  out.thrift_decode_ns = ns_per_op([&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const Message& m = msgs[i % msgs.size()];
      for (const proto::Buffer* b : {&m.args, &m.result}) {
        thrift::TMemoryBuffer buf = thrift::TMemoryBuffer::wrap(*b);
        thrift::TBinaryProtocol p(buf);
        keep(read_struct(p));
      }
    }
  });
  std::vector<proto::Buffer> calls, replies;
  for (const Message& m : msgs) {
    calls.push_back(core::HatDispatcher::make_call(m.method, m.args, 1));
    replies.push_back(reply_envelope(m));
  }
  out.core_envelope_ns = ns_per_op([&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const Message& m = msgs[i % msgs.size()];
      keep(core::HatDispatcher::make_call(m.method, m.args, int32_t(i)));
      keep(core::HatDispatcher::parse_reply(replies[i % msgs.size()],
                                            m.method));
    }
  });
  out.core_process_ns = core_process_ns(null_dispatcher, calls);
}

/// proto.call_ns on the channel a HatConnection would build for `plan`.
double plan_call_ns(const hint::Plan& plan, const Message& m) {
  proto::ChannelConfig cfg;
  cfg.client_poll = plan.client_poll;
  cfg.server_poll = plan.server_poll;
  cfg.client_numa_local = cfg.server_numa_local = plan.numa_bind;
  if (plan.expected_payload)
    cfg.max_msg = std::max<uint32_t>(64 << 10, plan.expected_payload * 2);
  return proto_call_ns(plan.protocol, cfg,
                       core::HatDispatcher::make_call(m.method, m.args, 1),
                       reply_envelope(m));
}

/// kv.get_ns / kv.put_commit_ns on a private copy of the loaded key space.
void kv_micro(const KvSet& set, const std::vector<std::string>& keys,
              MicroOut& out) {
  kv::Env env(kv::EnvOptions{
      .page_size = 4096,
      .max_readers =
          kv::HatKVConfig::from_hints(hatkv::HatKV_hints()).max_readers});
  load(env, set);
  std::vector<std::string> values;
  for (size_t i = 0; i < keys.size() && i < 64; ++i)
    values.push_back(make_value(keys[i], 1, 0));
  out.kv_get_ns = kv_get_ns(env, keys);
  out.kv_put_commit_ns = kv_put_commit_ns(
      env, std::vector<std::string>(keys.begin(), keys.begin() + values.size()),
      values);
}

double select_plan_ns(const hint::ServiceHints& hints,
                      const std::vector<std::string>& methods) {
  return ns_per_op([&](size_t n) {
    for (size_t i = 0; i < n; ++i)
      keep(hint::select_plan(hints, methods[i % methods.size()],
                             hint::SelectionParams{}));
  });
}

/// The kv microbenchmarks of the workloads that do not touch src/kv run on
/// a YCSB-A key space generated from their seed.
void default_kv_micro(uint64_t seed, MicroOut& out) {
  ycsb::WorkloadGenerator gen(ycsb_spec(), seed);
  KvSet set = make_kv_set(gen, seed);
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) keys.push_back(gen.next().keys[0]);
  kv_micro(set, keys, out);
}

// ---- ATB: ping-512B and stream-128K ---------------------------------------

struct AtbSpec {
  const char* method;  // "Ping" or "Stream"
  size_t bytes;
  size_t jitter;       // payload sizes cover bytes +- jitter
  int64_t stagger_ns;  // clients start at seeded offsets in [0, stagger)
  int clients;
  int calls;  // per client per round
  int pool;   // distinct payloads per client
  size_t input_sets;
};

class AtbHandler : public atb::AtbIf {
 public:
  explicit AtbHandler(verbs::Node& node) : node_(node) {}

  Task<std::string> Ping(const std::string& payload) override {
    return echo(payload, "bench/app/Ping");
  }
  Task<std::string> Stream(const std::string& payload) override {
    return echo(payload, "bench/app/Stream");
  }

 private:
  // The ATB server work model (bench_atb_generated): 1 us of dispatch plus
  // a checksum pass over the payload at 20 GB/s, then echo.
  Task<std::string> echo(const std::string& payload, const char* span) {
    const sim::Time t0 = node_.fabric().simulator().now();
    co_await node_.cpu().compute(1us +
                                 sim::transfer_time(payload.size(), 20.0));
    record_app(node_, span, t0, stamped_client(payload.data()));
    co_return payload;
  }

  verbs::Node& node_;
};

/// Answers instantly (core.process_ns times the dispatcher, not the app).
class NullAtb : public atb::AtbIf {
 public:
  Task<std::string> Ping(const std::string& p) override { co_return p; }
  Task<std::string> Stream(const std::string& p) override { co_return p; }
};

/// An ATB args or result struct: one binary field.
proto::Buffer string_struct(const std::string& name, int16_t id,
                            std::string_view s) {
  thrift::TMemoryBuffer buf;
  thrift::TBinaryProtocol p(buf);
  write_string_struct(p, name.c_str(), id, s);
  return buf.take();
}

/// thrift and core microbenchmarks of ATB `method` calls carrying
/// `payloads`; returns those calls' messages.
std::vector<Message> atb_thrift_core_micro(
    const std::string& method, const std::vector<std::string_view>& payloads,
    MicroOut& out) {
  const std::string args = method + "_args", result = method + "_result";
  std::vector<Message> msgs;
  for (std::string_view p : payloads)
    msgs.push_back({method, string_struct(args, 1, p),
                    string_struct(result, 0, p)});
  NullAtb null_handler;
  core::HatDispatcher d;
  atb::register_Atb(d, null_handler);
  thrift_core_micro(
      msgs,
      [&](size_t i) {
        keep(string_struct(args, 1, payloads[i]));
        keep(string_struct(result, 0, payloads[i]));
      },
      d, out);
  return msgs;
}

/// Enables VerbsCheck before the world creates any QP or MR.
void set_check(verbs::Fabric& fabric, const RoundMode& mode) {
  if (mode.verbs_check)
    fabric.check().set_mode(verbs::VerbsCheck::Mode::kRecord);
}

struct AtbWorld {
  sim::Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* server_node = fabric.add_node();
  core::HatServer server{*server_node, atb::Atb_hints(), {}};
  AtbHandler handler{*server_node};
  std::vector<verbs::Node*> client_nodes;
  std::vector<std::unique_ptr<core::HatConnection>> conns;

  AtbWorld(int clients, const RoundMode& mode) {
    set_check(fabric, mode);
    atb::register_Atb(server.dispatcher(), handler);
    client_nodes = add_clients(fabric, clients);
    for (verbs::Node* n : client_nodes)
      conns.push_back(std::make_unique<core::HatConnection>(*n, server));
  }
};

using AtbMethod = Task<std::string> (atb::AtbClient::*)(const std::string&);

Task<void> atb_client(AtbWorld& w, AtbMethod method, const char* name,
                      size_t c, const std::vector<std::string>& pool,
                      const std::vector<uint16_t>& picks, int64_t stagger_ns,
                      RoundOut& out, sim::Time& last) {
  atb::AtbClient stub(*w.conns[c]);
  verbs::Node& node = *w.client_nodes[c];
  co_await w.sim.sleep(sim::Duration(stagger_ns));
  for (uint16_t pick : picks) {
    const std::string& payload = pool[pick];
    const sim::Time t0 = w.sim.now();
    ++out.attempted;
    std::string reply;
    try {
      reply = co_await (stub.*method)(payload);
    } catch (const std::exception&) {
      ++out.errors;
      continue;
    }
    if (reply != payload) ++out.mismatches;
    record_call(node, name, t0, CallClass::kEcho, out, last);
  }
}

Task<void> atb_warm_up(AtbWorld& w, AtbMethod method, size_t c,
                       const std::string& payload, RoundOut& out) {
  atb::AtbClient stub(*w.conns[c]);
  std::string reply = co_await (stub.*method)(payload);
  if (reply != payload) out.violations.push_back("warm-up echo mismatch");
}

class AtbWorkload final : public Workload {
 public:
  AtbWorkload(AtbSpec spec, uint64_t seed) : spec_(spec), seed_(seed) {
    sim::Rng rng(seed);
    // The payload sizes cover bytes +- jitter evenly, on a grid shifted by
    // one seeded offset, so every seed sees nearly the same size mix; which
    // client and slot gets which size is a seeded shuffle.
    const size_t n = size_t(spec.clients) * size_t(spec.pool);
    const double shift = double(rng.bounded(1024)) / 1024.0;
    std::vector<size_t> sizes;
    for (size_t j = 0; j < n; ++j)
      sizes.push_back(spec.bytes - spec.jitter +
                      size_t((double(j) + shift) *
                             double(2 * spec.jitter + 1) / double(n)));
    for (size_t j = n - 1; j > 0; --j)
      std::swap(sizes[j], sizes[rng.bounded(j + 1)]);
    pool_.resize(size_t(spec.clients));
    for (int c = 0; c < spec.clients; ++c)
      for (int k = 0; k < spec.pool; ++k)
        pool_[size_t(c)].push_back(stamped_payload(
            rng, sizes[size_t(c * spec.pool + k)], uint32_t(c + 1),
            uint32_t(k)));
    for (size_t in = 0; in < spec.input_sets; ++in) {
      Input input;
      for (int c = 0; c < spec.clients; ++c) {
        input.stagger_ns.push_back(
            int64_t(rng.bounded(uint64_t(spec.stagger_ns))));
        std::vector<uint16_t> picks;
        for (int i = 0; i < spec.calls; ++i)
          picks.push_back(uint16_t(rng.bounded(uint64_t(spec.pool))));
        input.picks.push_back(std::move(picks));
      }
      inputs_.push_back(std::move(input));
    }
  }

  size_t input_sets() const override { return spec_.input_sets; }

  RoundOut run_round(size_t input, const RoundMode& mode) override {
    const Input& in = inputs_[input];
    AtbMethod method = method_ptr();
    RoundOut out;
    const double t0 = cpu_s();
    AtbWorld w(spec_.clients, mode);
    for (size_t c = 0; c < size_t(spec_.clients); ++c)
      w.sim.spawn(atb_warm_up(w, method, c, pool_[c][0], out));
    w.sim.run();
    out.setup_s.push_back(cpu_s() - t0);

    Region region(w.sim, w.fabric, mode.trace != nullptr);
    for (size_t c = 0; c < size_t(spec_.clients); ++c)
      w.sim.spawn(atb_client(w, method, spec_.method, c, pool_[c],
                             in.picks[c], in.stagger_ns[c], out,
                             region.last()));
    w.sim.run();
    region.finish(out);

    double channels = 0;
    for (auto& conn : w.conns) channels += double(conn->channel_count());
    out.channels_per_conn = channels / double(w.conns.size());
    if (mode.trace)
      merge_trace(w.fabric, *w.server_node, w.client_nodes, *mode.trace,
                  *mode.map);
    w.server.stop();
    teardown_checks(w.sim, w.fabric, out);
    return out;
  }

  MicroOut micro() override {
    MicroOut out;
    const std::string method = spec_.method;
    std::vector<Message> msgs = atb_thrift_core_micro(
        method, std::vector<std::string_view>(pool_[0].begin(), pool_[0].end()),
        out);
    out.verbs_post_poll_ns = verbs_post_poll_ns(spec_.bytes);
    hint::ServiceHints hints = atb::Atb_hints();
    out.proto_call_ns = plan_call_ns(
        hint::select_plan(hints, method, hint::SelectionParams{}), msgs[0]);
    out.hint_select_plan_ns = select_plan_ns(hints, {method});
    default_kv_micro(seed_, out);
    return out;
  }

 private:
  struct Input {
    std::vector<int64_t> stagger_ns;          // per client
    std::vector<std::vector<uint16_t>> picks;  // per client, per call
  };

  AtbMethod method_ptr() const {
    return std::string_view(spec_.method) == "Ping" ? &atb::AtbClient::Ping
                                                    : &atb::AtbClient::Stream;
  }

  AtbSpec spec_;
  uint64_t seed_;
  std::vector<std::vector<std::string>> pool_;  // per client
  std::vector<Input> inputs_;
};

// ---- ycsb-a ---------------------------------------------------------------

struct YcsbOp {
  ycsb::OpType type;
  std::vector<std::string> keys;      // 1 for GET/PUT, batch for multi
  std::string value;                  // PUT
  std::vector<hatkv::KVPair> pairs;   // MultiPUT
};

bool is_write(ycsb::OpType t) {
  return t == ycsb::OpType::kPut || t == ycsb::OpType::kMultiPut;
}

/// Full-Thrift-stack software costs, as in the Fig. 15 benchmark.
core::EngineConfig ycsb_engine_config() {
  core::EngineConfig cfg;
  cfg.serialize_fixed = 2us;
  cfg.serialize_gbps = 1.0;
  return cfg;
}

struct YcsbWorld {
  sim::Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* server_node = fabric.add_node();
  core::HatServer server{*server_node, hatkv::HatKV_hints(),
                         ycsb_engine_config()};
  kv::HatKVHandler handler{
      *server_node, kv::HatKVConfig::from_hints(hatkv::HatKV_hints())};
  std::vector<verbs::Node*> client_nodes;
  std::vector<std::unique_ptr<core::HatConnection>> conns;

  YcsbWorld(int clients, const RoundMode& mode) {
    set_check(fabric, mode);
    hatkv::register_HatKV(server.dispatcher(), handler);
    client_nodes = add_clients(fabric, clients);
    for (verbs::Node* n : client_nodes)
      conns.push_back(std::make_unique<core::HatConnection>(*n, server));
  }
};

/// Checks one op's reply; returns false when it is wrong.
Task<bool> ycsb_call(hatkv::HatKVClient& stub, const YcsbOp& op) {
  switch (op.type) {
    case ycsb::OpType::kGet: {
      std::string v = co_await stub.Get(op.keys[0]);
      co_return valid_value(op.keys[0], v);
    }
    case ycsb::OpType::kPut:
      co_await stub.Put(op.keys[0], op.value);
      co_return true;
    case ycsb::OpType::kMultiGet: {
      std::vector<std::string> vs = co_await stub.MultiGet(op.keys);
      bool ok = vs.size() == op.keys.size();
      for (size_t j = 0; ok && j < vs.size(); ++j)
        ok = valid_value(op.keys[j], vs[j]);
      co_return ok;
    }
    case ycsb::OpType::kMultiPut:
      co_await stub.MultiPut(op.pairs);
      co_return true;
  }
  co_return false;
}

Task<void> ycsb_client(YcsbWorld& w, size_t c, const std::vector<YcsbOp>& ops,
                       int64_t stagger_ns, RoundOut& out, sim::Time& last) {
  hatkv::HatKVClient stub(*w.conns[c]);
  verbs::Node& node = *w.client_nodes[c];
  co_await w.sim.sleep(sim::Duration(stagger_ns));
  for (const YcsbOp& op : ops) {
    const sim::Time t0 = w.sim.now();
    ++out.attempted;
    bool ok = false;
    try {
      ok = co_await ycsb_call(stub, op);
    } catch (const std::exception&) {
      ++out.errors;
      continue;
    }
    if (!ok) ++out.mismatches;
    record_call(node, ycsb::to_string(op.type), t0,
                is_write(op.type) ? CallClass::kWrite : CallClass::kRead, out,
                last);
  }
}

class YcsbWorkload final : public Workload {
 public:
  static constexpr int kClients = 128;  // HatKV's concurrency hint
  static constexpr int kOpsPerClient = 20;
  static constexpr uint64_t kStaggerNs = 50000;  // about one op's latency
  static constexpr size_t kInputSets = 8;

  explicit YcsbWorkload(uint64_t seed)
      : gen_(ycsb_spec(), seed), set_(make_kv_set(gen_, seed)) {
    sim::Rng rng(seed ^ 0x5bd1e995);
    for (size_t in = 0; in < kInputSets; ++in) {
      Input input;
      input.ops.resize(kClients);
      for (int c = 0; c < kClients; ++c) {
        input.stagger_ns.push_back(int64_t(rng.bounded(kStaggerNs)));
        for (int i = 0; i < kOpsPerClient; ++i) {
          ycsb::Op g = gen_.next();
          YcsbOp op{g.type, std::move(g.keys), {}, {}};
          // Versions are unique per (input set, client, op, batch slot).
          uint64_t version = (uint64_t(in + 1) << 40) |
                             (uint64_t(c) << 24) | (uint64_t(i) << 8);
          if (op.type == ycsb::OpType::kPut)
            op.value = make_value(op.keys[0], version, seed);
          if (op.type == ycsb::OpType::kMultiPut)
            for (size_t j = 0; j < op.keys.size(); ++j)
              op.pairs.push_back(
                  {op.keys[j], make_value(op.keys[j], version + j, seed)});
          input.ops[size_t(c)].push_back(std::move(op));
        }
      }
      inputs_.push_back(std::move(input));
    }
  }

  size_t input_sets() const override { return kInputSets; }

  RoundOut run_round(size_t input, const RoundMode& mode) override {
    const Input& in = inputs_[input];
    RoundOut out;
    const double t0 = cpu_s();
    YcsbWorld w(kClients, mode);
    kv::Env& env = w.handler.env();
    load(env, set_);
    {
      kv::Txn t = env.begin(false);
      uint64_t before = env.stats().page_reads;
      if (!t.get(set_.keys[0]))
        out.violations.push_back("loaded key missing");
      if (env.stats().page_reads - before < 3)
        out.violations.push_back("B+-tree has fewer than three levels");
      t.commit();
    }
    // One call per method and connection builds every lazy channel; the
    // writes store the loaded values again, so the data is unchanged.
    for (size_t c = 0; c < size_t(kClients); ++c)
      w.sim.spawn(warm_up(w, c, out));
    w.sim.run();
    out.setup_s.push_back(cpu_s() - t0);

    const kv::EnvStats kv0 = env.stats();
    Region region(w.sim, w.fabric, mode.trace != nullptr);
    for (size_t c = 0; c < size_t(kClients); ++c)
      w.sim.spawn(ycsb_client(w, c, in.ops[c], in.stagger_ns[c], out,
                              region.last()));
    w.sim.run();
    region.finish(out);
    const kv::EnvStats& kv1 = env.stats();
    out.kv = {kv1.page_reads - kv0.page_reads, kv1.page_writes - kv0.page_writes,
              kv1.commits - kv0.commits, kv1.aborts - kv0.aborts,
              kv1.reclaimed - kv0.reclaimed};
    out.kv_ops = out.attempted;

    double channels = 0;
    for (auto& conn : w.conns) channels += double(conn->channel_count());
    out.channels_per_conn = channels / double(w.conns.size());
    if (mode.trace)
      merge_trace(w.fabric, *w.server_node, w.client_nodes, *mode.trace,
                  *mode.map);
    w.server.stop();
    teardown_checks(w.sim, w.fabric, out);
    return out;
  }

  MicroOut micro() override {
    MicroOut out;
    std::vector<Message> msgs;
    std::vector<std::string> keys;
    for (const YcsbOp& op : inputs_[0].ops[0]) {
      msgs.push_back(message(op));
      keys.push_back(op.keys[0]);
    }
    for (const auto& ops : inputs_[0].ops)
      for (const YcsbOp& op : ops) keys.insert(keys.end(), op.keys.begin(), op.keys.end());
    out.verbs_post_poll_ns = verbs_post_poll_ns(kValueLen);
    hint::ServiceHints hints = hatkv::HatKV_hints();
    // A GET of the first key client 0 touches (its ops may hold no GET).
    const Message get =
        message(YcsbOp{ycsb::OpType::kGet, {keys[0]}, {}, {}});
    out.proto_call_ns = plan_call_ns(
        hint::select_plan(hints, "Get", hint::SelectionParams{}), get);
    NullKv null_handler(set_.values[0]);
    core::HatDispatcher d;
    hatkv::register_HatKV(d, null_handler);
    thrift_core_micro(
        msgs,
        [&](size_t i) {
          Message m = message(inputs_[0].ops[0][i]);
          keep(m);
        },
        d, out);
    out.hint_select_plan_ns =
        select_plan_ns(hints, {"Get", "Put", "MultiGet", "MultiPut"});
    kv_micro(set_, keys, out);
    return out;
  }

 private:
  struct Input {
    std::vector<int64_t> stagger_ns;
    std::vector<std::vector<YcsbOp>> ops;  // per client
  };

  /// Answers with a fixed value (core.process_ns times the dispatcher).
  class NullKv : public hatkv::HatKVIf {
   public:
    explicit NullKv(std::string value) : value_(std::move(value)) {}
    Task<std::string> Get(const std::string&) override { co_return value_; }
    Task<void> Put(const std::string&, const std::string&) override {
      co_return;
    }
    Task<std::vector<std::string>> MultiGet(
        const std::vector<std::string>& keys) override {
      co_return std::vector<std::string>(keys.size(), value_);
    }
    Task<void> MultiPut(const std::vector<hatkv::KVPair>&) override {
      co_return;
    }

   private:
    std::string value_;
  };

  Task<void> warm_up(YcsbWorld& w, size_t c, RoundOut& out) {
    hatkv::HatKVClient stub(*w.conns[c]);
    const size_t n = set_.keys.size();
    std::vector<std::string> keys;
    std::vector<hatkv::KVPair> pairs;
    for (size_t j = 0; j < 10; ++j) {
      size_t k = (c * 79 + j * 997) % n;
      keys.push_back(set_.keys[k]);
      pairs.push_back({set_.keys[k], set_.values[k]});
    }
    std::string v = co_await stub.Get(keys[0]);
    std::vector<std::string> vs = co_await stub.MultiGet(keys);
    co_await stub.Put(pairs[0].key, pairs[0].value);
    co_await stub.MultiPut(pairs);
    bool ok = valid_value(keys[0], v) && vs.size() == keys.size();
    for (size_t j = 0; ok && j < vs.size(); ++j) ok = valid_value(keys[j], vs[j]);
    if (!ok) out.violations.push_back("warm-up read returned a bad value");
  }

  /// The op's args and result as the generated HatKV code serializes them
  /// (results of reads carry the loaded values).
  Message message(const YcsbOp& op) const {
    Message m{std::string(method_name(op.type)), {}, {}};
    thrift::TMemoryBuffer a, r;
    thrift::TBinaryProtocol ap(a), rp(r);
    const std::string& value = set_.values[0];
    switch (op.type) {
      case ycsb::OpType::kGet:
        write_string_struct(ap, "Get_args", 1, op.keys[0]);
        write_string_struct(rp, "Get_result", 0, value);
        break;
      case ycsb::OpType::kPut:
        ap.writeStructBegin("Put_args");
        ap.writeFieldBegin(TType::kString, 1);
        ap.writeString(op.keys[0]);
        ap.writeFieldEnd();
        ap.writeFieldBegin(TType::kString, 2);
        ap.writeString(op.value);
        ap.writeFieldEnd();
        ap.writeFieldStop();
        ap.writeStructEnd();
        write_void_result(rp, "Put_result");
        break;
      case ycsb::OpType::kMultiGet:
        write_string_list(ap, "MultiGet_args", 1, op.keys);
        write_string_list(rp, "MultiGet_result", 0,
                          std::vector<std::string>(op.keys.size(), value));
        break;
      case ycsb::OpType::kMultiPut:
        ap.writeStructBegin("MultiPut_args");
        ap.writeFieldBegin(TType::kList, 1);
        ap.writeListBegin(TType::kStruct, uint32_t(op.pairs.size()));
        for (const hatkv::KVPair& kv : op.pairs) kv.write(ap);
        ap.writeListEnd();
        ap.writeFieldEnd();
        ap.writeFieldStop();
        ap.writeStructEnd();
        write_void_result(rp, "MultiPut_result");
        break;
    }
    m.args = a.take();
    m.result = r.take();
    return m;
  }

  static std::string_view method_name(ycsb::OpType t) {
    switch (t) {
      case ycsb::OpType::kGet: return "Get";
      case ycsb::OpType::kPut: return "Put";
      case ycsb::OpType::kMultiGet: return "MultiGet";
      case ycsb::OpType::kMultiPut: return "MultiPut";
    }
    return "?";
  }

  static void write_void_result(thrift::TProtocol& p, const char* name) {
    p.writeStructBegin(name);
    p.writeFieldStop();
    p.writeStructEnd();
  }

  static void write_string_list(thrift::TProtocol& p, const char* name,
                                int16_t id,
                                const std::vector<std::string>& items) {
    p.writeStructBegin(name);
    p.writeFieldBegin(TType::kList, id);
    p.writeListBegin(TType::kString, uint32_t(items.size()));
    for (const std::string& s : items) p.writeString(s);
    p.writeListEnd();
    p.writeFieldEnd();
    p.writeFieldStop();
    p.writeStructEnd();
  }

  ycsb::WorkloadGenerator gen_;
  KvSet set_;
  std::vector<Input> inputs_;
};

// ---- proto-sweep ------------------------------------------------------------

/// The ten protocols of the paper's Fig. 5.
constexpr proto::ProtocolKind kSweepKinds[] = {
    proto::ProtocolKind::kEagerSendRecv,   proto::ProtocolKind::kDirectWriteSend,
    proto::ProtocolKind::kChainedWriteSend, proto::ProtocolKind::kWriteRndv,
    proto::ProtocolKind::kReadRndv,        proto::ProtocolKind::kDirectWriteImm,
    proto::ProtocolKind::kPilaf,           proto::ProtocolKind::kFarm,
    proto::ProtocolKind::kRfp,             proto::ProtocolKind::kHybridEagerRndv,
};

struct SweepSize {
  size_t bytes;
  int calls;  // per client per row
  int pool;
  uint64_t stagger_ns;  // about one call's latency
};
constexpr SweepSize kSweepSizes[] = {{512, 24, 8, 10000},
                                     {128 << 10, 8, 2, 600000}};
constexpr int kSweepClients = 28;

struct SweepRowSpec {
  proto::ProtocolKind kind;
  size_t size;  // index into kSweepSizes
};

/// Every protocol at every size but one: Eager-SendRecv at 128 KB is left
/// out because, with 28 busy-polled clients, a few of its multi-fragment
/// echoes per thousand come back with whole 4 KB slot windows holding the
/// wrong bytes, and no call of a workload may fail. (The 128 KB Eager row
/// still backs proto-sweep's single-channel proto.call_ns.)
std::vector<SweepRowSpec> sweep_rows() {
  std::vector<SweepRowSpec> rows;
  for (proto::ProtocolKind kind : kSweepKinds)
    for (size_t s = 0; s < std::size(kSweepSizes); ++s)
      if (kind != proto::ProtocolKind::kEagerSendRecv ||
          kSweepSizes[s].bytes <= 4096)
        rows.push_back({kind, s});
  return rows;
}

/// The fig04/fig05 checksum handler: 1 us + a 20 GB/s pass, then echo.
proto::Handler checksum_echo(verbs::Node& server, uint32_t client) {
  return [&server, client](proto::View req) -> Task<proto::Buffer> {
    const sim::Time t0 = server.fabric().simulator().now();
    co_await server.cpu().compute(1000ns +
                                  sim::transfer_time(req.size(), 20.0));
    record_app(server, "bench/app/checksum", t0, client);
    co_return proto::Buffer(req.begin(), req.end());
  };
}

struct SweepRow {
  sim::Simulator sim;
  verbs::Fabric fabric{sim};
  verbs::Node* server = fabric.add_node();
  std::vector<verbs::Node*> clients = add_clients(fabric, kSweepClients);
  std::vector<std::unique_ptr<proto::RpcChannel>> channels;

  SweepRow(proto::ProtocolKind kind, size_t bytes, const RoundMode& mode) {
    set_check(fabric, mode);
    proto::ChannelConfig cfg;
    cfg.with_poll(sim::PollMode::kBusy)
        .with_max_msg(std::max<uint32_t>(64 << 10, uint32_t(bytes) * 2))
        .with_numa(false, false)
        .with_window(1);
    for (verbs::Node* c : clients)
      channels.push_back(proto::make_channel(
          kind, *c, *server, checksum_echo(*server, c->id()), cfg));
  }
};

Task<void> sweep_client(SweepRow& row, size_t c, uint32_t bytes,
                        const std::vector<proto::Buffer>& pool,
                        const std::vector<uint16_t>& picks,
                        int64_t stagger_ns, RoundOut& out, sim::Time& last) {
  proto::RpcChannel& ch = *row.channels[c];
  co_await row.sim.sleep(sim::Duration(stagger_ns));
  for (uint16_t pick : picks) {
    const proto::Buffer& payload = pool[pick];
    const sim::Time t0 = row.sim.now();
    ++out.attempted;
    proto::CallResult r = co_await ch.call(payload, bytes);
    if (!r.ok()) {
      ++out.errors;
      continue;
    }
    if (r.value() != payload) ++out.mismatches;
    record_call(*row.clients[c], "call", t0, CallClass::kEcho,
                out, last);
  }
}

Task<void> sweep_warm_up(SweepRow& row, size_t c, const proto::Buffer& payload,
                         RoundOut& out) {
  proto::CallResult r =
      co_await row.channels[c]->call(payload, uint32_t(payload.size()));
  if (!r.ok() || r.value() != payload)
    out.violations.push_back("warm-up echo failed");
}

class SweepWorkload final : public Workload {
 public:
  static constexpr size_t kInputSets = 8;

  explicit SweepWorkload(uint64_t seed) : seed_(seed) {
    sim::Rng rng(seed);
    for (const SweepSize& s : kSweepSizes) {
      std::vector<std::vector<proto::Buffer>> per_client;
      for (int c = 0; c < kSweepClients; ++c) {
        std::vector<proto::Buffer> pool;
        for (int k = 0; k < s.pool; ++k) {
          std::string p = stamped_payload(rng, s.bytes, uint32_t(c + 1),
                                          uint32_t(k));
          pool.push_back(proto::to_buffer(p));
        }
        per_client.push_back(std::move(pool));
      }
      pools_.push_back(std::move(per_client));
    }
    for (size_t in = 0; in < kInputSets; ++in) {
      std::vector<RowInput> rows;
      for (const SweepRowSpec& spec : rows_) {
        const SweepSize& size = kSweepSizes[spec.size];
        RowInput row;
        for (int c = 0; c < kSweepClients; ++c) {
          row.stagger_ns.push_back(int64_t(rng.bounded(size.stagger_ns)));
          std::vector<uint16_t> picks;
          for (int i = 0; i < size.calls; ++i)
            picks.push_back(uint16_t(rng.bounded(uint64_t(size.pool))));
          row.picks.push_back(std::move(picks));
        }
        rows.push_back(std::move(row));
      }
      inputs_.push_back(std::move(rows));
    }
  }

  size_t input_sets() const override { return kInputSets; }

  RoundOut run_round(size_t input, const RoundMode& mode) override {
    RoundOut out;
    for (size_t r = 0; r < rows_.size(); ++r) {
      const RowInput& in = inputs_[input][r];
      const auto& pools = pools_[rows_[r].size];
      const auto bytes = uint32_t(kSweepSizes[rows_[r].size].bytes);
      const double t0 = cpu_s();
      SweepRow row(rows_[r].kind, bytes, mode);
      for (size_t c = 0; c < size_t(kSweepClients); ++c)
        row.sim.spawn(sweep_warm_up(row, c, pools[c][0], out));
      row.sim.run();
      out.setup_s.push_back(cpu_s() - t0);

      Region region(row.sim, row.fabric, mode.trace != nullptr);
      for (size_t c = 0; c < size_t(kSweepClients); ++c)
        row.sim.spawn(sweep_client(row, c, bytes, pools[c], in.picks[c],
                                   in.stagger_ns[c], out, region.last()));
      row.sim.run();
      region.finish(out);
      if (mode.trace)
        merge_trace(row.fabric, *row.server, row.clients, *mode.trace,
                    *mode.map);
      for (auto& ch : row.channels) ch->shutdown();
      teardown_checks(row.sim, row.fabric, out);
    }
    out.channels_per_conn = 1;  // one raw channel per client
    return out;
  }

  MicroOut micro() override {
    // The most copy-heavy row: Eager-SendRecv at 128 KB.
    MicroOut out;
    const size_t big = std::size(kSweepSizes) - 1;
    const proto::Buffer& payload = pools_[big][0][0];
    const size_t bytes = kSweepSizes[big].bytes;
    out.verbs_post_poll_ns = verbs_post_poll_ns(bytes);
    proto::ChannelConfig cfg;
    cfg.with_poll(sim::PollMode::kBusy)
        .with_max_msg(uint32_t(bytes) * 2)
        .with_numa(false, false);
    out.proto_call_ns = proto_call_ns(proto::ProtocolKind::kEagerSendRecv,
                                      cfg, payload, payload);
    // proto-sweep bypasses thrift, core and hint; their microbenchmarks run
    // on the same payload carried as an ATB Stream call.
    atb_thrift_core_micro("Stream", {proto::as_string(payload)}, out);
    // The hint triple of each row, as a planner would see it.
    out.hint_select_plan_ns = ns_per_op([&](size_t n) {
      for (size_t i = 0; i < n; ++i) {
        const SweepSize& size = kSweepSizes[rows_[i % rows_.size()].size];
        keep(hint::select_plan_raw(hint::PerfGoal::kThroughput, kSweepClients,
                                   uint32_t(size.bytes), false,
                                   hint::SelectionParams{}));
      }
    });
    default_kv_micro(seed_, out);
    return out;
  }

 private:
  struct RowInput {
    std::vector<int64_t> stagger_ns;
    std::vector<std::vector<uint16_t>> picks;
  };

  uint64_t seed_;
  std::vector<SweepRowSpec> rows_ = sweep_rows();
  std::vector<std::vector<std::vector<proto::Buffer>>> pools_;  // size, client
  std::vector<std::vector<RowInput>> inputs_;                   // input, row
};

}  // namespace

uint64_t RoundOut::digest() const {
  uint64_t h = fnv1a(lat_ns.data(), lat_ns.size() * sizeof(int64_t));
  h = fnv1a(cls.data(), cls.size(), h);
  const uint64_t scalars[] = {uint64_t(makespan_ns), attempted, errors,
                              mismatches,          events,    kv.page_reads,
                              kv.page_writes,      kv.commits, kv_ops};
  h = fnv1a(scalars, sizeof(scalars), h);
  return fnv1a(ctrs.v.data(), ctrs.v.size() * sizeof(uint64_t), h);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  if (name == "ping-512B")
    return std::make_unique<AtbWorkload>(AtbSpec{"Ping", 512, 128, 5000, 16, 200, 64, 4},
                                         seed);
  if (name == "stream-128K")
    return std::make_unique<AtbWorkload>(
        AtbSpec{"Stream", 128 << 10, 32 << 10, 200000, 16, 64, 4, 16}, seed);
  if (name == "ycsb-a") return std::make_unique<YcsbWorkload>(seed);
  if (name == "proto-sweep") return std::make_unique<SweepWorkload>(seed);
  return nullptr;
}

}  // namespace hatbench
