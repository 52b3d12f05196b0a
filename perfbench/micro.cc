#include "micro.h"

#include <cstring>
#include <stdexcept>

#include "sim/simulator.h"
#include "verbs/endpoint.h"

namespace hatbench {

using namespace hatrpc;
using sim::Task;

namespace {

Task<void> post_poll_loop(verbs::Endpoint& cl, verbs::Endpoint& sv,
                          verbs::MemoryRegion& src, verbs::MemoryRegion& dst,
                          size_t n) {
  const auto len = static_cast<uint32_t>(src.size());
  for (size_t i = 0; i < n; ++i) {
    sv.qp->post_recv(verbs::RecvWr{i, verbs::Sge{dst.data(), len}});
    verbs::SendWr wr;
    wr.wr_id = i;
    wr.opcode = verbs::Opcode::kSend;
    wr.local = verbs::Sge{src.data(), len};
    co_await cl.qp->post_send(std::move(wr));
    verbs::Wc r = co_await sv.recv_wc();
    verbs::Wc s = co_await cl.send_wc();
    if (!r.ok() || !s.ok() || r.byte_len != len)
      throw std::runtime_error("post/poll microbench: bad completion");
  }
}

Task<void> call_loop(proto::RpcChannel& ch, const proto::Buffer& req,
                     size_t resp_size, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    proto::CallResult r = co_await ch.call(req, uint32_t(resp_size));
    if (!r.ok() || r.value().size() != resp_size)
      throw std::runtime_error("proto microbench: bad reply");
  }
}

Task<void> process_loop(core::HatDispatcher& d,
                        const std::vector<proto::Buffer>& envelopes,
                        size_t n) {
  for (size_t i = 0; i < n; ++i) {
    core::Buffer out = co_await d.process(envelopes[i % envelopes.size()]);
    keep(out);
  }
}

}  // namespace

double copy_probe_s() {
  constexpr size_t kArena = 32 << 20, kBlock = 128 << 10;
  static std::vector<char> src(kArena, 1), dst(kArena, 2);
  double best = 1e9;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = cpu_s();
    // 7 is odd, so the destination blocks are a permutation of the arena's.
    for (size_t at = 0; at < kArena; at += kBlock)
      std::memcpy(&dst[(at * 7) % kArena], &src[at], kBlock);
    keep(dst[size_t(pass)]);
    best = std::min(best, cpu_s() - t0);
  }
  return best;
}

double verbs_post_poll_ns(size_t bytes) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* a = fabric.add_node();
  verbs::Node* b = fabric.add_node();
  verbs::Endpoint cl = verbs::make_endpoint(*a, sim::PollMode::kBusy);
  verbs::Endpoint sv = verbs::make_endpoint(*b, sim::PollMode::kBusy);
  verbs::connect(cl, sv);
  verbs::MemoryRegion* src = a->pd().alloc_mr(bytes);
  verbs::MemoryRegion* dst = b->pd().alloc_mr(bytes);
  return ns_per_op([&](size_t n) {
    sim.spawn(post_poll_loop(cl, sv, *src, *dst, n));
    sim.run();
  });
}

double proto_call_ns(proto::ProtocolKind kind, proto::ChannelConfig cfg,
                     const proto::Buffer& req, const proto::Buffer& resp) {
  sim::Simulator sim;
  verbs::Fabric fabric(sim);
  verbs::Node* server = fabric.add_node();
  verbs::Node* client = fabric.add_node();
  auto ch = proto::make_channel(
      kind, *client, *server,
      [&resp](proto::View) -> Task<proto::Buffer> { co_return resp; }, cfg);
  double ns = ns_per_op([&](size_t n) {
    sim.spawn(call_loop(*ch, req, resp.size(), n));
    sim.run();
  });
  ch->shutdown();
  sim.run();
  return ns;
}

double core_process_ns(core::HatDispatcher& d,
                       const std::vector<proto::Buffer>& envelopes) {
  sim::Simulator sim;
  return ns_per_op([&](size_t n) {
    sim.spawn(process_loop(d, envelopes, n));
    sim.run();
  });
}

double kv_get_ns(kv::Env& env, const std::vector<std::string>& keys) {
  return ns_per_op([&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      kv::Txn t = env.begin(false);
      auto v = t.get(keys[i % keys.size()]);
      if (!v) throw std::runtime_error("kv microbench: missing key");
      keep(v);
      t.commit();
    }
  });
}

double kv_put_commit_ns(kv::Env& env, const std::vector<std::string>& keys,
                        const std::vector<std::string>& values) {
  return ns_per_op([&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      kv::Txn t = env.begin(true);
      t.put(keys[i % keys.size()], values[i % values.size()]);
      keep(t.commit());
    }
  });
}

}  // namespace hatbench
