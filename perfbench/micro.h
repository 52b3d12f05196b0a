// Host-time microbenchmark helpers for the per-layer phase (micro.cc).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "hatbench.h"
#include "kv/mdblite.h"
#include "proto/channel.h"

namespace hatbench {

/// Keeps `v` observable so the optimizer cannot drop the work producing it.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

/// Median host nanoseconds per operation of `batch(n)`, which must run n
/// operations. n is doubled until one batch takes at least 10 ms; then five
/// batches are timed.
template <class Batch>
double ns_per_op(Batch&& batch) {
  size_t n = 1;
  for (;;) {
    const double t0 = cpu_s();
    batch(n);
    if (cpu_s() - t0 >= 0.01 || n >= (size_t{1} << 24)) break;
    n *= 2;
  }
  std::vector<double> ns;
  for (int b = 0; b < 5; ++b) {
    const double t0 = cpu_s();
    batch(n);
    ns.push_back((cpu_s() - t0) * 1e9 / double(n));
  }
  std::nth_element(ns.begin(), ns.begin() + 2, ns.end());
  return ns[2];
}

/// A bare RC QP pair: post_send(SEND of `bytes`) -> recv CQE -> send CQE.
double verbs_post_poll_ns(size_t bytes);

/// Raw RpcChannel::call round trips on one channel whose handler answers
/// every request with `resp` (no modelled server work).
double proto_call_ns(hatrpc::proto::ProtocolKind kind,
                     hatrpc::proto::ChannelConfig cfg,
                     const hatrpc::proto::Buffer& req,
                     const hatrpc::proto::Buffer& resp);

/// HatDispatcher::process over `envelopes` (cycled).
double core_process_ns(hatrpc::core::HatDispatcher& d,
                       const std::vector<hatrpc::proto::Buffer>& envelopes);

/// One read transaction + get per key (cycled).
double kv_get_ns(hatrpc::kv::Env& env, const std::vector<std::string>& keys);

/// One write transaction + put + commit per (key, value) (cycled).
double kv_put_commit_ns(hatrpc::kv::Env& env,
                        const std::vector<std::string>& keys,
                        const std::vector<std::string>& values);

}  // namespace hatbench
