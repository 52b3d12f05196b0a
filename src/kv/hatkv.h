// HatKV server runtime: the generated HatKV handler implemented over
// mdblite, with the backend tuned by hints (paper §4.4):
//   * max readers <- the service's concurrency hint (mdblite reader table);
//   * synchronous vs grouped commits <- the function's perf goal (latency
//     functions pay the commit I/O inline; throughput/res_util functions
//     batch it off the critical path);
//   * per-page CPU/I/O costs are charged to the server node so storage
//     work competes with communication for the same cores.
#pragma once

#include <memory>

#include "core/engine.h"
#include "hatkv_gen.h"
#include "kv/mdblite.h"

namespace hatrpc::kv {

struct HatKVConfig {
  /// Derived from the concurrency hint when constructed via from_hints().
  uint32_t max_readers = 126;
  /// Latency-pinned functions commit synchronously; others group-commit.
  bool sync_commits = false;
  /// Cost model for storage work (charged on the server node's CPU).
  sim::Duration page_cpu = std::chrono::nanoseconds(40);    // per page touched
  sim::Duration commit_io = std::chrono::nanoseconds(2500); // per synced page
  sim::Duration op_fixed = std::chrono::nanoseconds(150);

  static HatKVConfig from_hints(const hint::ServiceHints& hints);
};

/// The storage-side handler bound into a HatServer's dispatcher.
class HatKVHandler : public hatkv::HatKVIf {
 public:
  HatKVHandler(verbs::Node& node, HatKVConfig cfg)
      : node_(node), cfg_(cfg),
        env_(EnvOptions{.page_size = 4096, .max_readers = cfg.max_readers}),
        readers_(node.fabric().simulator(), cfg.max_readers),
        writer_(node.fabric().simulator(), 1) {}

  sim::Task<std::string> Get(const std::string& key) override;
  sim::Task<void> Put(const std::string& key,
                      const std::string& value) override;
  sim::Task<std::vector<std::string>> MultiGet(
      const std::vector<std::string>& keys) override;
  sim::Task<void> MultiPut(const std::vector<hatkv::KVPair>& pairs) override;

  Env& env() { return env_; }
  const HatKVConfig& config() const { return cfg_; }

 private:
  sim::Cpu::Compute charge_pages(uint64_t pages);
  sim::Task<void> charge_commit(const CommitInfo& info);

  verbs::Node& node_;
  HatKVConfig cfg_;
  Env env_;
  // The reader semaphore makes an undersized reader table visible as
  // queueing delay instead of hard MDB_READERS_FULL errors.
  sim::Semaphore readers_;
  sim::Semaphore writer_;  // mdblite allows one writer at a time
};

/// Convenience: a fully wired HatKV server node (engine + handler).
class HatKVServer {
 public:
  HatKVServer(verbs::Node& node, core::EngineConfig engine_cfg,
              HatKVConfig kv_cfg)
      : server_(node, hatkv::HatKV_hints(), engine_cfg),
        handler_(node, kv_cfg) {
    hatkv::register_HatKV(server_.dispatcher(), handler_);
  }
  explicit HatKVServer(verbs::Node& node)
      : HatKVServer(node, {}, HatKVConfig::from_hints(hatkv::HatKV_hints())) {}

  core::HatServer& server() { return server_; }
  HatKVHandler& handler() { return handler_; }
  void stop() { server_.stop(); }

 private:
  core::HatServer server_;
  HatKVHandler handler_;
};

}  // namespace hatrpc::kv
