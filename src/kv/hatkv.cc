#include "kv/hatkv.h"

namespace hatrpc::kv {

using sim::Task;

HatKVConfig HatKVConfig::from_hints(const hint::ServiceHints& hints) {
  HatKVConfig cfg;
  if (const hint::Value* v = hints.lookup("", hint::Key::kConcurrency,
                                          hint::Perspective::kServer)) {
    // Size the reader table to the expected concurrency plus headroom,
    // instead of LMDB's fixed default (§4.4: "the number of max readers
    // can be set according to the concurrency hint").
    cfg.max_readers = static_cast<uint32_t>(v->num) + 8;
  }
  if (const hint::Value* v = hints.lookup("", hint::Key::kPerfGoal,
                                          hint::Perspective::kServer)) {
    cfg.sync_commits = v->goal == hint::PerfGoal::kLatency;
  }
  return cfg;
}

sim::Cpu::Compute HatKVHandler::charge_pages(uint64_t pages) {
  return node_.cpu().compute(cfg_.op_fixed +
                             cfg_.page_cpu * static_cast<int64_t>(pages));
}

Task<void> HatKVHandler::charge_commit(const CommitInfo& info) {
  if (cfg_.sync_commits) {
    // Durable before replying: the commit I/O sits on the critical path.
    co_await node_.cpu().compute(
        cfg_.commit_io * static_cast<int64_t>(std::max<uint64_t>(
                             info.pages_written, 1)));
  }
  // Group-commit mode: the flush happens in the background (the paper's
  // "commit strategies ... such that the interactions with LMDB will not
  // hinder the critical path").
}

Task<std::string> HatKVHandler::Get(const std::string& key) {
  // The reader slot is held for the (virtual) duration of the storage
  // work — an undersized reader table (concurrency hint too low) shows up
  // as queueing here, exactly like MDB_READERS_FULL pressure.
  co_await readers_.acquire();
  Txn txn = env_.begin(false);
  auto v = txn.get(key);
  co_await charge_pages(txn.pages_touched());
  txn.commit();
  readers_.release();
  co_return v.value_or(std::string());
}

Task<void> HatKVHandler::Put(const std::string& key,
                             const std::string& value) {
  // LMDB semantics: the single writer holds the write lock through its
  // work and (for sync commits) through the commit I/O.
  co_await writer_.acquire();
  Txn txn = env_.begin(true);
  txn.put(key, value);
  co_await charge_pages(txn.pages_touched());
  CommitInfo info = txn.commit();
  co_await charge_commit(info);
  writer_.release();
}

Task<std::vector<std::string>> HatKVHandler::MultiGet(
    const std::vector<std::string>& keys) {
  co_await readers_.acquire();
  Txn txn = env_.begin(false);
  std::vector<std::string> out;
  out.reserve(keys.size());
  for (const auto& k : keys) out.push_back(txn.get(k).value_or(""));
  co_await charge_pages(txn.pages_touched());
  txn.commit();
  readers_.release();
  co_return out;
}

Task<void> HatKVHandler::MultiPut(const std::vector<hatkv::KVPair>& pairs) {
  co_await writer_.acquire();
  Txn txn = env_.begin(true);
  for (const auto& kv : pairs) txn.put(kv.key, kv.value);
  co_await charge_pages(txn.pages_touched());
  CommitInfo info = txn.commit();
  co_await charge_commit(info);
  writer_.release();
}

}  // namespace hatrpc::kv
