// Completion queues with the two polling disciplines the paper studies:
// busy polling (spin — low latency, occupies a core) and event polling
// (interrupt wake-up — ~3 us extra latency, frees the CPU). The discipline
// is chosen per wait, so one CQ can serve hints that differ per function.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "obs/counters.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "verbs/cost_model.h"

namespace hatrpc::verbs {

using sim::PollMode;
using sim::Task;

enum class WcOpcode : uint8_t {
  kSend,
  kRdmaWrite,
  kRdmaRead,
  kRecv,
  kRecvImm,
};

/// Completion status, mirroring ibv_wc_status. Anything but kSuccess means
/// the QP has transitioned (or is transitioning) to the error state and
/// every WR behind the failed one completes as kWrFlushErr.
enum class WcStatus : uint8_t {
  kSuccess = 0,
  kLocLenErr,       // posted recv buffer too small for the incoming SEND
  kLocProtErr,      // local memory violated the MR registration
  kWrFlushErr,      // WR flushed: QP in error state or CQ shut down
  kRemAccessErr,    // responder rkey/bounds/revocation NAK
  kRemOpErr,        // responder could not complete the operation
  kRnrRetryExcErr,  // RNR NAK retry counter exceeded (no recv posted)
  kRetryExcErr,     // transport retry counter exceeded (peer dead / loss)
};

constexpr const char* to_string(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess: return "success";
    case WcStatus::kLocLenErr: return "local-length-error";
    case WcStatus::kLocProtErr: return "local-protection-error";
    case WcStatus::kWrFlushErr: return "wr-flush-error";
    case WcStatus::kRemAccessErr: return "remote-access-error";
    case WcStatus::kRemOpErr: return "remote-operation-error";
    case WcStatus::kRnrRetryExcErr: return "rnr-retry-exceeded";
    case WcStatus::kRetryExcErr: return "transport-retry-exceeded";
  }
  return "unknown";
}

/// Work completion, mirroring ibv_wc.
struct Wc {
  uint64_t wr_id = 0;
  WcOpcode opcode = WcOpcode::kSend;
  uint32_t byte_len = 0;
  uint32_t imm = 0;
  WcStatus status = WcStatus::kSuccess;
  uint32_t qp_num = 0;

  bool ok() const { return status == WcStatus::kSuccess; }
};

class VerbsCheck;

class CompletionQueue {
 public:
  /// `capacity` is the ibv_create_cq cqe argument (0 = the cost model's
  /// default depth); overflowing it is a VerbsCheck contract violation but,
  /// like every checker rule, does not change the simulator's behaviour.
  CompletionQueue(sim::Simulator& sim, sim::Cpu& cpu, const CostModel& cost,
                  obs::CounterSet* ctrs = nullptr,
                  VerbsCheck* check = nullptr, uint32_t capacity = 0,
                  uint32_t node_id = 0)
      : sim_(sim), cpu_(cpu), cost_(cost), ctrs_(ctrs), check_(check),
        capacity_(capacity == 0 ? cost.cq_depth : capacity),
        node_id_(node_id), avail_(sim) {}

  /// Called by the fabric when the NIC DMAs a CQE to host memory. Runs the
  /// contract checker's completion accounting (double-completion detection,
  /// CQ overflow). Defined in fabric.cc.
  void deliver(Wc wc);

  uint32_t capacity() const { return capacity_; }

  /// Pins this CQ's polling costs to one core (per-core sharded servers).
  /// Busy waits on a bound CQ do NOT register a per-wait spinning thread:
  /// the owning shard registers ONE persistent spinner (Cpu::pin_spinner)
  /// that all of its connections' waits multiplex onto.
  void bind_core(int core) { core_ = core; }

  /// Mirrors per-CQE consumption into a shard-scope counter set (owned by
  /// the sharded server that steered this CQ's connection).
  void attach_shard(obs::CounterSet* shard) { shard_ = shard; }

  /// Non-blocking poll (ibv_poll_cq with no wait). No pickup delay applied —
  /// callers embedding this in their own spin loop charge their own time.
  std::optional<Wc> try_poll() {
    if (cqes_.empty()) return std::nullopt;
    Wc wc = cqes_.front();
    cqes_.pop_front();
    rc_pop();
    ++consumed_;
    count_polled();
    return wc;
  }

  /// Waits for the next completion with the given polling discipline,
  /// charging the discipline's pickup latency and the software CQE cost.
  /// A floating busy wait holds a spinning thread for its whole duration.
  Task<Wc> wait(PollMode mode) {
    std::optional<sim::Cpu::BusyGuard> spin;
    if (mode == PollMode::kBusy && core_ < 0) spin.emplace(cpu_);
    while (true) {
      while (cqes_.empty()) {
        if (closed_) co_return Wc{.status = WcStatus::kWrFlushErr};
        co_await avail_.wait();
      }
      co_await sim_.sleep(cpu_.pickup_delay(mode, core_));
      if (!cqes_.empty()) break;  // lost a race with another poller
      if (closed_) co_return Wc{.status = WcStatus::kWrFlushErr};
    }
    co_await sim_.sleep(cost_.poll_cqe_cpu);
    Wc wc = cqes_.front();
    cqes_.pop_front();
    rc_pop();
    ++consumed_;
    count_polled();
    co_return wc;
  }

  /// Non-blocking batch drain (ibv_poll_cq(cq, max_n)): pops up to max_n
  /// already-delivered CQEs in order. Like try_poll, no pickup delay — the
  /// caller's spin loop owns its own time.
  std::vector<Wc> poll(size_t max_n) {
    std::vector<Wc> out;
    size_t take = std::min(max_n, cqes_.size());
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out.push_back(cqes_.front());
      cqes_.pop_front();
      rc_pop();
      ++consumed_;
      count_polled();
    }
    if (!out.empty() && ctrs_) ctrs_->add(obs::Ctr::kCqBatchPolls);
    return out;
  }

  /// Blocking batch drain: waits for the first CQE with the discipline's
  /// pickup latency, then sweeps up to max_n CQEs that are already visible,
  /// paying the per-CQE software cost for each but only one wake-up. This
  /// is what amortizes interrupt/poll overhead for pipelined channels.
  Task<std::vector<Wc>> wait_many(PollMode mode, size_t max_n) {
    std::optional<sim::Cpu::BusyGuard> spin;
    if (mode == PollMode::kBusy && core_ < 0) spin.emplace(cpu_);
    if (max_n == 0) max_n = 1;
    while (true) {
      while (cqes_.empty()) {
        if (closed_) {
          co_return std::vector<Wc>{Wc{.status = WcStatus::kWrFlushErr}};
        }
        co_await avail_.wait();
      }
      co_await sim_.sleep(cpu_.pickup_delay(mode, core_));
      if (!cqes_.empty()) break;  // lost a race with another poller
      if (closed_) {
        co_return std::vector<Wc>{Wc{.status = WcStatus::kWrFlushErr}};
      }
    }
    size_t take = std::min(max_n, cqes_.size());
    co_await sim_.sleep(cost_.poll_cqe_cpu * static_cast<int64_t>(take));
    std::vector<Wc> out;
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out.push_back(cqes_.front());
      cqes_.pop_front();
      rc_pop();
      ++consumed_;
      count_polled();
    }
    if (ctrs_) ctrs_->add(obs::Ctr::kCqBatchPolls);
    co_return out;
  }

  /// What reap() resumes with: the entries it took, in order.
  class Reap;

  /// Up to max_n completions after one pickup, for a caller that polls one
  /// at a time when alone: wait() when max_n is 1 (no batch poll counted),
  /// else wait_many(). An awaiter over the task it starts: no extra frame.
  Reap reap(PollMode mode, size_t max_n);

  /// Unblocks all waiters with a kWrFlushErr Wc; used for clean shutdown of
  /// server polling loops.
  void close() {
    closed_ = true;
    avail_.notify_all();
  }
  bool is_closed() const { return closed_; }

  size_t depth() const { return cqes_.size(); }
  uint64_t delivered() const { return delivered_; }
  uint64_t consumed() const { return consumed_; }

 private:
  void count_polled() {
    if (ctrs_) ctrs_->add(obs::Ctr::kCqesPolled);
    if (shard_) shard_->add(obs::Ctr::kShardPolls);
  }

  // One racecheck token per delivered CQE, kept aligned with cqes_ (a
  // kNoClock placeholder is pushed even while the checker is off, so a
  // mid-run mode toggle cannot desynchronize the two queues). Consuming a
  // CQE joins the delivering segment's clock into the poller.
  void rc_pop() {
    if (!rc_tok_.empty()) {
      sim_.rc_consume(rc_tok_.front());
      rc_tok_.pop_front();
    }
  }

  sim::Simulator& sim_;
  sim::Cpu& cpu_;
  const CostModel& cost_;
  obs::CounterSet* ctrs_;
  obs::CounterSet* shard_ = nullptr;  // shard scope (sharded servers)
  VerbsCheck* check_;
  uint32_t capacity_;
  uint32_t node_id_;
  int core_ = sim::Cpu::kAnyCore;     // pinned polling core, -1 = floating
  sim::WaitQueue avail_;
  std::deque<Wc> cqes_;
  std::deque<uint32_t> rc_tok_;  // parallel to cqes_; see rc_pop()
  bool closed_ = false;
  uint64_t delivered_ = 0;
  uint64_t consumed_ = 0;
};

class CompletionQueue::Reap {
 public:
  explicit Reap(Task<Wc> one) : one_(std::move(one)) {}
  explicit Reap(Task<std::vector<Wc>> many) : many_(std::move(many)) {}
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
    if (one_.valid()) return std::move(one_).operator co_await().await_suspend(h);
    return std::move(many_).operator co_await().await_suspend(h);
  }
  std::span<Wc> await_resume() {
    if (!one_.valid())
      return got_ = std::move(many_).operator co_await().await_resume();
    wc_ = std::move(one_).operator co_await().await_resume();
    return {&wc_, 1};
  }

 private:
  Task<Wc> one_;
  Task<std::vector<Wc>> many_;
  Wc wc_;
  std::vector<Wc> got_;
};

inline CompletionQueue::Reap CompletionQueue::reap(PollMode mode,
                                                   size_t max_n) {
  if (max_n == 1) return Reap(wait(mode));
  return Reap(wait_many(mode, max_n));
}

/// ibv_poll_cq-shaped free function: non-blocking batch drain.
inline std::vector<Wc> poll_cq(CompletionQueue& cq, size_t max_n) {
  return cq.poll(max_n);
}

}  // namespace hatrpc::verbs
