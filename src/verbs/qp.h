// Queue pairs and work requests, mirroring the ibverbs RC programming
// model: post_send (SEND / RDMA WRITE / RDMA READ / WRITE_WITH_IMM,
// optionally chained under one doorbell), post_recv, and per-QP recv queues
// with RNR-style backpressure when no receive is posted.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/counters.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "verbs/memory.h"

namespace hatrpc::verbs {

class Fabric;
class Node;
class CompletionQueue;
class SharedReceiveQueue;

enum class Opcode : uint8_t {
  kSend,      // two-sided: consumes a remote posted recv
  kWrite,     // one-sided: no remote completion
  kWriteImm,  // WRITE_WITH_IMM: one-sided data + remote recv completion
  kRead,      // one-sided fetch: responder CPU not involved
};

/// Scatter/gather element.
struct Sge {
  std::byte* addr = nullptr;
  uint32_t length = 0;
};

struct SendWr {
  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  /// The WR's one local buffer: the gather source of a send or write, the
  /// scatter target of a read.
  Sge local{};
  RemoteAddr remote{};  // for kWrite / kWriteImm / kRead
  uint32_t imm = 0;     // for kWriteImm
  bool signaled = true;
  /// IBV_SEND_INLINE: the payload is snapshotted into the WQE at post time,
  /// so the application buffer is reusable the moment post_send returns.
  /// Rejected (std::length_error) when the payload exceeds the QP's
  /// max_inline_data, and invalid for kRead.
  bool inline_data = false;
  /// Ownership that must survive until the WQE finishes executing (the sim
  /// analogue of "don't touch the buffer until the CQE"): zero-copy senders
  /// park a moved-from Buffer here instead of staging a copy. Set it on a
  /// named WR, never in a braced SendWr temporary inside a co_await: GCC 12
  /// copies that temporary memberwise without running the shared_ptr move
  /// constructor (scripts/lint.sh rule 4).
  std::shared_ptr<const void> keep_alive;
};

struct RecvWr {
  uint64_t wr_id = 0;
  Sge buf{};
};

/// The RC QP state machine, mirroring ibv_qp_state. A QP is created in
/// kReset and walked RESET -> INIT -> RTR -> RTS by Fabric::connect (the
/// modify-QP dance real connection setup performs). The simulator's data
/// path only distinguishes "working" from kError (fatal fault or injected
/// failure — all outstanding and future WRs complete as kWrFlushErr), but
/// VerbsCheck enforces the full transition legality and the per-state
/// posting rules (recvs legal from INIT, sends only in RTS) that real
/// hardware rejects with immediate errors.
enum class QpState : uint8_t { kReset, kInit, kRtr, kRts, kError };

constexpr const char* to_string(QpState s) {
  switch (s) {
    case QpState::kReset: return "RESET";
    case QpState::kInit: return "INIT";
    case QpState::kRtr: return "RTR";
    case QpState::kRts: return "RTS";
    case QpState::kError: return "ERROR";
  }
  return "?";
}

/// A reliable-connected queue pair. Created via Node::create_qp and wired to
/// its peer with Fabric::connect.
class QueuePair {
 public:
  QueuePair(Fabric& fabric, Node& node, CompletionQueue& send_cq,
            CompletionQueue& recv_cq, uint32_t qp_num);

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Posts one work request: charges the caller's CPU for WR construction
  /// plus one doorbell MMIO, then hands the WQE to the (simulated) NIC.
  /// Returns once the doorbell is rung — completions arrive on the CQs.
  ///
  /// Doorbell coalescing: WRs whose construction finishes while another
  /// poster's doorbell MMIO on this QP is still in flight ride that same
  /// MMIO (the tail write picks up every WQE built so far), so concurrent
  /// windowed lanes ring fewer doorbells than they post WQEs. A lone post
  /// is exactly the pre-coalescing cost: build + one MMIO.
  sim::Task<void> post_send(SendWr wr);

  /// Posts a chain of WRs with a single doorbell (the Chained-Write-Send
  /// optimization: one MMIO for the whole chain). The NIC executes the
  /// chain in order.
  sim::Task<void> post_send_chain(std::vector<SendWr> wrs);

  /// Posts a receive buffer (no simulated cost; buffers are pre-posted off
  /// the critical path in all protocols). Posting to an errored QP flushes
  /// the WR straight back as a kWrFlushErr completion, like a real RC QP.
  void post_recv(RecvWr wr);

  QpState state() const { return state_; }
  bool in_error() const { return state_ == QpState::kError; }

  /// ibv_modify_qp analogue: applies the transition unconditionally (the
  /// simulator stays forgiving) but reports illegal ones through VerbsCheck.
  /// Legal: RESET->INIT->RTR->RTS, any->ERROR, ERROR->RESET.
  void modify(QpState next);

  /// True once Node::destroy_qp has been called; any further use is a
  /// use-after-destroy contract violation (the object itself stays alive in
  /// the node's graveyard so stale pointers fail loudly, not with UB).
  bool destroyed() const { return destroyed_; }

  /// Inline capacity of this QP (ibv_query_qp's cap.max_inline_data);
  /// posts with inline_data set and a larger payload are rejected.
  uint32_t max_inline_data() const;

  /// RTS -> ERR transition: posted recvs flush with kWrFlushErr, in-flight
  /// RNR waiters are released, and every later WR fails.
  void enter_error();

  Node& node() { return node_; }
  QueuePair* peer() { return peer_; }
  CompletionQueue& send_cq() { return send_cq_; }
  CompletionQueue& recv_cq() { return recv_cq_; }
  uint32_t qp_num() const { return qp_num_; }
  size_t posted_recvs() const { return recv_queue_.size(); }

  /// Attaches this QP to a shared receive queue: incoming SEND/WRITE_IMM
  /// messages consume recvs from the shared pool instead of the private
  /// per-QP queue (which then goes unused, like ibv_create_qp with a srq).
  void set_srq(SharedReceiveQueue* srq) { srq_ = srq; }
  SharedReceiveQueue* srq() const { return srq_; }

  /// Mirrors this QP's doorbell/WQE/DMA charges into a channel-scoped
  /// counter set (on top of the always-on node scope).
  void attach_counters(obs::CounterSet* ctrs) { chan_ctrs_ = ctrs; }
  obs::CounterSet* channel_counters() { return chan_ctrs_; }

  /// NUMA placement of the thread driving this QP relative to the NIC.
  /// Off-socket posting pays CostModel::numa_remote_penalty per doorbell.
  bool numa_local = true;

 private:
  friend class Fabric;
  friend class Node;

  /// Fabric-side: takes the next posted recv, waiting (RNR backpressure)
  /// if the application has not replenished the queue yet. Returns nullopt
  /// if the QP errors out while waiting. Senders blocked here take recvs
  /// in the order they blocked.
  sim::Channel<RecvWr>::Pop take_recv() { return recv_queue_.pop(); }

  /// Fabric-side, non-blocking variant for paced finite-RNR re-probing.
  std::optional<RecvWr> try_take_recv() { return recv_queue_.try_pop(); }

  /// Counts one doorbell ring carrying `wqes` work requests (node scope
  /// always, channel scope when attached). Defined in fabric.cc.
  void count_post(uint64_t wqes);

  /// Validates and finalizes a WR before it enters the send queue: rejects
  /// oversized/invalid inline posts, snapshots inline payloads into the WQE
  /// (freeing the app buffer), counts inline WQEs, and returns the extra
  /// software build time (inline stores) the poster must charge on top of
  /// post_wqe_cpu.
  sim::Duration prepare_send(SendWr& wr);

  /// Sweeps sq_pending_ into the NIC under the doorbell that just landed.
  void flush_sends();

  /// Suspending halves of post_send / post_send_chain. The public entry
  /// points are deliberately NOT coroutines: everything that touches the WR
  /// runs synchronously in the caller, so rejections throw straight out of
  /// the call and no WR is ever copied into a coroutine frame as a
  /// parameter. These tails carry only trivially-copyable costs, or a
  /// vector moved from a named lvalue (see the keep_alive note above for
  /// the compiler hazard this layout avoids).
  sim::Task<void> send_doorbell(sim::Duration build);
  sim::Task<void> chain_doorbell(sim::Duration sw, std::vector<SendWr> wrs);

  Fabric& fabric_;
  Node& node_;
  CompletionQueue& send_cq_;
  CompletionQueue& recv_cq_;
  uint32_t qp_num_;
  QpState state_ = QpState::kReset;
  bool destroyed_ = false;
  QueuePair* peer_ = nullptr;
  obs::CounterSet* chan_ctrs_ = nullptr;
  SharedReceiveQueue* srq_ = nullptr;
  sim::Channel<RecvWr> recv_queue_;
  /// Doorbell batcher: WQEs built while a flush MMIO is in progress wait
  /// here and are swept by that flush (see post_send).
  std::vector<SendWr> sq_pending_;
  /// The batch a flush is sweeping. It trades buffers with sq_pending_ and
  /// keeps their capacity, so a steady-state post allocates nothing.
  std::vector<SendWr> sq_batch_;
  bool db_flushing_ = false;
  uint64_t db_flush_seq_ = 0;
  sim::WaitQueue db_flushed_;
  /// RC ordering: all packets of WQE n precede WQE n+1 on this QP, even
  /// though the wire multiplexes packets across different QPs.
  sim::Mutex sq_order_;
};

}  // namespace hatrpc::verbs
