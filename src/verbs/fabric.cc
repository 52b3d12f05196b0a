#include "verbs/fabric.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "verbs/srq.h"

namespace hatrpc::verbs {

using sim::Task;
using sim::Time;

namespace {

std::string wqe_tag(const QueuePair& qp, const SendWr& wr) {
  return "qp=" + std::to_string(qp.qp_num()) +
         " wr=" + std::to_string(wr.wr_id);
}

WcOpcode send_side_opcode(Opcode op) {
  switch (op) {
    case Opcode::kSend: return WcOpcode::kSend;
    case Opcode::kRead: return WcOpcode::kRdmaRead;
    case Opcode::kWrite:
    case Opcode::kWriteImm: return WcOpcode::kRdmaWrite;
  }
  return WcOpcode::kSend;
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kSend: return "send";
    case Opcode::kWrite: return "write";
    case Opcode::kWriteImm: return "write_imm";
    case Opcode::kRead: return "read";
  }
  return "unknown";
}

/// Counts one event in the requester's node scope and, when the QP is
/// bound to a channel, in the channel scope as well.
void count_qp(QueuePair& qp, obs::Ctr c) {
  qp.node().counters().add(c);
  if (obs::CounterSet* chan = qp.channel_counters()) chan->add(c);
}

}  // namespace

QueuePair::QueuePair(Fabric& fabric, Node& node, CompletionQueue& send_cq,
                     CompletionQueue& recv_cq, uint32_t qp_num)
    : fabric_(fabric), node_(node), send_cq_(send_cq), recv_cq_(recv_cq),
      qp_num_(qp_num), recv_queue_(fabric.simulator()),
      db_flushed_(fabric.simulator()), sq_order_(fabric.simulator()) {}

QueuePair* Node::create_qp(CompletionQueue& send_cq,
                           CompletionQueue& recv_cq) {
  // QP numbers are per-fabric (not process-global) so traces that mention
  // them are byte-identical across repeated runs in one process.
  qps_.push_back(std::make_unique<QueuePair>(fabric_, *this, send_cq, recv_cq,
                                             fabric_.next_qpn_++));
  QueuePair* qp = qps_.back().get();
  if (crashed_) qp->enter_error();
  return qp;
}

void Node::crash() {
  if (crashed_) return;
  crashed_ = true;
  // Local QPs die instantly; peers discover the silence through the
  // transport retry machinery (see the unreachable-peer path in
  // Fabric::execute_wqe), not by magic.
  for (auto& qp : qps_) qp->enter_error();
  for (auto& cq : cqs_) cq->close();
  for (auto& srq : srqs_) srq->close();
}

void Node::restart() {
  if (!crashed_) return;
  crashed_ = false;
  // The crash already errored every QP and closed every CQ/SRQ; they stay
  // that way. create_qp/create_cq issued after this point build live
  // objects again (create_qp stops force-erroring once crashed_ clears).
}

void QueuePair::enter_error() {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  // Flush every posted receive back to the recv CQ, as an RC QP
  // transitioning to the error state does — one already handed to a
  // blocked sender that has not resumed yet included: that sender then
  // takes the unreachable path.
  for (const RecvWr& wr : recv_queue_.flush()) {
    recv_cq_.deliver(Wc{.wr_id = wr.wr_id,
                        .opcode = WcOpcode::kRecv,
                        .byte_len = 0,
                        .imm = 0,
                        .status = WcStatus::kWrFlushErr,
                        .qp_num = qp_num_});
  }
  recv_queue_.close();  // releases RNR waiters: take_recv() returns nullopt
}

void QueuePair::post_recv(RecvWr wr) {
  {
    VerbsCheck& vc = fabric_.check();
    if (vc.on()) vc.on_post_recv(*this, wr);
  }
  if (state_ == QpState::kError) {
    recv_cq_.deliver(Wc{.wr_id = wr.wr_id,
                        .opcode = WcOpcode::kRecv,
                        .byte_len = 0,
                        .imm = 0,
                        .status = WcStatus::kWrFlushErr,
                        .qp_num = qp_num_});
    return;
  }
  recv_queue_.push(wr);
}

void Fabric::connect(QueuePair& a, QueuePair& b) {
  if (a.peer_ || b.peer_) throw std::logic_error("QP already connected");
  a.peer_ = &b;
  b.peer_ = &a;
  // The modify-QP dance: both QPs walk RESET -> INIT -> RTR -> RTS, exactly
  // like the RDMA-CM exchange. Crashed/errored QPs stay where they are (the
  // transport will discover the silence; connect cannot resurrect them).
  for (QueuePair* q : {&a, &b}) {
    if (q->in_error()) continue;
    q->modify(QpState::kInit);
    q->modify(QpState::kRtr);
    q->modify(QpState::kRts);
  }
}

void QueuePair::modify(QpState next) {
  VerbsCheck& vc = fabric_.check();
  if (vc.on()) vc.on_modify(*this, state_, next);
  if (next == QpState::kError) {
    enter_error();
    return;
  }
  state_ = next;
}

void Node::destroy_qp(QueuePair* qp) {
  if (!qp) return;
  if (check_ && check_->on()) check_->on_destroy_qp(*qp);
  if (qp->destroyed_) return;
  // ibv_destroy_qp semantics: outstanding WRs flush (enter_error delivers
  // the recv flushes), then the object moves to the graveyard so stale
  // pointers hit the use-after-destroy rule instead of freed memory.
  qp->enter_error();
  qp->destroyed_ = true;
  for (auto it = qps_.begin(); it != qps_.end(); ++it) {
    if (it->get() == qp) {
      dead_qps_.push_back(std::move(*it));
      qps_.erase(it);
      break;
    }
  }
}

void CompletionQueue::deliver(Wc wc) {
  cqes_.push_back(wc);
  rc_tok_.push_back(sim_.rc_capture());  // kNoClock when the checker is off
  ++delivered_;
  if (check_) check_->on_cqe(wc, cqes_.size(), capacity_, node_id_);
  avail_.notify_all();
}

void SharedReceiveQueue::post_recv(RecvWr wr, obs::CounterSet* chan_ctrs) {
  if (check_) check_->on_srq_post(*this, node_id_, wr);
  if (closed_) return;
  queue_.push(wr);
  if (node_ctrs_) node_ctrs_->add(obs::Ctr::kSrqPosts);
  if (chan_ctrs) chan_ctrs->add(obs::Ctr::kSrqPosts);
}

void SharedReceiveQueue::close() {
  if (closed_) return;
  closed_ = true;
  queue_.close();
  if (check_) check_->on_srq_close(*this);
}

void ProtectionDomain::dereg_mr(MemoryRegion* mr) {
  if (check_) check_->on_dereg_mr(node_id_, *mr);
  if (cache_) cache_->invalidate(mr);
  dereg_mr_raw(mr);
}

AuditReport Fabric::audit() {
  AuditReport r;
  for (auto& n : nodes_) {
    r.live_qps += n->qps_.size();
    r.destroyed_qps += n->dead_qps_.size();
    r.live_cqs += n->cqs_.size();
    r.live_srqs += n->srqs_.size();
    r.live_mrs += n->pd().mr_count();
    r.external_mrs += n->pd().external_mr_count();
    r.registered_bytes += n->pd().registered_bytes();
    for (auto& cq : n->cqs_) r.unconsumed_cqes += cq->depth();
    for (auto& qp : n->qps_) r.pending_recvs += qp->posted_recvs();
    for (auto& srq : n->srqs_) r.pending_recvs += srq->posted();
  }
  // Only meaningful with checking enabled (the shadow accounting is the
  // source of truth for "posted but never completed"); 0 when off.
  r.outstanding_sends = check_.outstanding_sends();
  r.violations = check_.total();
  if (check_.on() && !r.clean()) check_.report_leak(r, "audit");
  return r;
}

Fabric::~Fabric() {
  if (!check_.on()) return;
  audit();  // report_leak never throws, so this is destructor-safe
}

void Fabric::set_fault_plan(std::unique_ptr<FaultPlan> plan) {
  fault_plan_ = std::move(plan);
  if (!fault_plan_) return;
  for (const auto& f : fault_plan_->scheduled()) sim_.spawn(apply_fault(f));
}

QueuePair* Fabric::find_qp(uint32_t qp_num) {
  for (auto& n : nodes_)
    for (auto& qp : n->qps_)
      if (qp->qp_num() == qp_num) return qp.get();
  return nullptr;
}

Task<void> Fabric::injected_delay(QueuePair& src, const SendWr& wr) {
  FaultPlan* fp = fault_plan_.get();
  sim::Duration extra = fp->draw_delay();
  if (extra.count() > 0) {
    fp->note(sim_.now(), "delay " + wqe_tag(src, wr) + " ns=" +
                             std::to_string(extra.count()));
    co_await sim_.sleep(extra);
  }
}

Task<void> Fabric::apply_fault(FaultPlan::Scheduled f) {
  co_await sim_.sleep_until(f.at);
  FaultPlan* fp = fault_plan_.get();
  if (!fp) co_return;
  switch (f.kind) {
    case FaultPlan::Scheduled::Kind::kQpError:
      if (QueuePair* qp = find_qp(f.id)) {
        fp->note(sim_.now(), "qp-error qp=" + std::to_string(f.id));
        qp->enter_error();
      }
      break;
    case FaultPlan::Scheduled::Kind::kNodeCrash:
      if (f.id < nodes_.size() && !nodes_[f.id]->crashed()) {
        fp->note(sim_.now(), "node-crash node=" + std::to_string(f.id));
        nodes_[f.id]->crash();
      }
      break;
    case FaultPlan::Scheduled::Kind::kRevokeMrs:
      if (f.id < nodes_.size()) {
        fp->note(sim_.now(), "revoke-mrs node=" + std::to_string(f.id));
        nodes_[f.id]->pd().revoke_all();
      }
      break;
    case FaultPlan::Scheduled::Kind::kNodeRestart:
      if (f.id < nodes_.size() && nodes_[f.id]->crashed()) {
        fp->note(sim_.now(), "node-restart node=" + std::to_string(f.id));
        nodes_[f.id]->restart();
      }
      break;
  }
}

void QueuePair::count_post(uint64_t wqes) {
  obs::CounterSet& n = node_.counters();
  n.add(obs::Ctr::kDoorbells);
  n.add(obs::Ctr::kWqesPosted, wqes);
  // Every WQE past the first rode this doorbell instead of ringing its own
  // (a chained post or a coalesced batch — same MMIO arithmetic).
  if (wqes > 1) n.add(obs::Ctr::kDoorbellCoalescedWqes, wqes - 1);
  if (chan_ctrs_) {
    chan_ctrs_->add(obs::Ctr::kDoorbells);
    chan_ctrs_->add(obs::Ctr::kWqesPosted, wqes);
    if (wqes > 1)
      chan_ctrs_->add(obs::Ctr::kDoorbellCoalescedWqes, wqes - 1);
  }
}

void Fabric::fail_wqe(QueuePair& src, const SendWr& wr, WcStatus status) {
  count_qp(src, obs::Ctr::kWqeErrors);
  if (obs_.tracer.enabled())
    obs_.tracer.instant(std::string("wqe-error/") + to_string(status),
                        "verbs", sim_.now(), src.node().id(), src.qp_num());
  // Error completions are generated even for unsignaled WRs, and the QP
  // moves to the error state so everything behind this WQE flushes.
  src.send_cq().deliver(Wc{.wr_id = wr.wr_id,
                           .opcode = send_side_opcode(wr.opcode),
                           .byte_len = 0,
                           .imm = 0,
                           .status = status,
                           .qp_num = src.qp_num()});
  src.enter_error();
}

uint32_t QueuePair::max_inline_data() const {
  return fabric_.cost().max_inline_data;
}

sim::Duration QueuePair::prepare_send(SendWr& wr) {
  const CostModel& cm = fabric_.cost();
  sim::Duration extra{};
  if (wr.inline_data) {
    if (wr.opcode == Opcode::kRead)
      throw std::logic_error("IBV_SEND_INLINE is invalid for RDMA READ");
    const uint64_t bytes = wr.local.length;
    if (bytes > cm.max_inline_data)
      throw std::length_error(
          "inline payload of " + std::to_string(bytes) +
          "B exceeds max_inline_data=" + std::to_string(cm.max_inline_data));
    // Snapshot the payload into the WQE: from here on the WQE carries the
    // bytes and the application buffers are free for reuse (inline's
    // buffer-release semantics — no slot cross-talk under pipelining).
    // The bytes come from the fabric's recycled snapshot pool.
    auto snap = fabric_.buf_arena().shared_lease(bytes);
    if (bytes > 0) std::memcpy(snap->data(), wr.local.addr, bytes);
    wr.local.addr = snap->data();
    wr.keep_alive = std::move(snap);
    extra += cm.inline_write_time(bytes);
    count_qp(*this, obs::Ctr::kInlineWqes);
  }
  return extra;
}

// Not a coroutine (see the send_doorbell declaration for why): everything up
// to the enqueue runs synchronously in the caller, so the WR never crosses a
// coroutine-frame boundary and rejections throw straight out of the call.
Task<void> QueuePair::post_send(SendWr wr) {
  if (!peer_) throw std::logic_error("QP not connected");
  {
    // Contract checks run against the WR as the application posted it,
    // before prepare_send snapshots inline payloads away.
    VerbsCheck& vc = fabric_.check();
    if (vc.on()) vc.on_post_send(*this, wr, "post_send");
  }
  const CostModel& cm = fabric_.cost();
  // Inline stores add to the WR build time; a plain post charges exactly
  // the pre-zero-copy cost.
  const sim::Duration build = cm.post_wqe_cpu + prepare_send(wr);
  sq_pending_.push_back(std::move(wr));
  return send_doorbell(build);
}

Task<void> QueuePair::send_doorbell(sim::Duration build) {
  const CostModel& cm = fabric_.cost();
  if (db_flushing_) {
    // Another poster's doorbell MMIO on this QP is still in flight: its
    // tail write sweeps every WQE in the queue, including ours. Charge the
    // WR build (overlapped with that MMIO) and wait for the sweep.
    uint64_t target = db_flush_seq_ + 1;
    co_await node_.cpu().compute(build);
    while (db_flush_seq_ < target) co_await db_flushed_.wait();
    co_return;
  }
  db_flushing_ = true;
  // Build + doorbell MMIO in one charge — identical cost to an uncoalesced
  // post when nobody else shows up before the MMIO lands.
  sim::Duration sw = build + cm.mmio_doorbell;
  if (!numa_local) sw += cm.numa_remote_penalty;
  co_await node_.cpu().compute(sw);
  flush_sends();
}

void QueuePair::flush_sends() {
  sq_batch_.swap(sq_pending_);
  count_post(sq_batch_.size());
  for (auto& w : sq_batch_) fabric_.start_wqe(*this, std::move(w));
  sq_batch_.clear();
  ++db_flush_seq_;
  db_flushing_ = false;
  db_flushed_.notify_all();
}

// Like post_send, a plain function: the prepared chain enters chain_doorbell
// as a move from a named lvalue, never as a prvalue coroutine argument.
Task<void> QueuePair::post_send_chain(std::vector<SendWr> wrs) {
  if (!peer_) throw std::logic_error("QP not connected");
  {
    VerbsCheck& vc = fabric_.check();
    if (vc.on())
      for (const SendWr& w : wrs) vc.on_post_send(*this, w, "post_send_chain");
  }
  const CostModel& cm = fabric_.cost();
  // One WR build per element but a single doorbell MMIO for the chain.
  sim::Duration sw = cm.mmio_doorbell;
  for (SendWr& w : wrs) sw += cm.post_wqe_cpu + prepare_send(w);
  if (!numa_local) sw += cm.numa_remote_penalty;
  return chain_doorbell(sw, std::move(wrs));
}

Task<void> QueuePair::chain_doorbell(sim::Duration sw, std::vector<SendWr> wrs) {
  co_await node_.cpu().compute(sw);
  count_post(wrs.size());
  fabric_.simulator().spawn(fabric_.execute_chain(*this, std::move(wrs)));
}

Time Fabric::reserve_packet(Nic& tx, Nic& rx, uint64_t bytes) {
  sim::Duration ser =
      sim::transfer_time(bytes + cost_.header_bytes, cost_.link_gbps);
  Time start = std::max({sim_.now(), tx.tx_free(), rx.rx_free()});
  tx.reserve_tx(start + ser, bytes);
  rx.reserve_rx(start + ser, bytes);
  return start + ser;
}

Task<void> Fabric::execute_chain(QueuePair& src, std::vector<SendWr> wrs) {
  // The NIC pipelines chained WQEs: it starts WQE n+1 one processing slot
  // after initiating WQE n (it does NOT wait for n's ack). Wire ordering is
  // preserved by the FIFO tx-link reservations.
  for (auto& wr : wrs) {
    start_wqe(src, wr);
    co_await sim_.sleep(cost_.nic_wqe);
  }
}

void Fabric::start_wqe(QueuePair& src, SendWr wr) {
  if (obs_.tracer.enabled()) {
    sim_.spawn(traced_wqe(src, std::move(wr)));
  } else {
    sim_.spawn(execute_wqe(src, std::move(wr)));
  }
}

Task<void> Fabric::traced_wqe(QueuePair& src, SendWr wr) {
  // WR post -> completion span: one per WQE, keyed to the requester.
  Time t0 = sim_.now();
  uint32_t pid = src.node().id();
  uint32_t qpn = src.qp_num();
  const Opcode op = wr.opcode;
  co_await execute_wqe(src, std::move(wr));
  obs_.tracer.complete(std::string("wqe/") + opcode_name(op), "verbs", t0,
                       sim_.now() - t0, pid, qpn);
}

Task<void> Fabric::execute_wqe(QueuePair& src, SendWr wr) {
  Node& s = src.node();
  QueuePair* dst_qp = src.peer();
  Node& d = dst_qp->node();
  const CostModel& cm = cost_;
  const uint64_t bytes = wr.local.length;
  FaultPlan* fp = fault_plan_.get();
  const FaultProfile prof = fp ? fp->profile : FaultProfile{};

  // WQE fetch + NIC processing at the initiator. An inline WQE arrived
  // whole (descriptor + payload) in the doorbell's write-combined MMIO
  // burst, so the NIC skips the host-memory fetch entirely.
  co_await sim_.sleep(wr.inline_data ? cm.nic_inline_wqe : cm.nic_wqe);

  if (src.in_error()) {
    fail_wqe(src, wr, WcStatus::kWrFlushErr);
    co_return;
  }
  if (dst_qp->in_error() || d.crashed()) {
    // Peer QP is gone: the transport retransmits into silence until the
    // retry counter runs out, then reports it.
    co_await sim_.sleep(prof.unreachable_penalty());
    if (fp) fp->note(sim_.now(), "unreachable " + wqe_tag(src, wr));
    fail_wqe(src, wr, WcStatus::kRetryExcErr);
    co_return;
  }
  switch (wr.opcode) {
    case Opcode::kSend:
    case Opcode::kWrite:
    case Opcode::kWriteImm: {
      {
        // RC in-order execution: WQE n+1's packets follow WQE n's on the
        // wire (packets of different QPs still interleave). The lock spans
        // only wire occupancy — flight time pipelines across WQEs.
        auto order_guard = co_await src.sq_order_.scoped();
        // Injected queueing delay sits INSIDE the ordered section: it must
        // stall this QP's whole send queue, or a delayed WRITE could be
        // overtaken by its own notify SEND (an RC ordering violation).
        if (fault_plan_) co_await injected_delay(src, wr);
        unsigned attempt = 0;
        while (true) {
          for (uint64_t off = 0, n = bytes ? bytes : 1; off < n; off += kMtu)
            co_await sim_.sleep_until(
                reserve_packet(s.nic(), d.nic(), std::min(kMtu, n - off)));
          if (!fp) break;
          FaultPlan::LossKind loss = fp->draw_loss();
          if (loss == FaultPlan::LossKind::kNone) {
            if (fp->draw_duplicate()) {
              // Duplicate delivery is PSN-deduped at the responder: it
              // costs wire occupancy but has no semantic effect.
              count_qp(src, obs::Ctr::kDuplicates);
              fp->note(sim_.now(), "dup " + wqe_tag(src, wr));
              for (uint64_t off = 0, n = bytes ? bytes : 1; off < n;
                   off += kMtu)
                co_await sim_.sleep_until(reserve_packet(
                    s.nic(), d.nic(), std::min(kMtu, n - off)));
            }
            break;
          }
          // Dropped on the wire (ack timeout) or corrupted in flight
          // (ICRC mismatch, receiver discards): either way the transport
          // waits out the retransmit timer and sends the payload again.
          count_qp(src, obs::Ctr::kRetransmits);
          fp->note(sim_.now(),
                   (loss == FaultPlan::LossKind::kDrop ? "drop " : "corrupt ") +
                       wqe_tag(src, wr) + " attempt=" +
                       std::to_string(attempt + 1));
          if (++attempt > prof.retry_count) {
            fp->note(sim_.now(), "retry-exhausted " + wqe_tag(src, wr));
            fail_wqe(src, wr, WcStatus::kRetryExcErr);
            co_return;
          }
          co_await sim_.sleep(prof.retransmit_timeout);
        }
        // Payload crossed the wire: DMA engines touched it at both ends —
        // except that an inline payload was never DMA-fetched at the source
        // (it rode the MMIO), so only the destination engine moved it.
        if (!wr.inline_data) {
          s.counters().add(obs::Ctr::kDmaBytes, bytes);
          if (obs::CounterSet* chan = src.channel_counters())
            chan->add(obs::Ctr::kDmaBytes, bytes);
        }
        d.counters().add(obs::Ctr::kDmaBytes, bytes);
      }
      co_await sim_.sleep(cm.propagation);
      // Re-check after time passed on the wire: a scheduled fault may have
      // fired mid-flight.
      if (src.in_error()) {
        fail_wqe(src, wr, WcStatus::kWrFlushErr);
        co_return;
      }
      if (dst_qp->in_error() || d.crashed()) {
        co_await sim_.sleep(prof.unreachable_penalty());
        if (fp) fp->note(sim_.now(), "unreachable " + wqe_tag(src, wr));
        fail_wqe(src, wr, WcStatus::kRetryExcErr);
        co_return;
      }
      {
        if (wr.opcode == Opcode::kWrite || wr.opcode == Opcode::kWriteImm) {
          // One-sided placement into the registered remote region.
          MemoryRegion* mr = nullptr;
          try {
            mr = d.pd().check(wr.remote, bytes, kAccessRemoteWrite);
          } catch (const std::exception&) {
            // Responder NAKs the access (bad rkey, out of bounds, or a
            // revoked registration); handled below — co_await is not
            // allowed inside a handler.
          }
          if (!mr) {
            if (fp)
              fp->note(sim_.now(), "remote-access-nak " + wqe_tag(src, wr));
            co_await sim_.sleep(cm.ack_delay + cm.nic_cqe);
            fail_wqe(src, wr, WcStatus::kRemAccessErr);
            co_return;
          }
          if (bytes > 0)
            std::memcpy(reinterpret_cast<std::byte*>(wr.remote.addr),
                        wr.local.addr, bytes);
          mr->notify_remote_write(wr.remote.addr, bytes);
        }
        if (wr.opcode == Opcode::kSend || wr.opcode == Opcode::kWriteImm) {
          // Two-sided: consume a posted receive at the target. Waiting here
          // models RNR backpressure; with a finite rnr_retry budget the
          // probes are paced by rnr_timer and exhaustion surfaces as
          // kRnrRetryExcErr at the requester.
          std::optional<RecvWr> rwr;
          SharedReceiveQueue* srq = dst_qp->srq();
          if (fp && prof.rnr_retry != FaultProfile::kRnrInfinite) {
            rwr = srq ? srq->try_take() : dst_qp->try_take_recv();
            unsigned probes = 0;
            while (!rwr && !dst_qp->in_error() &&
                   !(srq && srq->is_closed()) && probes < prof.rnr_retry) {
              count_qp(src, obs::Ctr::kRnrEvents);
              co_await sim_.sleep(prof.rnr_timer);
              rwr = srq ? srq->try_take() : dst_qp->try_take_recv();
              ++probes;
            }
            if (!rwr && !dst_qp->in_error() &&
                !(srq && srq->is_closed())) {
              fp->note(sim_.now(), "rnr-exhausted " + wqe_tag(src, wr));
              fail_wqe(src, wr, WcStatus::kRnrRetryExcErr);
              co_return;
            }
          } else if (srq) {
            // Unbounded RNR over a shared pool: pace probes on the RNR
            // timer. (A blocking pop cannot watch this QP's error state —
            // the pool is shared, so one QP dying must not close it.)
            while (!(rwr = srq->try_take())) {
              if (dst_qp->in_error() || d.crashed() || srq->is_closed())
                break;
              count_qp(src, obs::Ctr::kRnrEvents);
              co_await sim_.sleep(prof.rnr_timer);
            }
          } else {
            // Unbounded RNR: count the stall only when we actually wait.
            if (dst_qp->posted_recvs() == 0 && !dst_qp->in_error())
              count_qp(src, obs::Ctr::kRnrEvents);
            rwr = co_await dst_qp->take_recv();
          }
          if (!rwr) {
            // Receiver QP errored out while we waited for a buffer.
            co_await sim_.sleep(prof.unreachable_penalty());
            if (fp) fp->note(sim_.now(), "unreachable " + wqe_tag(src, wr));
            fail_wqe(src, wr, WcStatus::kRetryExcErr);
            co_return;
          }
          if (wr.opcode == Opcode::kSend) {
            if (rwr->buf.length < bytes) {
              // Local length error at the responder: its recv completes in
              // error and its QP dies; the requester sees a remote-op NAK.
              co_await sim_.sleep(cm.nic_cqe);
              dst_qp->recv_cq().deliver(
                  Wc{.wr_id = rwr->wr_id,
                     .opcode = WcOpcode::kRecv,
                     .byte_len = static_cast<uint32_t>(bytes),
                     .imm = 0,
                     .status = WcStatus::kLocLenErr,
                     .qp_num = dst_qp->qp_num()});
              dst_qp->enter_error();
              co_await sim_.sleep(cm.ack_delay + cm.nic_cqe);
              fail_wqe(src, wr, WcStatus::kRemOpErr);
              co_return;
            }
            if (bytes > 0) std::memcpy(rwr->buf.addr, wr.local.addr, bytes);
          }
          co_await sim_.sleep(cm.nic_cqe);
          dst_qp->recv_cq().deliver(Wc{
              .wr_id = rwr->wr_id,
              .opcode = wr.opcode == Opcode::kSend ? WcOpcode::kRecv
                                                   : WcOpcode::kRecvImm,
              .byte_len = static_cast<uint32_t>(bytes),
              .imm = wr.imm,
              .status = WcStatus::kSuccess,
              .qp_num = dst_qp->qp_num()});
        }
      }
      if (wr.signaled) {
        // Hardware ACK back to the requester, then CQE DMA.
        co_await sim_.sleep(cm.ack_delay + cm.nic_cqe);
        src.send_cq().deliver(Wc{
            .wr_id = wr.wr_id,
            .opcode = wr.opcode == Opcode::kSend ? WcOpcode::kSend
                                                 : WcOpcode::kRdmaWrite,
            .byte_len = static_cast<uint32_t>(bytes),
            .imm = 0,
            .status = WcStatus::kSuccess,
            .qp_num = src.qp_num()});
      } else if (check_.on()) {
        // No CQE for an unsignaled success: retire the shadow WR here so
        // the leak audit only flags WRs that truly never finished.
        check_.on_unsignaled_done(src, wr);
      }
      break;
    }

    case Opcode::kRead: {
      {
        auto order_guard = co_await src.sq_order_.scoped();
        if (fault_plan_) co_await injected_delay(src, wr);
        // Request packet to the responder (header-only on the wire).
        sim::Duration req_ser = cm.wire_time(0);
        Time start = std::max(sim_.now(), s.nic().tx_free());
        s.nic().reserve_tx(start + req_ser, 0);
        co_await sim_.sleep_until(start + req_ser);
      }
      co_await sim_.sleep(cm.propagation);
      if (src.in_error()) {
        fail_wqe(src, wr, WcStatus::kWrFlushErr);
        co_return;
      }
      if (dst_qp->in_error() || d.crashed()) {
        co_await sim_.sleep(prof.unreachable_penalty());
        if (fp) fp->note(sim_.now(), "unreachable " + wqe_tag(src, wr));
        fail_wqe(src, wr, WcStatus::kRetryExcErr);
        co_return;
      }

      // Responder NIC serves the read in hardware: a non-posted PCIe DMA
      // read fetches the data (this PCIe round trip is what makes READ
      // latency exceed WRITE latency on real NICs). The memory is
      // snapshotted when the DMA engine reads it — NOT when the response
      // reaches the requester — so racing CPU stores at the responder
      // behave like real hardware.
      co_await sim_.sleep(cm.nic_read_response);
      sim::BufArena::Lease snapshot;
      bool nak = false;
      try {
        auto span = d.pd().resolve(wr.remote, bytes, kAccessRemoteRead);
        snapshot = buf_arena_.lease(span.size());
        if (!span.empty())
          std::memcpy(snapshot.data(), span.data(), span.size());
      } catch (const std::exception&) {
        nak = true;  // handled below — co_await is not allowed in a handler
      }
      if (nak) {
        if (fp) fp->note(sim_.now(), "remote-access-nak " + wqe_tag(src, wr));
        co_await sim_.sleep(cm.ack_delay + cm.nic_cqe);
        fail_wqe(src, wr, WcStatus::kRemAccessErr);
        co_return;
      }
      // Response data is subject to the same wire faults as a send.
      unsigned attempt = 0;
      while (true) {
        for (uint64_t off = 0, n = bytes ? bytes : 1; off < n; off += kMtu)
          co_await sim_.sleep_until(
              reserve_packet(d.nic(), s.nic(), std::min(kMtu, n - off)));
        if (!fp) break;
        FaultPlan::LossKind loss = fp->draw_loss();
        if (loss == FaultPlan::LossKind::kNone) break;
        count_qp(src, obs::Ctr::kRetransmits);
        fp->note(sim_.now(),
                 (loss == FaultPlan::LossKind::kDrop ? "drop " : "corrupt ") +
                     wqe_tag(src, wr) + " attempt=" +
                     std::to_string(attempt + 1));
        if (++attempt > prof.retry_count) {
          fp->note(sim_.now(), "retry-exhausted " + wqe_tag(src, wr));
          fail_wqe(src, wr, WcStatus::kRetryExcErr);
          co_return;
        }
        co_await sim_.sleep(prof.retransmit_timeout);
      }
      // Read response crossed the wire: responder-side DMA fetch plus the
      // requester-side placement.
      s.counters().add(obs::Ctr::kDmaBytes, bytes);
      d.counters().add(obs::Ctr::kDmaBytes, bytes);
      if (obs::CounterSet* chan = src.channel_counters())
        chan->add(obs::Ctr::kDmaBytes, bytes);
      co_await sim_.sleep(cm.propagation);
      if (src.in_error()) {
        fail_wqe(src, wr, WcStatus::kWrFlushErr);
        co_return;
      }
      if (bytes > 0) std::memcpy(wr.local.addr, snapshot.data(), bytes);
      if (wr.signaled) {
        co_await sim_.sleep(cm.nic_cqe);
        src.send_cq().deliver(Wc{
            .wr_id = wr.wr_id,
            .opcode = WcOpcode::kRdmaRead,
            .byte_len = static_cast<uint32_t>(bytes),
            .imm = 0,
            .status = WcStatus::kSuccess,
            .qp_num = src.qp_num()});
      } else if (check_.on()) {
        check_.on_unsignaled_done(src, wr);
      }
      break;
    }
  }
}

}  // namespace hatrpc::verbs
