// VerbsCheck implementation: the rule logic behind every hook.
//
// Everything here is bookkeeping on the checker's own shadow state (in-flight
// WR deques, dead-registration history) plus lookups into live fabric objects
// (PDs, QPs, SRQs). No simulated time is charged and no counters other than
// contract_violations are touched, so record mode cannot perturb a schedule.

#include "verbs/check.h"

#include "verbs/fabric.h"
#include "verbs/memory.h"
#include "verbs/node.h"
#include "verbs/srq.h"

namespace hatrpc::verbs {

std::string Diagnostic::str() const {
  std::string out = "verbscheck[";
  out += to_string(rule);
  out += "] t=";
  out += std::to_string(at.count());
  out += "ns node=";
  out += std::to_string(node);
  out += " qp=";
  out += std::to_string(qp);
  out += " wr=";
  out += std::to_string(wr_id);
  out += " @";
  out += provenance;
  out += ": ";
  out += detail;
  return out;
}

std::string AuditReport::str() const {
  std::string out = "audit:";
  auto field = [&out](const char* k, uint64_t v) {
    out += ' ';
    out += k;
    out += '=';
    out += std::to_string(v);
  };
  field("live_qps", live_qps);
  field("destroyed_qps", destroyed_qps);
  field("live_cqs", live_cqs);
  field("live_srqs", live_srqs);
  field("live_mrs", live_mrs);
  field("external_mrs", external_mrs);
  field("registered_bytes", registered_bytes);
  field("outstanding_sends", outstanding_sends);
  field("pending_recvs", pending_recvs);
  field("unconsumed_cqes", unconsumed_cqes);
  field("violations", violations);
  out += clean() ? " clean=yes" : " clean=NO";
  return out;
}

void VerbsCheck::report(Rule rule, uint32_t node, uint32_t qp, uint64_t wr_id,
                        const char* provenance, std::string detail,
                        bool may_throw) {
  fabric_.obs().counters.node(node).add(obs::Ctr::kContractViolations);
  raise(Diagnostic{rule, fabric_.simulator().now(), node, qp, wr_id,
                   provenance, std::move(detail)},
        may_throw);
}

const VerbsCheck::DeadReg* VerbsCheck::find_dead(uint32_t node, uint64_t addr,
                                                 uint64_t len) const {
  for (const DeadReg& d : dead_regs_)
    if (d.node == node && addr >= d.addr && addr + len <= d.addr + d.size)
      return &d;
  return nullptr;
}

const VerbsCheck::DeadReg* VerbsCheck::find_dead_rkey(uint32_t node,
                                                      uint32_t rkey) const {
  for (const DeadReg& d : dead_regs_)
    if (d.node == node && d.rkey == rkey) return &d;
  return nullptr;
}

void VerbsCheck::on_modify(QueuePair& qp, QpState from, QpState to) {
  if (!on()) return;
  const bool legal = (from == QpState::kReset && to == QpState::kInit) ||
                     (from == QpState::kInit && to == QpState::kRtr) ||
                     (from == QpState::kRtr && to == QpState::kRts) ||
                     (to == QpState::kError) ||
                     (from == QpState::kError && to == QpState::kReset);
  if (qp.destroyed()) {
    report(Rule::kUseAfterDestroy, qp.node().id(), qp.qp_num(), 0, "modify",
           "modify_qp on a destroyed QP");
    return;
  }
  if (!legal)
    report(Rule::kQpState, qp.node().id(), qp.qp_num(), 0, "modify",
           std::string("illegal transition ") + to_string(from) + " -> " +
               to_string(to));
}

void VerbsCheck::check_local(QueuePair& qp, const SendWr& wr,
                             const char* provenance) {
  const Sge& sge = wr.local;
  if (sge.length == 0 && sge.addr == nullptr) return;
  ProtectionDomain& pd = qp.node().pd();
  MemoryRegion* mr = pd.find_containing(sge.addr, sge.length);
  if (!mr) {
    const uint32_t node = qp.node().id();
    if (find_dead(node, reinterpret_cast<uint64_t>(sge.addr), sge.length)) {
      report(Rule::kUseAfterDereg, node, qp.qp_num(), wr.wr_id, provenance,
             "local SGE backed by a deregistered MR (" +
                 std::to_string(sge.length) + "B)");
    } else {
      report(Rule::kSge, node, qp.qp_num(), wr.wr_id, provenance,
             "local SGE not covered by any registered MR (" +
                 std::to_string(sge.length) + "B)");
    }
    return;
  }
  // A READ scatters the fetched bytes into the local buffer.
  if (wr.opcode == Opcode::kRead && !mr->has_access(kAccessLocalWrite))
    report(Rule::kAccess, qp.node().id(), qp.qp_num(), wr.wr_id, provenance,
           "MR lkey=" + std::to_string(mr->lkey()) +
               " lacks LOCAL_WRITE for a scatter target");
}

void VerbsCheck::check_remote(QueuePair& qp, const SendWr& wr,
                              const char* provenance) {
  QueuePair* peer = qp.peer();
  if (!peer) return;  // post_send rejects unconnected QPs before this hook
  Node& dst = peer->node();
  ProtectionDomain& pd = dst.pd();
  const uint64_t bytes = wr.local.length;
  MemoryRegion* mr = pd.find_rkey(wr.remote.rkey);
  if (!mr) {
    if (find_dead_rkey(dst.id(), wr.remote.rkey)) {
      report(Rule::kUseAfterDereg, qp.node().id(), qp.qp_num(), wr.wr_id,
             provenance,
             "rkey=" + std::to_string(wr.remote.rkey) +
                 " names a deregistered MR on node " +
                 std::to_string(dst.id()));
    } else {
      report(Rule::kRkey, qp.node().id(), qp.qp_num(), wr.wr_id, provenance,
             "rkey=" + std::to_string(wr.remote.rkey) +
                 " was never registered on node " + std::to_string(dst.id()));
    }
    return;
  }
  // Revocation is fault INJECTION, not an application bug: the requester
  // posted against an rkey that was valid when exchanged. The runtime NAK
  // (kRemAccessErr) already models the hardware response.
  if (mr->revoked()) return;
  if (!mr->contains(wr.remote.addr, bytes)) {
    report(Rule::kSge, qp.node().id(), qp.qp_num(), wr.wr_id, provenance,
           "remote access [" + std::to_string(wr.remote.addr) + ", +" +
               std::to_string(bytes) + ") overruns MR rkey=" +
               std::to_string(wr.remote.rkey));
    return;
  }
  const uint32_t required = wr.opcode == Opcode::kRead ? kAccessRemoteRead
                                                       : kAccessRemoteWrite;
  if (!mr->has_access(required))
    report(Rule::kAccess, qp.node().id(), qp.qp_num(), wr.wr_id, provenance,
           std::string("remote MR rkey=") + std::to_string(wr.remote.rkey) +
               " lacks " +
               (wr.opcode == Opcode::kRead ? "REMOTE_READ" : "REMOTE_WRITE"));
}

void VerbsCheck::on_post_send(QueuePair& qp, const SendWr& wr,
                              const char* provenance) {
  if (!on()) return;
  const uint32_t node = qp.node().id();
  if (qp.destroyed()) {
    report(Rule::kUseAfterDestroy, node, qp.qp_num(), wr.wr_id, provenance,
           "post_send on a destroyed QP");
  }
  // Sends are legal in RTS only. Posting to an ERROR QP is legal verbs
  // (WRs flush back) — the state machine rule is about never-connected QPs.
  if (qp.state() == QpState::kReset || qp.state() == QpState::kInit ||
      qp.state() == QpState::kRtr) {
    report(Rule::kQpState, node, qp.qp_num(), wr.wr_id, provenance,
           std::string("post_send in ") + to_string(qp.state()) +
               " (sends require RTS)");
  }
  const CostModel& cm = fabric_.cost();
  if (wr.inline_data) {
    if (wr.opcode == Opcode::kRead) {
      report(Rule::kInlineCap, node, qp.qp_num(), wr.wr_id, provenance,
             "IBV_SEND_INLINE is invalid for RDMA READ");
      return;  // prepare_send rejects this WR: it never enters the queue
    }
    if (wr.local.length > cm.max_inline_data) {
      report(Rule::kInlineCap, node, qp.qp_num(), wr.wr_id, provenance,
             "inline payload of " + std::to_string(wr.local.length) +
                 "B exceeds max_inline_data=" +
                 std::to_string(cm.max_inline_data));
      return;  // ditto: post_send throws before the WQE is built
    }
    // Inline payloads are snapshotted into the WQE at post time; the source
    // buffer needs no registration (that is the point of INLINE).
  } else {
    check_local(qp, wr, provenance);
  }
  if (wr.opcode != Opcode::kSend) check_remote(qp, wr, provenance);
  qps_[qp.qp_num()].sends.push_back(InflightWr{
      wr.wr_id, wr.signaled, wr.opcode, fabric_.simulator().now()});
}

void VerbsCheck::on_post_recv(QueuePair& qp, const RecvWr& wr) {
  if (!on()) return;
  const uint32_t node = qp.node().id();
  if (qp.destroyed()) {
    report(Rule::kUseAfterDestroy, node, qp.qp_num(), wr.wr_id, "post_recv",
           "post_recv on a destroyed QP");
  }
  // Recvs are legal from INIT onwards (and on an ERROR QP, where they
  // flush); only a RESET QP rejects them.
  if (qp.state() == QpState::kReset) {
    report(Rule::kQpState, node, qp.qp_num(), wr.wr_id, "post_recv",
           "post_recv in RESET (recvs require INIT or later)");
  }
  const CostModel& cm = fabric_.cost();
  if (qp.posted_recvs() + 1 > cm.max_recv_wr)
    report(Rule::kRqOverflow, node, qp.qp_num(), wr.wr_id, "post_recv",
           "receive queue would exceed max_recv_wr=" +
               std::to_string(cm.max_recv_wr));
  // Bufferless recvs (wr.buf == {nullptr, 0}) are legal for WRITE_IMM-only
  // QPs: the CQE carries the immediate and no bytes land.
  if (wr.buf.addr != nullptr || wr.buf.length != 0) {
    ProtectionDomain& pd = qp.node().pd();
    MemoryRegion* mr = pd.find_containing(wr.buf.addr, wr.buf.length);
    if (!mr) {
      if (find_dead(node, reinterpret_cast<uint64_t>(wr.buf.addr),
                    wr.buf.length)) {
        report(Rule::kUseAfterDereg, node, qp.qp_num(), wr.wr_id, "post_recv",
               "recv buffer backed by a deregistered MR (" +
                   std::to_string(wr.buf.length) + "B)");
      } else {
        report(Rule::kSge, node, qp.qp_num(), wr.wr_id, "post_recv",
               "recv buffer not covered by any registered MR (" +
                   std::to_string(wr.buf.length) + "B)");
      }
    } else if (!mr->has_access(kAccessLocalWrite)) {
      report(Rule::kAccess, node, qp.qp_num(), wr.wr_id, "post_recv",
             "MR lkey=" + std::to_string(mr->lkey()) +
                 " lacks LOCAL_WRITE for a recv buffer");
    }
  }
  qps_[qp.qp_num()].recvs.push_back(wr.wr_id);
}

void VerbsCheck::on_srq_post(SharedReceiveQueue& srq, uint32_t node_id,
                             const RecvWr& wr) {
  if (!on()) return;
  if (srq.is_closed()) {
    report(Rule::kUseAfterDestroy, node_id, 0, wr.wr_id, "srq_post",
           "post_srq_recv on a closed SRQ");
    return;  // the post is dropped; do not track it
  }
  if (srq.max_wr() != 0 && srq.posted() + 1 > srq.max_wr())
    report(Rule::kRqOverflow, node_id, 0, wr.wr_id, "srq_post",
           "SRQ would exceed max_srq_wr=" + std::to_string(srq.max_wr()));
  if (wr.buf.addr != nullptr || wr.buf.length != 0) {
    if (node_id < fabric_.node_count()) {
      ProtectionDomain& pd = fabric_.node(node_id)->pd();
      MemoryRegion* mr = pd.find_containing(wr.buf.addr, wr.buf.length);
      if (!mr) {
        if (find_dead(node_id, reinterpret_cast<uint64_t>(wr.buf.addr),
                      wr.buf.length)) {
          report(Rule::kUseAfterDereg, node_id, 0, wr.wr_id, "srq_post",
                 "SRQ recv buffer backed by a deregistered MR");
        } else {
          report(Rule::kSge, node_id, 0, wr.wr_id, "srq_post",
                 "SRQ recv buffer not covered by any registered MR (" +
                     std::to_string(wr.buf.length) + "B)");
        }
      } else if (!mr->has_access(kAccessLocalWrite)) {
        report(Rule::kAccess, node_id, 0, wr.wr_id, "srq_post",
               "MR lkey=" + std::to_string(mr->lkey()) +
                   " lacks LOCAL_WRITE for an SRQ recv buffer");
      }
    }
  }
  srqs_[&srq].push_back(wr.wr_id);
}

void VerbsCheck::on_srq_close(SharedReceiveQueue& srq) {
  if (!on()) return;
  // Pooled recvs are discarded by close (ibv_destroy_srq frees them); they
  // are no longer pending, so drop the shadow tracking.
  srqs_.erase(&srq);
}

void VerbsCheck::on_cqe(const Wc& wc, size_t depth_after, uint32_t capacity,
                        uint32_t node_id) {
  if (!on()) return;
  if (capacity != 0 && depth_after > capacity)
    report(Rule::kCqOverflow, node_id, wc.qp_num, wc.wr_id, "deliver",
           "CQ depth " + std::to_string(depth_after) + " exceeds capacity " +
               std::to_string(capacity));
  const bool is_recv =
      wc.opcode == WcOpcode::kRecv || wc.opcode == WcOpcode::kRecvImm;
  auto erase_id = [](std::deque<uint64_t>& q, uint64_t id) {
    for (auto it = q.begin(); it != q.end(); ++it)
      if (*it == id) {
        q.erase(it);
        return true;
      }
    return false;
  };
  if (is_recv) {
    // The consumed recv came either from the QP's private queue or, when
    // the QP is attached to an SRQ, from the shared pool.
    if (QueuePair* qp = fabric_.find_qp(wc.qp_num)) {
      if (SharedReceiveQueue* srq = qp->srq()) {
        auto it = srqs_.find(srq);
        if (it != srqs_.end() && erase_id(it->second, wc.wr_id)) return;
      }
    }
    auto it = qps_.find(wc.qp_num);
    if (it != qps_.end() && erase_id(it->second.recvs, wc.wr_id)) return;
    report(Rule::kDoubleCompletion, node_id, wc.qp_num, wc.wr_id, "deliver",
           std::string("recv completion (") + to_string(wc.status) +
               ") with no matching posted recv");
    return;
  }
  auto it = qps_.find(wc.qp_num);
  if (it != qps_.end()) {
    auto& sends = it->second.sends;
    for (auto s = sends.begin(); s != sends.end(); ++s)
      if (s->wr_id == wc.wr_id) {
        sends.erase(s);
        return;
      }
  }
  report(Rule::kDoubleCompletion, node_id, wc.qp_num, wc.wr_id, "deliver",
         std::string("send completion (") + to_string(wc.status) +
             ") with no matching outstanding WR");
}

void VerbsCheck::on_unsignaled_done(QueuePair& qp, const SendWr& wr) {
  if (!on()) return;
  auto it = qps_.find(qp.qp_num());
  if (it == qps_.end()) return;
  auto& sends = it->second.sends;
  for (auto s = sends.begin(); s != sends.end(); ++s)
    if (s->wr_id == wr.wr_id && !s->signaled) {
      sends.erase(s);
      return;
    }
}

void VerbsCheck::on_destroy_qp(QueuePair& qp) {
  if (!on()) return;
  if (qp.destroyed())
    report(Rule::kUseAfterDestroy, qp.node().id(), qp.qp_num(), 0,
           "destroy_qp", "double destroy_qp");
}

void VerbsCheck::on_dereg_mr(uint32_t node_id, const MemoryRegion& mr) {
  if (!on()) return;
  dead_regs_.push_back(DeadReg{node_id, mr.addr(), mr.size(), mr.rkey()});
  if (dead_regs_.size() > kMaxDeadRegs) dead_regs_.pop_front();
}

uint64_t VerbsCheck::outstanding_sends() const {
  uint64_t n = 0;
  for (const auto& [qpn, track] : qps_) n += track.sends.size();
  return n;
}

uint64_t VerbsCheck::pending_recvs() const {
  uint64_t n = 0;
  for (const auto& [qpn, track] : qps_) n += track.recvs.size();
  for (const auto& [srq, q] : srqs_) n += q.size();
  return n;
}

void VerbsCheck::report_leak(const AuditReport& rep, const char* provenance) {
  if (!on()) return;
  // Leaks are found during teardown/audit, where throwing is either UB
  // (destructors) or hostile to the caller inspecting the report — print
  // instead when abort mode would have thrown.
  report(Rule::kLeak, 0, 0, 0, provenance, rep.str(), /*may_throw=*/false);
}

}  // namespace hatrpc::verbs
