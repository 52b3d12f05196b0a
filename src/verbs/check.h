// VerbsCheck: a contract-verification layer for the simulated verbs API.
//
// All nine HatRPC protocols are distinguished only by the sequence of verbs
// operations they issue, so the reproduction stands or falls on those
// sequences obeying the ibverbs spec — and the simulated NIC is forgiving
// where ConnectX-5 hardware is not. VerbsCheck makes spec violations loud:
// every post and every completion is checked against the QP state machine,
// MR registration/bounds/access rules, inline and SGE caps, queue depths,
// and completion accounting, and each violation is produced as a structured
// diagnostic (rule, virtual timestamp, node, QP, wr_id, provenance).
//
// Modes (env var VERBSCHECK, or set_mode(); see sim/checker.h): off (the
// default), record (diagnostics are collected and the node's
// contract_violations counter is bumped; execution continues with the
// simulator's forgiving semantics), and abort (the first violation throws
// ContractViolation — the test-friendly analogue of hardware raising a
// fatal async event).
//
// The checker never advances virtual time and never touches counters other
// than contract_violations, so enabling it cannot perturb a deterministic
// trace: same seed, same schedule, with or without checking.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/checker.h"
#include "sim/time.h"
#include "verbs/completion.h"
#include "verbs/qp.h"

namespace hatrpc::verbs {

class Fabric;
class SharedReceiveQueue;
class MemoryRegion;

/// The rule classes VerbsCheck enforces. Each diagnostic names exactly one.
enum class Rule : uint8_t {
  kQpState,         // posting in an illegal QP state / illegal transition
  kSge,             // local SGE not covered by a live MR (or overruns it)
  kUseAfterDereg,   // SGE or rkey backed by a deregistered registration
  kAccess,          // MR access flags forbid the operation
  kInlineCap,       // IBV_SEND_INLINE payload exceeds max_inline_data
  kCqOverflow,      // CQE delivered past the CQ's capacity
  kRqOverflow,      // recv queue / SRQ deeper than its cap
  kRkey,            // one-sided op against an rkey that was never registered
  kDoubleCompletion, // completion with no matching outstanding WR
  kUseAfterDestroy, // operation on a destroyed QP or closed SRQ
  kLeak,            // end-of-simulation audit: never-completed WRs
  kCount,
};

constexpr const char* to_string(Rule r) {
  switch (r) {
    case Rule::kQpState: return "qp-state";
    case Rule::kSge: return "sge";
    case Rule::kUseAfterDereg: return "use-after-dereg";
    case Rule::kAccess: return "access";
    case Rule::kInlineCap: return "inline-cap";
    case Rule::kCqOverflow: return "cq-overflow";
    case Rule::kRqOverflow: return "rq-overflow";
    case Rule::kRkey: return "rkey";
    case Rule::kDoubleCompletion: return "double-completion";
    case Rule::kUseAfterDestroy: return "use-after-destroy";
    case Rule::kLeak: return "leak";
    case Rule::kCount: break;
  }
  return "unknown";
}

/// One structured violation report.
struct Diagnostic {
  Rule rule = Rule::kCount;
  sim::Time at{};        // virtual timestamp of the offending operation
  uint32_t node = 0;     // requester node id
  uint32_t qp = 0;       // QP number (0 when not QP-scoped)
  uint64_t wr_id = 0;    // offending work request id (0 when not WR-scoped)
  std::string provenance;  // where it was detected: post_send, deliver, ...
  std::string detail;      // human-readable specifics

  /// "verbscheck[rule] t=<ns> node=<n> qp=<q> wr=<id> @<provenance>: detail"
  std::string str() const;
};

/// Thrown by abort mode at the point of violation.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const Diagnostic& d)
      : std::logic_error(d.str()), diagnostic(d) {}
  Diagnostic diagnostic;
};

/// End-of-simulation resource audit (Fabric::audit / ~Fabric). `clean()` is
/// the assertable invariant: every posted WR eventually completed. The other
/// fields are informational — servers legitimately tear down with pre-posted
/// recvs, and registration caches keep MRs pinned by design.
struct AuditReport {
  uint64_t live_qps = 0;
  uint64_t destroyed_qps = 0;
  uint64_t live_cqs = 0;
  uint64_t live_srqs = 0;
  uint64_t live_mrs = 0;
  uint64_t external_mrs = 0;      // reg_mr'd app memory still pinned
  uint64_t registered_bytes = 0;
  uint64_t outstanding_sends = 0;  // posted WQEs that never finished
  uint64_t pending_recvs = 0;      // posted recvs never consumed
  uint64_t unconsumed_cqes = 0;    // delivered CQEs never polled
  uint64_t violations = 0;         // diagnostics recorded so far

  bool clean() const { return outstanding_sends == 0; }
  std::string str() const;
};

class VerbsCheck
    : public sim::Checker<Diagnostic, ContractViolation, &Diagnostic::rule> {
 public:
  explicit VerbsCheck(Fabric& fabric)
      : Checker("VERBSCHECK"), fabric_(fabric) {}

  // ---- Hooks (all return immediately when the mode is off) ---------------
  // Call sites live in fabric.cc (post/modify/deliver paths) and in the
  // Node/PD object-lifecycle code.

  void on_modify(QueuePair& qp, QpState from, QpState to);
  void on_post_send(QueuePair& qp, const SendWr& wr, const char* provenance);
  void on_post_recv(QueuePair& qp, const RecvWr& wr);
  void on_srq_post(SharedReceiveQueue& srq, uint32_t node_id,
                   const RecvWr& wr);
  void on_srq_close(SharedReceiveQueue& srq);
  void on_cqe(const Wc& wc, size_t depth_after, uint32_t capacity,
              uint32_t node_id);
  /// An unsignaled WQE finished executing without a CQE (the normal case).
  void on_unsignaled_done(QueuePair& qp, const SendWr& wr);
  void on_destroy_qp(QueuePair& qp);
  void on_dereg_mr(uint32_t node_id, const MemoryRegion& mr);

  // ---- Audit helpers (used by Fabric::audit) -----------------------------
  uint64_t outstanding_sends() const;
  uint64_t pending_recvs() const;

  /// Records a kLeak diagnostic for an audit that found orphaned WRs.
  void report_leak(const AuditReport& report, const char* provenance);

 private:
  struct InflightWr {
    uint64_t wr_id = 0;
    bool signaled = true;
    Opcode op = Opcode::kSend;
    sim::Time posted{};
  };
  struct QpTrack {
    std::deque<InflightWr> sends;
    std::deque<uint64_t> recvs;
  };
  /// A deregistered registration, kept so stale use reports name the MR.
  struct DeadReg {
    uint32_t node = 0;
    uint64_t addr = 0;
    uint64_t size = 0;
    uint32_t rkey = 0;
  };

  /// Builds the diagnostic, bumps `node`'s contract_violations counter and
  /// raises it.
  void report(Rule rule, uint32_t node, uint32_t qp, uint64_t wr_id,
              const char* provenance, std::string detail,
              bool may_throw = true);
  void check_local(QueuePair& qp, const SendWr& wr, const char* provenance);
  void check_remote(QueuePair& qp, const SendWr& wr, const char* provenance);
  const DeadReg* find_dead(uint32_t node, uint64_t addr, uint64_t len) const;
  const DeadReg* find_dead_rkey(uint32_t node, uint32_t rkey) const;

  Fabric& fabric_;
  std::unordered_map<uint32_t, QpTrack> qps_;  // keyed by qp_num
  std::unordered_map<const SharedReceiveQueue*, std::deque<uint64_t>> srqs_;
  std::deque<DeadReg> dead_regs_;  // bounded history of deregistrations
  static constexpr size_t kMaxDeadRegs = 512;
};

}  // namespace hatrpc::verbs
