// VerbsCheck contract-verifier tests: one deliberate violation per rule
// class, asserting the exact structured diagnostic each produces; abort-mode
// throw semantics (shared with RaceCheck through sim/checker.h); the
// end-of-simulation leak audit; and the zero-overhead guarantee (enabling
// the checker on a clean program changes nothing).
//
// Every test pins the checker mode explicitly (set_mode) so the suite
// behaves identically whether or not the VERBSCHECK env var is set — CI
// runs the whole ctest suite under VERBSCHECK=abort.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "verbs/verbs.h"

namespace hatrpc::verbs {
namespace {

using sim::PollMode;
using sim::Simulator;
using sim::Task;

using Mode = VerbsCheck::Mode;

struct Pair {
  Simulator sim;
  Fabric fabric{sim};
  Node* a = fabric.add_node();
  Node* b = fabric.add_node();
  CompletionQueue* a_scq = a->create_cq();
  CompletionQueue* a_rcq = a->create_cq();
  CompletionQueue* b_scq = b->create_cq();
  CompletionQueue* b_rcq = b->create_cq();
  QueuePair* qa = a->create_qp(*a_scq, *a_rcq);
  QueuePair* qb = b->create_qp(*b_scq, *b_rcq);

  explicit Pair(Mode mode) {
    fabric.check().set_mode(mode);
    Fabric::connect(*qa, *qb);
  }

  VerbsCheck& check() { return fabric.check(); }
};

/// The single diagnostic of rule `r`, asserting there is exactly one.
const Diagnostic& only(const VerbsCheck& vc, Rule r) {
  EXPECT_EQ(vc.count(r), 1u) << "expected exactly one " << to_string(r);
  for (const auto& d : vc.reports())
    if (d.rule == r) return d;
  static Diagnostic none;
  return none;
}

// ---------------------------------------------------------------------------
// Rule class 1: qp-state — illegal modify transitions and posting in RESET.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, IllegalModifyTransition) {
  Pair p(Mode::kRecord);  // connect already walked RESET->INIT->RTR->RTS
  EXPECT_EQ(p.check().total(), 0u) << "the legal connect walk is violation-free";
  p.qa->modify(QpState::kRtr);  // RTS -> RTR is not a legal transition
  const Diagnostic& d = only(p.check(), Rule::kQpState);
  EXPECT_EQ(d.node, p.a->id());
  EXPECT_EQ(d.qp, p.qa->qp_num());
  EXPECT_EQ(d.provenance, "modify");
  EXPECT_NE(d.detail.find("RTS -> RTR"), std::string::npos);
  EXPECT_NE(d.str().find("verbscheck[qp-state]"), std::string::npos);
}

TEST(VerbsCheckRule, PostRecvInReset) {
  Simulator sim;
  Fabric fabric(sim);
  fabric.check().set_mode(Mode::kRecord);
  Node* a = fabric.add_node();
  CompletionQueue* cq = a->create_cq();
  QueuePair* qp = a->create_qp(*cq, *cq);  // never connected: still RESET
  ASSERT_EQ(qp->state(), QpState::kReset);
  qp->post_recv(RecvWr{.wr_id = 3});
  const Diagnostic& d = only(fabric.check(), Rule::kQpState);
  EXPECT_EQ(d.wr_id, 3u);
  EXPECT_EQ(d.provenance, "post_recv");
  EXPECT_NE(d.detail.find("RESET"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 2: sge — local buffers not covered by any registration.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, UnregisteredLocalSge) {
  Pair p(Mode::kRecord);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  static std::array<std::byte, 64> unregistered{};
  p.sim.spawn([](Pair& p, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
    co_await p.qa->post_send(SendWr{.wr_id = 11,
                                    .opcode = Opcode::kSend,
                                    .local = {unregistered.data(), 16}});
    EXPECT_TRUE((co_await p.a_scq->wait(PollMode::kBusy)).ok())
        << "the simulator stays forgiving: the send still completes";
  }(p, dst));
  p.sim.run();
  const Diagnostic& d = only(p.check(), Rule::kSge);
  EXPECT_EQ(d.qp, p.qa->qp_num());
  EXPECT_EQ(d.wr_id, 11u);
  EXPECT_EQ(d.provenance, "post_send");
  EXPECT_NE(d.detail.find("not covered by any registered MR"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 3: use-after-dereg — stale lkey and stale rkey.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, LocalUseAfterDereg) {
  Pair p(Mode::kRecord);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  // Register EXISTING memory so the bytes stay valid after dereg — only the
  // registration dies, exactly the bug class this rule catches.
  static std::array<std::byte, 64> buf{};
  MemoryRegion* src = p.a->pd().reg_mr(buf.data(), buf.size());
  p.a->pd().dereg_mr(src);
  p.sim.spawn([](Pair& p, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
    co_await p.qa->post_send(SendWr{.wr_id = 21,
                                    .opcode = Opcode::kSend,
                                    .local = {buf.data(), 16}});
    co_await p.a_scq->wait(PollMode::kBusy);
  }(p, dst));
  p.sim.run();
  const Diagnostic& d = only(p.check(), Rule::kUseAfterDereg);
  EXPECT_EQ(d.wr_id, 21u);
  EXPECT_NE(d.detail.find("deregistered MR"), std::string::npos);
}

TEST(VerbsCheckRule, RemoteRkeyUseAfterDereg) {
  Pair p(Mode::kRecord);
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  static std::array<std::byte, 64> target{};
  MemoryRegion* exported = p.b->pd().reg_mr(target.data(), target.size());
  const RemoteAddr stale = exported->remote(0);
  p.b->pd().dereg_mr(exported);
  p.sim.spawn([](Pair& p, MemoryRegion* src, RemoteAddr stale) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 22,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), 16},
                                    .remote = stale});
    // The runtime NAK agrees with the post-time diagnosis.
    EXPECT_EQ((co_await p.a_scq->wait(PollMode::kBusy)).status,
              WcStatus::kRemAccessErr);
  }(p, src, stale));
  p.sim.run();
  const Diagnostic& d = only(p.check(), Rule::kUseAfterDereg);
  EXPECT_EQ(d.wr_id, 22u);
  EXPECT_NE(d.detail.find("names a deregistered MR"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 4: access — registrations whose flags forbid the operation.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, RemoteWriteWithoutRemoteWriteAccess) {
  Pair p(Mode::kRecord);
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  // Read-only export: REMOTE_READ granted, REMOTE_WRITE withheld.
  MemoryRegion* dst =
      p.b->pd().alloc_mr(64, kAccessLocalWrite | kAccessRemoteRead);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 31,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), 16},
                                    .remote = dst->remote(0)});
    EXPECT_EQ((co_await p.a_scq->wait(PollMode::kBusy)).status,
              WcStatus::kRemAccessErr)
        << "the responder NAKs at runtime too";
  }(p, src, dst));
  p.sim.run();
  const Diagnostic& d = only(p.check(), Rule::kAccess);
  EXPECT_EQ(d.wr_id, 31u);
  EXPECT_NE(d.detail.find("lacks REMOTE_WRITE"), std::string::npos);
}

TEST(VerbsCheckRule, RecvBufferWithoutLocalWrite) {
  Pair p(Mode::kRecord);
  MemoryRegion* dst =
      p.b->pd().alloc_mr(64, kAccessRemoteRead | kAccessRemoteWrite);
  p.qb->post_recv(RecvWr{.wr_id = 32, .buf = {dst->data(), 64}});
  const Diagnostic& d = only(p.check(), Rule::kAccess);
  EXPECT_EQ(d.qp, p.qb->qp_num());
  EXPECT_EQ(d.provenance, "post_recv");
  EXPECT_NE(d.detail.find("lacks LOCAL_WRITE"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 5: inline-cap — payloads the MMIO burst cannot carry.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, OversizedInlinePayload) {
  Pair p(Mode::kRecord);
  const uint32_t maxi = p.qa->max_inline_data();
  MemoryRegion* src = p.a->pd().alloc_mr(maxi + 1);
  bool rejected = false;
  p.sim.spawn([](Pair& p, MemoryRegion* src, uint32_t maxi,
                 bool& rejected) -> Task<void> {
    try {
      co_await p.qa->post_send(SendWr{.wr_id = 41,
                                      .opcode = Opcode::kSend,
                                      .local = {src->data(), maxi + 1},
                                      .inline_data = true});
    } catch (const std::length_error&) {
      rejected = true;  // the verbs layer still rejects it outright
    }
  }(p, src, maxi, rejected));
  p.sim.run();
  EXPECT_TRUE(rejected);
  const Diagnostic& d = only(p.check(), Rule::kInlineCap);
  EXPECT_EQ(d.wr_id, 41u);
  EXPECT_NE(d.detail.find("exceeds max_inline_data"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 6: cq-overflow — more CQEs than the created capacity.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, CqOverflowPastCreatedCapacity) {
  Simulator sim;
  Fabric fabric(sim);
  fabric.check().set_mode(Mode::kRecord);
  Node* a = fabric.add_node();
  Node* b = fabric.add_node();
  CompletionQueue* tiny = a->create_cq(2);  // ibv_create_cq(cqe=2)
  EXPECT_EQ(tiny->capacity(), 2u);
  CompletionQueue* a_rcq = a->create_cq();
  CompletionQueue* b_cq = b->create_cq();
  QueuePair* qa = a->create_qp(*tiny, *a_rcq);
  QueuePair* qb = b->create_qp(*b_cq, *b_cq);
  Fabric::connect(*qa, *qb);
  MemoryRegion* src = a->pd().alloc_mr(64);
  MemoryRegion* dst = b->pd().alloc_mr(64);
  sim.spawn([](QueuePair* qa, QueuePair* qb, MemoryRegion* src,
               MemoryRegion* dst) -> Task<void> {
    for (uint64_t i = 0; i < 3; ++i)
      qb->post_recv(RecvWr{.wr_id = i, .buf = {dst->data(), 64}});
    // Three signaled sends, nobody polling: the third CQE lands in a full CQ.
    for (uint64_t i = 0; i < 3; ++i)
      co_await qa->post_send(SendWr{.wr_id = 60 + i,
                                    .opcode = Opcode::kSend,
                                    .local = {src->data(), 8}});
  }(qa, qb, src, dst));
  sim.run();
  const Diagnostic& d = only(fabric.check(), Rule::kCqOverflow);
  EXPECT_EQ(d.provenance, "deliver");
  EXPECT_NE(d.detail.find("exceeds capacity 2"), std::string::npos);
  // Drain so teardown is leak-free.
  while (tiny->try_poll()) {
  }
}

// ---------------------------------------------------------------------------
// Rule class 7: rq-overflow — SRQ deeper than its max_wr.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, SrqOverflowPastMaxWr) {
  Simulator sim;
  Fabric fabric(sim);
  fabric.check().set_mode(Mode::kRecord);
  Node* a = fabric.add_node();
  SharedReceiveQueue* srq = a->create_srq(2);
  EXPECT_EQ(srq->max_wr(), 2u);
  for (uint64_t i = 0; i < 3; ++i) srq->post_recv(RecvWr{.wr_id = 70 + i});
  const Diagnostic& d = only(fabric.check(), Rule::kRqOverflow);
  EXPECT_EQ(d.wr_id, 72u);
  EXPECT_EQ(d.provenance, "srq_post");
  EXPECT_NE(d.detail.find("exceed max_srq_wr=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 8: rkey — one-sided ops against a never-registered rkey.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, WriteToUnknownRkey) {
  Pair p(Mode::kRecord);
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src) -> Task<void> {
    co_await p.qa->post_send(SendWr{.wr_id = 81,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), 16},
                                    .remote = {src->addr(), 4242}});
    EXPECT_EQ((co_await p.a_scq->wait(PollMode::kBusy)).status,
              WcStatus::kRemAccessErr);
  }(p, src));
  p.sim.run();
  const Diagnostic& d = only(p.check(), Rule::kRkey);
  EXPECT_EQ(d.wr_id, 81u);
  EXPECT_NE(d.detail.find("rkey=4242 was never registered"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 9: double-completion — a CQE with no matching outstanding WR.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, CompletionWithNoOutstandingWr) {
  Pair p(Mode::kRecord);
  p.a_scq->deliver(Wc{.wr_id = 99,
                      .opcode = WcOpcode::kSend,
                      .status = WcStatus::kSuccess,
                      .qp_num = p.qa->qp_num()});
  const Diagnostic& d = only(p.check(), Rule::kDoubleCompletion);
  EXPECT_EQ(d.wr_id, 99u);
  EXPECT_EQ(d.provenance, "deliver");
  EXPECT_NE(d.detail.find("no matching outstanding WR"), std::string::npos);
  p.a_scq->try_poll();  // consume the bogus CQE
}

// ---------------------------------------------------------------------------
// Rule class 10: use-after-destroy — destroyed QPs and closed SRQs.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, PostToDestroyedQp) {
  Pair p(Mode::kRecord);
  p.a->destroy_qp(p.qa);
  EXPECT_TRUE(p.qa->destroyed());
  EXPECT_EQ(p.fabric.find_qp(p.qa->qp_num()), nullptr)
      << "destroyed QPs leave the fabric's lookup table";
  p.qa->post_recv(RecvWr{.wr_id = 5});
  const Diagnostic& d = only(p.check(), Rule::kUseAfterDestroy);
  EXPECT_EQ(d.qp, p.qa->qp_num());
  EXPECT_NE(d.detail.find("destroyed QP"), std::string::npos);
  // The flushed recv CQE still arrives (graveyard semantics, not UB).
  EXPECT_TRUE(p.a_rcq->try_poll().has_value());
}

TEST(VerbsCheckRule, PostToClosedSrq) {
  Simulator sim;
  Fabric fabric(sim);
  fabric.check().set_mode(Mode::kRecord);
  Node* a = fabric.add_node();
  SharedReceiveQueue* srq = a->create_srq();
  srq->post_recv(RecvWr{.wr_id = 1});
  srq->close();
  srq->post_recv(RecvWr{.wr_id = 2});
  const Diagnostic& d = only(fabric.check(), Rule::kUseAfterDestroy);
  EXPECT_EQ(d.wr_id, 2u);
  EXPECT_NE(d.detail.find("closed SRQ"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule class 11: leak — the end-of-simulation audit finds orphaned WRs.
// ---------------------------------------------------------------------------

TEST(VerbsCheckRule, AuditFlagsNeverCompletedSend) {
  Pair p(Mode::kRecord);
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src) -> Task<void> {
    // SEND with no posted recv and infinite RNR: the WQE blocks forever.
    co_await p.qa->post_send(SendWr{.wr_id = 91,
                                    .opcode = Opcode::kSend,
                                    .local = {src->data(), 8}});
  }(p, src));
  p.sim.run();
  AuditReport r = p.fabric.audit();
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.outstanding_sends, 1u);
  EXPECT_EQ(p.check().count(Rule::kLeak), 1u);
  const Diagnostic& d = only(p.check(), Rule::kLeak);
  EXPECT_EQ(d.provenance, "audit");
  EXPECT_NE(d.detail.find("outstanding_sends=1"), std::string::npos);
  EXPECT_NE(d.detail.find("clean=NO"), std::string::npos);
  // Unblock the parked WQE so the task chain drains (LeakSanitizer would
  // otherwise report the suspended coroutine frames): the late recv lets
  // the SEND complete and retires the shadow-tracked WR.
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.qb->post_recv(RecvWr{.wr_id = 92, .buf = {dst->data(), 64}});
  p.sim.run();
  EXPECT_EQ(p.sim.live_tasks(), 0u);
  EXPECT_TRUE(p.fabric.audit().clean());
}

TEST(VerbsCheck, AuditIsCleanAfterDrainedTraffic) {
  Pair p(Mode::kRecord);
  MemoryRegion* src = p.a->pd().alloc_mr(64);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
    co_await p.qa->post_send(SendWr{.wr_id = 1,
                                    .opcode = Opcode::kSend,
                                    .local = {src->data(), 8}});
    EXPECT_TRUE((co_await p.a_scq->wait(PollMode::kBusy)).ok());
    EXPECT_TRUE((co_await p.b_rcq->wait(PollMode::kBusy)).ok());
    // An unsignaled WRITE retires without a CQE — not a leak.
    co_await p.qa->post_send(SendWr{.wr_id = 2,
                                    .opcode = Opcode::kWrite,
                                    .local = {src->data(), 8},
                                    .remote = dst->remote(8),
                                    .signaled = false});
  }(p, src, dst));
  p.sim.run();
  AuditReport r = p.fabric.audit();
  EXPECT_TRUE(r.clean()) << r.str();
  EXPECT_EQ(r.outstanding_sends, 0u);
  EXPECT_EQ(r.live_qps, 2u);
  EXPECT_EQ(r.unconsumed_cqes, 0u);
  EXPECT_EQ(p.check().total(), 0u);
}

// ---------------------------------------------------------------------------
// Abort mode: the first violation throws ContractViolation at the post.
// ---------------------------------------------------------------------------

TEST(VerbsCheck, AbortModeThrowsAtThePost) {
  Pair p(Mode::kAbort);
  MemoryRegion* dst = p.b->pd().alloc_mr(64);
  static std::array<std::byte, 16> unregistered{};
  Rule caught = Rule::kCount;
  p.sim.spawn([](Pair& p, MemoryRegion* dst, Rule& caught) -> Task<void> {
    p.qb->post_recv(RecvWr{.wr_id = 1, .buf = {dst->data(), 64}});
    try {
      co_await p.qa->post_send(SendWr{.wr_id = 1,
                                      .opcode = Opcode::kSend,
                                      .local = {unregistered.data(), 8}});
    } catch (const ContractViolation& e) {
      caught = e.diagnostic.rule;
      EXPECT_NE(std::string(e.what()).find("verbscheck[sge]"),
                std::string::npos);
    }
  }(p, dst, caught));
  p.sim.run();
  EXPECT_EQ(caught, Rule::kSge);
  EXPECT_EQ(p.check().total(), 1u) << "recorded as well as thrown";
}

TEST(VerbsCheck, TolerateSuppressesAbortButStillRecords) {
  Pair p(Mode::kAbort);
  {
    VerbsCheck::Tolerate tol(p.check());
    p.qa->modify(QpState::kInit);  // RTS -> INIT: illegal, but tolerated
  }
  EXPECT_EQ(p.check().count(Rule::kQpState), 1u);
}

/// Calls `f` from a destructor while an exception unwinds through it.
void during_unwind(std::function<void()> f) {
  struct OnUnwind {
    std::function<void()> f;
    ~OnUnwind() { f(); }
  };
  try {
    OnUnwind guard{std::move(f)};
    throw std::runtime_error("unwinding");
  } catch (const std::runtime_error&) {
  }
}

// Both checkers share one raise() path (sim/checker.h): in abort mode a
// violation found while another exception unwinds is printed, because
// throwing from a destructor there would terminate the process.
TEST(CheckerCore, ViolationDuringUnwindPrintsInsteadOfTerminating) {
  Pair p(Mode::kAbort);
  sim::RaceCheck& rc = p.sim.racecheck();
  rc.set_mode(sim::RaceCheck::Mode::kAbort);
  testing::internal::CaptureStderr();
  during_unwind([&p] { p.qa->modify(QpState::kInit); });
  during_unwind([&p, &rc] {
    rc.report_lifetime(&p, 0, "Pair", "test", "released twice");
  });
  const std::string err = testing::internal::GetCapturedStderr();
  rc.set_mode(sim::RaceCheck::Mode::kOff);
  EXPECT_EQ(p.check().count(Rule::kQpState), 1u);
  EXPECT_EQ(rc.count(sim::RaceKind::kLifetime), 1u);
  EXPECT_NE(err.find("verbscheck[qp-state]"), std::string::npos) << err;
  EXPECT_NE(err.find("racecheck[lifetime]"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Zero overhead when off: enabling the checker on a clean program changes
// neither results nor a single counter — same seed, same schedule, same dump.
// ---------------------------------------------------------------------------

std::string echo_workload_dump(Mode mode) {
  Pair p(mode);
  MemoryRegion* src = p.a->pd().alloc_mr(256);
  MemoryRegion* dst = p.b->pd().alloc_mr(256);
  p.sim.spawn([](Pair& p, MemoryRegion* src, MemoryRegion* dst) -> Task<void> {
    for (uint64_t i = 0; i < 8; ++i) {
      p.qb->post_recv(RecvWr{.wr_id = i, .buf = {dst->data(), 256}});
      co_await p.qa->post_send(SendWr{.wr_id = i,
                                      .opcode = Opcode::kSend,
                                      .local = {src->data(), 64}});
      EXPECT_TRUE((co_await p.a_scq->wait(PollMode::kBusy)).ok());
      EXPECT_TRUE((co_await p.b_rcq->wait(PollMode::kBusy)).ok());
      co_await p.qa->post_send(SendWr{.wr_id = 100 + i,
                                      .opcode = Opcode::kWrite,
                                      .local = {src->data(), 128},
                                      .remote = dst->remote(64),
                                      .signaled = (i % 2 == 0)});
      if (i % 2 == 0) {
        EXPECT_TRUE((co_await p.a_scq->wait(PollMode::kBusy)).ok());
      }
    }
  }(p, src, dst));
  p.sim.run();
  EXPECT_TRUE(p.fabric.audit().clean());
  EXPECT_EQ(p.check().total(), 0u);
  return std::to_string(p.sim.now().count()) + "\n" +
         p.fabric.obs().counters.dump();
}

TEST(VerbsCheck, CheckingIsInvisibleToCleanPrograms) {
  const std::string off1 = echo_workload_dump(Mode::kOff);
  const std::string off2 = echo_workload_dump(Mode::kOff);
  const std::string rec = echo_workload_dump(Mode::kRecord);
  const std::string abt = echo_workload_dump(Mode::kAbort);
  EXPECT_EQ(off1, off2) << "baseline determinism";
  EXPECT_EQ(off1, rec) << "record mode must not perturb time or counters";
  EXPECT_EQ(off1, abt) << "abort mode must not perturb time or counters";
}

// Every rule class has a distinct kebab-case name for grep-able diagnostics.
TEST(VerbsCheck, RuleNamesAreDistinct) {
  std::vector<std::string> names;
  for (uint8_t i = 0; i < static_cast<uint8_t>(Rule::kCount); ++i)
    names.emplace_back(to_string(static_cast<Rule>(i)));
  for (size_t i = 0; i < names.size(); ++i)
    for (size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  EXPECT_EQ(names.size(), 11u);
}

}  // namespace
}  // namespace hatrpc::verbs
