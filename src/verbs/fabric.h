// The simulated InfiniBand fabric: owns the nodes, the cost model, and the
// data-path state machines for every verbs opcode. One Fabric == one
// cluster (the paper's testbed is 10 nodes on one EDR switch).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "verbs/check.h"
#include "verbs/cost_model.h"
#include "verbs/fault.h"
#include "verbs/node.h"

namespace hatrpc::verbs {

class Fabric {
 public:
  Fabric(sim::Simulator& sim, CostModel cost)
      : sim_(sim), cost_(cost), check_(*this) {
    // Mirror race/lifetime diagnostics into the fabric-wide node-0 scope
    // (the kRaceReports counter); the checker itself lives on the sim.
    sim_.racecheck().bind_mirror(
        &obs_.counters.node(0).slot(obs::Ctr::kRaceReports));
  }
  explicit Fabric(sim::Simulator& sim) : Fabric(sim, CostModel{}) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Runs the end-of-simulation leak audit when checking is enabled
  /// (diagnostics are recorded, never thrown from a destructor).
  ~Fabric();

  Node* add_node(sim::Cpu::Params cpu_params) {
    nodes_.push_back(std::make_unique<Node>(
        *this, static_cast<uint32_t>(nodes_.size()), cpu_params, sim_, cost_,
        obs_, &check_));
    return nodes_.back().get();
  }
  Node* add_node() { return add_node(sim::Cpu::Params{}); }

  /// Establishes a reliable connection between two queue pairs: the
  /// simulation analogue of the RDMA-CM exchange-and-modify-QP dance,
  /// walking both QPs RESET -> INIT -> RTR -> RTS.
  static void connect(QueuePair& a, QueuePair& b);

  /// The fabric's contract checker (VERBSCHECK=record|abort to enable).
  VerbsCheck& check() { return check_; }
  const VerbsCheck& check() const { return check_; }

  /// Resource audit over every node: live verbs objects, never-completed
  /// WRs, unconsumed recvs/CQEs. With checking enabled, an un-clean() audit
  /// records a kLeak diagnostic. Also run by ~Fabric. Tests assert
  /// fabric.audit().clean() for leak-free teardown.
  AuditReport audit();

  sim::Simulator& simulator() { return sim_; }
  const CostModel& cost() const { return cost_; }

  /// The fabric's observability domain: per-node/per-channel counters and
  /// the virtual-time tracer every layer above charges into.
  obs::Obs& obs() { return obs_; }
  const obs::Obs& obs() const { return obs_; }
  Node* node(size_t i) { return nodes_.at(i).get(); }
  size_t node_count() const { return nodes_.size(); }

  /// Recycled byte buffers for the NIC's payload snapshots (inline WQEs,
  /// READ responses): one steady-state allocation instead of one per op.
  sim::BufArena& buf_arena() { return buf_arena_; }

  /// Attaches a fault plan: stochastic wire faults apply to every WQE from
  /// now on, and each scheduled fault is armed as a timer task. Pass
  /// nullptr to restore fault-free operation.
  void set_fault_plan(std::unique_ptr<FaultPlan> plan);
  FaultPlan* fault_plan() { return fault_plan_.get(); }

  QueuePair* find_qp(uint32_t qp_num);

 private:
  friend class QueuePair;
  friend class Node;

  /// Hands one WQE to the NIC: spawns its execution, wrapped in a
  /// post->completion trace span only while the tracer is enabled.
  void start_wqe(QueuePair& src, SendWr wr);
  /// NIC-side execution of one WQE (spawned, runs in virtual time).
  sim::Task<void> execute_wqe(QueuePair& src, SendWr wr);
  /// execute_wqe inside a "wqe/<opcode>" trace span.
  sim::Task<void> traced_wqe(QueuePair& src, SendWr wr);
  sim::Task<void> execute_chain(QueuePair& src, std::vector<SendWr> wrs);

  /// Payload bytes per wire packet.
  static constexpr uint64_t kMtu = 4096;
  /// Reserves one packet of `bytes` payload on tx's and rx's links, after
  /// whatever they already carry, and returns when it is serialized
  /// (propagation NOT included). A payload goes out as one reservation
  /// per MTU, awaited in turn, so packets from different QPs interleave on
  /// the wire — no whole-message head-of-line blocking.
  sim::Time reserve_packet(Nic& tx, Nic& rx, uint64_t bytes);

  /// Timer task arming one scheduled fault from the attached plan.
  sim::Task<void> apply_fault(FaultPlan::Scheduled f);

  /// Draws and waits out the attached plan's stochastic queueing delay for
  /// one WQE; await it only when a plan is attached. Must be awaited under
  /// the QP's sq_order_ mutex so the delay stalls the whole send queue (RC
  /// ordering).
  sim::Task<void> injected_delay(QueuePair& src, const SendWr& wr);

  /// Delivers an error CQE for `wr` (error completions are generated even
  /// for unsignaled WRs) and moves the requester QP to the error state.
  void fail_wqe(QueuePair& src, const SendWr& wr, WcStatus status);

  sim::Simulator& sim_;
  CostModel cost_;
  obs::Obs obs_;  // before nodes_: Node constructors register into it
  VerbsCheck check_;  // before nodes_: Node constructors capture a pointer
  std::vector<std::unique_ptr<Node>> nodes_;
  sim::BufArena buf_arena_;
  std::unique_ptr<FaultPlan> fault_plan_;
  uint32_t next_qpn_ = 1;
};

}  // namespace hatrpc::verbs
