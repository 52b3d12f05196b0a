// One side of an RC connection: a QP plus its send/recv completion queues
// and the polling discipline the owning thread uses. Collapses the
// CQ/CQ/QP triple every protocol used to hand-build per side into a single
// value with a factory, so channel constructors read as two make_endpoint
// calls and a connect.
#pragma once

#include "verbs/fabric.h"

namespace hatrpc::verbs {

struct Endpoint {
  Node* node = nullptr;
  CompletionQueue* scq = nullptr;
  CompletionQueue* rcq = nullptr;
  QueuePair* qp = nullptr;
  sim::PollMode poll = sim::PollMode::kBusy;

  /// Next send/recv completion, polled with this side's discipline.
  sim::Task<Wc> send_wc() { return scq->wait(poll); }
  sim::Task<Wc> recv_wc() { return rcq->wait(poll); }

  /// Batched receive: one wake-up, up to max_n completions (in order).
  sim::Task<std::vector<Wc>> recv_wcs(size_t max_n) {
    return rcq->wait_many(poll, max_n);
  }

  /// Closes both CQs so pollers unblock with flush errors (shutdown).
  void close() {
    scq->close();
    rcq->close();
  }

  /// Hard teardown: the QP flushes everything in flight.
  void enter_error() { qp->enter_error(); }
};

/// Builds the CQs and the QP on `node` in one go. The endpoint is not yet
/// connected — pair it with its peer via connect() below.
inline Endpoint make_endpoint(Node& node, sim::PollMode poll) {
  Endpoint ep;
  ep.node = &node;
  ep.poll = poll;
  ep.scq = node.create_cq();
  ep.rcq = node.create_cq();
  ep.qp = node.create_qp(*ep.scq, *ep.rcq);
  return ep;
}

inline void connect(Endpoint& a, Endpoint& b) {
  Fabric::connect(*a.qp, *b.qp);
}

}  // namespace hatrpc::verbs
