// Per-function footprint scopes: the live observations the adaptive hint
// controller (src/hint/adaptive.h) feeds on. Where Counters answers "how
// many doorbells did this channel ring", a FunctionFootprint answers "what
// does THIS RPC function look like right now" — payload and concurrency
// EWMAs plus a live in-flight gauge shared by every channel that carries
// the function, so a 100-connection client still observes one aggregate
// concurrency figure (the quantity the Fig-6 map classifies on).
//
// Footprints are pure bookkeeping: recording a sample costs no virtual
// time, and nothing here feeds the deterministic counter dump() oracles —
// a program that never reads its footprints behaves bit-identically to one
// without them.
#pragma once

#include <cstdint>

namespace hatrpc::obs {

/// One completed call's footprint, as observed by the issuing channel.
struct CallSample {
  uint64_t req_bytes = 0;
  uint64_t resp_bytes = 0;
  /// The call blocked on a full window before acquiring a slot.
  bool stalled = false;
  /// Live calls in flight on the function when this one was issued
  /// (aggregate across channels — the observed concurrency).
  uint32_t inflight = 0;
};

/// Aggregated live view of one RPC function.
class FunctionFootprint {
 public:
  /// Marks a call issued; returns the aggregate in-flight count INCLUDING
  /// this call (what CallSample::inflight should carry).
  uint32_t call_begin() { return ++inflight_; }
  void call_end() {
    if (inflight_ > 0) --inflight_;
  }

  /// Folds one completed call into the EWMAs. `alpha` is the smoothing
  /// weight (new = old + alpha * (sample - old)).
  void record(const CallSample& s, double alpha) {
    ++calls_;
    const double payload =
        static_cast<double>(s.req_bytes > s.resp_bytes ? s.req_bytes
                                                       : s.resp_bytes);
    if (calls_ == 1) {
      payload_ewma_ = payload;
      inflight_ewma_ = static_cast<double>(s.inflight);
    } else {
      payload_ewma_ += alpha * (payload - payload_ewma_);
      inflight_ewma_ += alpha * (static_cast<double>(s.inflight) -
                                 inflight_ewma_);
    }
  }

  /// max(request, response) bytes, exponentially smoothed.
  double payload_ewma() const { return payload_ewma_; }
  /// Aggregate in-flight calls at issue time, exponentially smoothed.
  double inflight_ewma() const { return inflight_ewma_; }

 private:
  uint64_t calls_ = 0;
  uint32_t inflight_ = 0;
  double payload_ewma_ = 0;
  double inflight_ewma_ = 0;
};

}  // namespace hatrpc::obs
