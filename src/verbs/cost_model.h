// Calibrated cost model of the RDMA data path.
//
// Every protocol in src/proto is distinguished ONLY by how many of these
// primitive costs it incurs (doorbells, WQEs, copies, round trips, pickup
// delays). The constants below are calibrated against published verbs
// microbenchmarks for ConnectX-5 EDR (100 Gbps) — ~0.9-1.0 us one-way for a
// small RDMA WRITE, ~1.9-2.1 us small-message RPC round trip with busy
// polling, 12.5 GB/s line rate — matching the paper's testbed (§5.1).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace hatrpc::verbs {

using sim::Duration;
using namespace std::chrono_literals;

struct CostModel {
  // -- Link ----------------------------------------------------------------
  double link_gbps = 12.5;          // EDR 100 Gbps payload rate, GB/s
  Duration propagation = 350ns;     // wire + one switch hop, one way
  Duration ack_delay = 250ns;       // hardware ACK back to the requester
  uint32_t header_bytes = 30;       // per-message RC transport overhead

  // -- Initiator-side software/PCIe ----------------------------------------
  Duration post_wqe_cpu = 80ns;     // building one WR in software
  Duration mmio_doorbell = 180ns;   // uncached PCIe doorbell write (per post)
  Duration poll_cqe_cpu = 60ns;     // consuming one CQE in software

  // -- Inline sends (IBV_SEND_INLINE / BlueFlame) ----------------------------
  // The payload is written into the WQE with CPU stores and crosses PCIe in
  // the same write-combined MMIO burst as the doorbell, so the NIC never DMA
  // fetches it: the requester pays CPU store time per byte, the NIC skips
  // the WQE/payload fetch (nic_inline_wqe < nic_wqe).
  uint32_t max_inline_data = 220;   // per-QP inline capacity (CX-5 default)
  double inline_write_gbps = 16.0;  // CPU store bandwidth into the WQE
  Duration nic_inline_wqe = 40ns;   // processing a WQE that arrived via MMIO

  // -- Contract limits (ibv_device_attr-style caps) ---------------------------
  // The simulated data path does not enforce these — real queues are plain
  // std:: containers — but VerbsCheck flags any post that exceeds them,
  // because ConnectX-5 hardware rejects such posts outright.
  uint32_t max_recv_wr = 4096; // per-QP receive queue depth
  uint32_t max_srq_wr = 4096;  // shared receive queue depth
  uint32_t cq_depth = 4096;    // default CQE capacity (create_cq's cqe arg)

  // -- NIC processing --------------------------------------------------------
  Duration nic_wqe = 120ns;         // WQE fetch + processing per work request
  Duration nic_cqe = 80ns;          // DMA of a CQE to host memory
  Duration nic_read_response = 600ns;  // responder-side non-posted PCIe
                                       // DMA read serving a READ

  // -- Protocol software bookkeeping -----------------------------------------
  Duration eager_match_cpu = 250ns;  // slot/credit management + message
                                     // matching per eager message, each side

  // -- Host memory ------------------------------------------------------------
  double memcpy_gbps = 11.0;        // single-core copy bandwidth, GB/s
  Duration memcpy_setup = 40ns;     // fixed cost per software copy

  // -- NUMA -------------------------------------------------------------------
  Duration numa_remote_penalty = 180ns;  // extra PCIe hop when thread is on
                                         // the NUMA node away from the NIC
  double numa_memcpy_factor = 0.75;      // remote-socket copy bandwidth ratio

  /// Wire serialization time for a payload (headers added).
  Duration wire_time(uint64_t payload_bytes) const {
    return sim::transfer_time(payload_bytes + header_bytes, link_gbps);
  }

  /// Software memcpy of `bytes` (charged to a CPU via Cpu::compute).
  Duration copy_time(uint64_t bytes, bool numa_local = true) const {
    double bw = numa_local ? memcpy_gbps : memcpy_gbps * numa_memcpy_factor;
    return memcpy_setup + sim::transfer_time(bytes, bw);
  }

  /// CPU stores placing an inline payload into the WQE (charged to the
  /// posting CPU on top of post_wqe_cpu; no setup cost — the stores land in
  /// the WQE the CPU is already writing).
  Duration inline_write_time(uint64_t bytes) const {
    return sim::transfer_time(bytes, inline_write_gbps);
  }
};

}  // namespace hatrpc::verbs
