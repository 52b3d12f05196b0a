#!/usr/bin/env bash
# Runs the Fig. 4 protocol-latency and Fig. 5 protocol-throughput
# google-benchmark binaries (BENCH_fig04.json / BENCH_fig05.json) and four
# plain benches: cluster failover, the sim-core scheduler microbenchmark,
# the sharded-server scalability sweep and the adaptive-hints study
# (BENCH_cluster.json / BENCH_sim_core.json / BENCH_scalability.json /
# BENCH_adaptive.json by default). A plain bench writes one report shaped
# {bench, seed, config, virtual, host} (bench/report.h): its config and
# virtual blocks are identical for a given seed on any machine, and only
# bench_sim_core's host block (wall-clock rates) differs between runs.
# scripts/bench_gate.py compare checks a fresh report against a committed
# one.
#
# Environment overrides:
#   BUILD_DIR     build tree containing bench/ binaries (default: build)
#   FILTER        --benchmark_filter regex              (default: all rows)
#   WINDOW        channel window driven per connection  (default: 1)
#   ZERO_COPY     1 = drive the zero-copy send path     (default: 0)
#   OUT04         fig04 output JSON path                (default: BENCH_fig04.json)
#   OUT           fig05 output JSON path                (default: BENCH_fig05.json)
#   OUTCLUSTER    cluster output JSON path              (default: BENCH_cluster.json)
#   OUTSIMCORE    sim-core output JSON path             (default: BENCH_sim_core.json)
#   OUTSCAL       scalability output JSON path          (default: BENCH_scalability.json)
#   OUTADAPT      adaptive-hints output JSON path       (default: BENCH_adaptive.json)
#   CLUSTER_ARGS  extra bench_cluster flags, e.g. "--client-nodes 24 --records 1000"
#   SCAL_ARGS     extra bench_scalability flags, e.g. "--clients 1,8,64 --shards 0,4"
#   SEED          cluster + sim-core + scalability + adaptive seed (default: 1)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
FILTER="${FILTER:-.}"
WINDOW="${WINDOW:-1}"
ZERO_COPY="${ZERO_COPY:-0}"
OUT04="${OUT04:-BENCH_fig04.json}"
OUT="${OUT:-BENCH_fig05.json}"
OUTCLUSTER="${OUTCLUSTER:-BENCH_cluster.json}"
OUTSIMCORE="${OUTSIMCORE:-BENCH_sim_core.json}"
OUTSCAL="${OUTSCAL:-BENCH_scalability.json}"
OUTADAPT="${OUTADAPT:-BENCH_adaptive.json}"
CLUSTER_ARGS="${CLUSTER_ARGS:-}"
SCAL_ARGS="${SCAL_ARGS:-}"
SEED="${SEED:-1}"

BIN04="$BUILD_DIR/bench/bench_fig04_protocol_latency"
BIN05="$BUILD_DIR/bench/bench_fig05_protocol_throughput"
BINCLUSTER="$BUILD_DIR/bench/bench_cluster"
BINSIMCORE="$BUILD_DIR/bench/bench_sim_core"
BINSCAL="$BUILD_DIR/bench/bench_scalability"
BINADAPT="$BUILD_DIR/bench/bench_adaptive"
for bin in "$BIN04" "$BIN05" "$BINCLUSTER" "$BINSIMCORE" "$BINSCAL" \
           "$BINADAPT"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

"$BIN04" --zero-copy="$ZERO_COPY" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$OUT04" \
  --benchmark_out_format=json

"$BIN05" --window "$WINDOW" --zero-copy="$ZERO_COPY" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

# bench_cluster exits non-zero (and prints INVARIANT VIOLATION) if any
# acknowledged write is lost, a replica lags, or the fabric audit is dirty.
# shellcheck disable=SC2086
"$BINCLUSTER" --seed "$SEED" --out "$OUTCLUSTER" $CLUSTER_ARGS

# bench_sim_core exits non-zero if a cancelled timer ever fires (the cancel
# phase pins the run's virtual end time to the notify schedule).
"$BINSIMCORE" --seed "$SEED" --out "$OUTSIMCORE"

# The 1→1024-client sharded-server sweep; its analysis block calls out the
# per-config saturation knee and the over-subscription collapse point.
# shellcheck disable=SC2086
"$BINSCAL" --seed "$SEED" --out "$OUTSCAL" $SCAL_ARGS

# bench_adaptive exits non-zero if the frozen-controller ablation diverges
# from its static twin (the adaptive observation path must cost nothing).
"$BINADAPT" --seed "$SEED" --out "$OUTADAPT"

echo "wrote $OUT04, $OUT, $OUTCLUSTER, $OUTSIMCORE, $OUTSCAL and $OUTADAPT (window=$WINDOW, zero_copy=$ZERO_COPY, filter=$FILTER, seed=$SEED)"
