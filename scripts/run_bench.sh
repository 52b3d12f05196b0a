#!/usr/bin/env bash
# Regenerates every committed bench report (BENCH_<bench>.json at the repo
# root) with the flags CI's bench-gate job uses, so
# `python3 scripts/bench_gate.py compare BENCH_<bench>.json <fresh run>`
# holds between them. A report is {bench, seed, config, virtual, host}
# (bench/report.h): config and virtual are identical for a seed on any
# machine; only host (wall-clock) differs between runs.
#
#   BUILD_DIR=build scripts/run_bench.sh   # BUILD_DIR defaults to build
#
# Windowed and filtered figure runs are direct binary calls, e.g.
#   build/bench/bench_fig05_protocol_throughput --window 16 --out w16.json
set -euo pipefail

cd "$(dirname "$0")/.."

b="${BUILD_DIR:-build}/bench"
for bench in fig04_protocol_latency fig05_protocol_throughput cluster \
             sim_core scalability adaptive mdblite; do
  if [[ ! -x "$b/bench_$bench" ]]; then
    echo "error: $b/bench_$bench not built (cmake -B build -S . && cmake --build build)" >&2
    exit 1
  fi
done

"$b/bench_fig04_protocol_latency" --out BENCH_fig04.json
"$b/bench_fig05_protocol_throughput" --out BENCH_fig05.json
# bench_cluster exits non-zero (and prints INVARIANT VIOLATION) if any
# acknowledged write is lost, a replica lags, or the fabric audit is dirty;
# VERBSCHECK=abort turns any verbs contract violation into an exception.
VERBSCHECK=abort "$b/bench_cluster" --seed 1 --out BENCH_cluster.json
# bench_sim_core exits non-zero if a cancelled timer ever fires.
"$b/bench_sim_core" --seed 1 --out BENCH_sim_core.json
"$b/bench_scalability" --seed 1 --out BENCH_scalability.json
# bench_adaptive exits non-zero if the frozen-controller ablation diverges
# from its static twin.
"$b/bench_adaptive" --seed 1 --out BENCH_adaptive.json
# The committed mdblite report carries the previous page layout's numbers
# as host.before; hand them to the new run so they stay.
before="$(mktemp)"
trap 'rm -f "$before"' EXIT
python3 -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["host"]["before"]))' \
  < BENCH_mdblite.json > "$before"
"$b/bench_mdblite" --seed 1 --out BENCH_mdblite.json --before "$before"

echo "wrote BENCH_{fig04,fig05,cluster,sim_core,scalability,adaptive,mdblite}.json"
