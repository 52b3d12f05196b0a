#!/usr/bin/env python3
"""HatRPC end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (and the HatRPC
libraries it links) into .bench_build/perfbench, runs one workload and
prints every metric by name with its unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 reports the per-layer metrics: counts over the same
untraced rounds, host microbenchmarks run after the timed region, and the
attribution of a separate traced round, whose merged Chrome trace is left in
.bench_build/trace-<workload>-<seed>.json.

Exits non-zero, without a result line, when the source tree is missing or
the build fails; exits 1 after printing the result when any correctness
check failed.
"""
import argparse
import bisect
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hatbench")
WORKLOADS = ("ping-512B", "stream-128K", "ycsb-a", "proto-sweep")
DEADLINE_S = 175  # every run must end within 180 s once built

# Trace attribution: each elementary interval of a call is charged to the
# innermost layer active in it (app handler > server handler > WQE >
# channel call); what no span covers is the client's wait.
PRIORITY = {"app": 4, "handler": 3, "wqe": 2, "call": 1}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no HatRPC source tree (src/) next to perfbench/")
    steps = [["cmake", "--build", BUILD, "-j", str(min(os.cpu_count() or 1, 4))]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                         BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def layer_of(name):
    if name.startswith("bench/client/"):
        return "root"
    if name.startswith("bench/app/"):
        return "app"
    if name == "handler" or name.startswith("tserver/"):
        return "handler"
    if name.startswith("wqe/"):
        return "wqe"
    if name.startswith(("call/", "call-failed/")):
        return "call"
    return None


def attribute(path, tmap, expected_calls, expected_client_ns):
    """Splits every traced call's client-observed time into per-layer self
    time plus wait; by construction the two add up to the call's duration.
    Checks that the traced calls are the untraced round's calls (same count,
    same summed duration) and that no layer span lies outside every call of
    its client. Returns (metrics, per-span detail, problems)."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    to_ns = lambda us: int(round(us * 1000))
    server_of = {c: s for c, s in tmap["server_of"]}
    servers = set(server_of.values())
    peer = {(s, t): c for s, t, c in tmap["peer"]}
    chan = {}
    for e in events:
        if e["name"].startswith(("call/", "call-failed/")):
            chan[(server_of.get(e["pid"]), e["tid"])] = e["pid"]

    roots, spans, unattributed = {}, {}, 0
    for e in events:
        layer = layer_of(e["name"])
        if layer is None:
            continue
        pid, tid = e["pid"], e["tid"]
        if pid not in servers:
            client = pid
        elif layer == "handler":
            client = chan.get((pid, tid))
        else:
            client = peer.get((pid, tid))
        if client is None:
            unattributed += 1
            continue
        start = to_ns(e["ts"])
        span = (start, start + to_ns(e["dur"]), layer, e["name"])
        (roots if layer == "root" else spans).setdefault(client, []).append(span)

    self_ns = {layer: 0 for layer in PRIORITY}
    by_name, wait_ns, client_ns, calls, outside = {}, 0, 0, 0, 0
    for client in set(roots) | set(spans):
        calls_of = sorted(roots.get(client, []))
        mine = sorted(spans.get(client, []))
        # Calls of one client never overlap, so a span meets some call iff
        # it meets the last call that starts before the span ends.
        call_starts = [s[0] for s in calls_of]
        for a, b, _, _ in mine:
            i = bisect.bisect_right(call_starts, b) - 1
            if i < 0 or calls_of[i][1] < a:
                outside += 1
        starts = [s[0] for s in mine]
        longest = max((s[1] - s[0] for s in mine), default=0)
        for s, e, _, _ in calls_of:
            calls += 1
            client_ns += e - s
            lo = bisect.bisect_left(starts, s - longest)
            hi = bisect.bisect_left(starts, e)
            inside = [(max(a, s), min(b, e), lay, name)
                      for a, b, lay, name in mine[lo:hi] if b > s and a < e]
            cuts = sorted({s, e, *(x[0] for x in inside), *(x[1] for x in inside)})
            for a, b in zip(cuts, cuts[1:]):
                top = max((x for x in inside if x[0] <= a and x[1] >= b),
                          key=lambda x: PRIORITY[x[2]], default=None)
                if top is None:
                    wait_ns += b - a
                else:
                    self_ns[top[2]] += b - a
                    by_name[top[3]] = by_name.get(top[3], 0) + b - a

    problems = []
    if unattributed:
        problems.append("%d trace spans could not be attributed to a call" % unattributed)
    if calls != expected_calls:
        problems.append("traced %d calls, expected %d" % (calls, expected_calls))
    if client_ns != expected_client_ns:
        problems.append("traced calls take %d ns in all, the untraced round's %d ns"
                        % (client_ns, expected_client_ns))
    if outside:
        problems.append("%d trace spans lie outside every call of their client" % outside)
    per = 1e3 * max(calls, 1)  # ns -> us, per call
    metrics = {"trace.%s.self_us_per_call" % layer: ns / per
               for layer, ns in self_ns.items()}
    metrics["trace.wait_us_per_call"] = wait_ns / per
    metrics["trace.client_us_per_call"] = client_ns / per
    detail = {name: ns / per for name, ns in sorted(by_name.items())}
    return metrics, detail, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    trace_path = os.path.join(ROOT, ".bench_build",
                              "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=DEADLINE_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        die("hatbench exited with %d" % proc.returncode)
    run = json.loads(lines[-1])

    values = dict(run["layer"] if args.trace else run["e2e"])
    problems = list(run["violations"])
    detail = {}
    if args.trace:
        metrics, detail, trace_problems = attribute(
            trace_path, run["trace_map"], int(run["trace_calls"]),
            int(run["trace_client_ns"]))
        values.update(metrics)
        values["fail_ratio"] = run["failed"] / max(run["attempted"], 1)
        problems += trace_problems

    print("workload %s  seed %d  rounds %d  host wall %.1f s" % (
        args.workload, args.seed, run["rounds"], time.monotonic() - t0))
    print("machine: %d cpus, %s; %s, %s build" % (
        os.cpu_count() or 0, cpu_model(), run["compiler"], run["build"]))
    samples = run["samples"]
    print("virtual samples: %d calls (%d reads, %d writes); digest %s" % (
        samples["calls"], samples["reads"], samples["writes"],
        run["virtual_digest"]))
    result = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append("metric %s was not produced" % m["name"])
            continue
        result[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  %-34s %16.6f %s" % (m["name"], values[m["name"]], m["unit"]))
    for name, us in detail.items():
        print("  trace span %-28s %12.4f vus self per call" % (name, us))
    for p in problems:
        print("CHECK FAILED: " + p)

    correct = not problems and run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]), "metrics": result}))
    sys.exit(0 if correct else 1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


if __name__ == "__main__":
    main()
