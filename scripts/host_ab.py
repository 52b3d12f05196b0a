#!/usr/bin/env python3
"""Paired A/B of perfbench's end-to-end metrics between two source trees.

    scripts/host_ab.py PARENT_TREE CHANGE_TREE [WORKLOAD...]

Runs ten pairs of `perfbench/run.py --seed 1 --trace 0` in each tree, for
each workload (default: every workload of BENCHMARK.json), alternating which
tree runs first in a pair. Run length is BENCHMARK.json's `run_seconds`,
the same on both sides. Prints every run, then one row per workload and
end-to-end metric: both medians, the parent's interquartile range, the
change's win/tie/loss count over the pairs, and a verdict.

Verdicts, per metric and workload, with `bound` from BENCHMARK.json:
  gain           the change wins at least 9 of 10 pairs (ties count for
                 neither) and the medians differ, in the better direction,
                 by more than the parent's interquartile range;
  regression     the change's median is worse than the parent's by more
                 than `bound` (relative);
  unresolved     otherwise, when either side's interquartile range exceeds
                 `bound` of the parent's median, unless every change run
                 reads better than every parent run;
  no regression  otherwise.

Exits 1 on any regression or any run reporting `correct: false`, 2 on bad
arguments or a run that printed no result.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SEED = 1


def run_once(tree, workload, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("host_ab: %s in %s printed no result (exit %d)" %
              (workload, tree, proc.returncode), file=sys.stderr)
        sys.exit(2)


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(metric, parent, change):
    """Classifies one metric on one workload from its paired runs."""
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    ties = len(parent) - wins - losses
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    iqr = p3 - p1
    gained = mp - mc if lower else mc - mp  # > 0 when the change is better
    worse_by = -gained / mp if mp else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    spread = max(iqr, c3 - c1) / mp if mp else 0.0
    if wins * 10 >= 9 * len(parent) and gained > iqr:
        v = "gain"
    elif worse_by > metric["bound"]:
        v = "regression"
    elif spread > metric["bound"] and not all_better:
        v = "unresolved"
    else:
        v = "no regression"
    return mp, mc, iqr, (wins, ties, losses), v


def main():
    args = sys.argv[1:]
    if len(args) < 2 or any(a.startswith("-") for a in args):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        sys.exit(2)
    trees = [os.path.abspath(args[0]), os.path.abspath(args[1])]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args[2:] or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    # runs[workload][side] = list of result objects, in pair order.
    runs = {w: ([], []) for w in workloads}
    incorrect = 0
    for pair in range(PAIRS):
        for w in workloads:
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                r = run_once(trees[side], w, seconds)
                runs[w][side].append(r)
                incorrect += not r["correct"]
                vals = " ".join("%s=%r" % (k, m["value"])
                                for k, m in sorted(r["metrics"].items()))
                print("run pair=%d %-6s %-12s correct=%s failed=%d %s" % (
                    pair, ("parent", "change")[side], w,
                    str(r["correct"]).lower(), r["failed"], vals),
                    flush=True)

    print()
    print("%-12s %-18s %14s %14s %12s %8s  %s" % (
        "workload", "metric", "parent med", "change med", "parent IQR",
        "W/T/L", "verdict"))
    regressions = 0
    for w in workloads:
        parent, change = runs[w]
        for m in spec["end_to_end"]:
            name = m["name"]
            if not all(name in r["metrics"] for r in parent + change):
                continue
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            mp, mc, iqr, (wi, ti, lo), v = verdict(m, p, c)
            regressions += v == "regression"
            print("%-12s %-18s %14.6g %14.6g %12.4g %8s  %s" % (
                w, name, mp, mc, iqr, "%d/%d/%d" % (wi, ti, lo), v))
    if incorrect:
        print("host_ab: %d run(s) reported correct: false" % incorrect)
    sys.exit(1 if regressions or incorrect else 0)


if __name__ == "__main__":
    main()
