#!/usr/bin/env python3
"""Self-test of the benchmark's determinism contract.

    python3 perfbench/selftest.py

Checks, with short runs of perfbench/run.py:
  * two runs with the same seed give byte-identical virtual metrics and the
    same digest of every virtual per-call result, on every workload;
  * another seed changes ycsb-a's op stream, hence its digest and its
    virtual metrics.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("ping-512B", "stream-128K", "ycsb-a", "proto-sweep")


def virtual(workload, seed):
    """(digest, virt_* metrics) of one short run."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    digest = next(l for l in out if l.startswith("virtual samples")).split()[-1]
    result = json.loads(out[-1])
    if not result["correct"]:
        sys.exit("FAIL %s seed %d: run reported incorrect results" % (workload, seed))
    virt = {k: m["value"] for k, m in result["metrics"].items()
            if k.startswith("virt_")}
    return digest, virt


def main():
    for w in WORKLOADS:
        a, b = virtual(w, 11), virtual(w, 11)
        if a != b:
            sys.exit("FAIL %s: same seed, different virtual results:\n%s\n%s"
                     % (w, a, b))
        print("ok   %-12s seed 11 twice: digest %s" % (w, a[0]))
        if w == "ycsb-a":
            c = virtual(w, 12)
            if c[0] == a[0] or c[1] == a[1]:
                sys.exit("FAIL ycsb-a: seed 12 did not change the virtual results")
            print("ok   %-12s seed 12 differs: digest %s" % (w, c[0]))


if __name__ == "__main__":
    main()
