#!/usr/bin/env python3
"""Gate for the benches' reports (bench/report.h).

  bench_gate.py compare A B       A and B agree on bench, seed, config and
                                  virtual; otherwise name the first path
                                  that differs and exit 1. `host`
                                  (wall-clock) is never compared.
  bench_gate.py check NAME R...   run check NAME's assertions on the
                                  report(s) R (`echo` takes any number of
                                  figure reports).
  bench_gate.py trace FILE        FILE is a Chrome trace a figure bench's
                                  --trace wrote, with at least one span.

Values compare as written: numbers by their literal text, objects by key
order, so a compare is as strict as a byte cmp of those four blocks.
"""
import inspect
import itertools
import json
import sys

GATED = ("bench", "seed", "config", "virtual")


class Num(str):
    """A JSON number as its literal text."""


class Obj(list):
    """A JSON object as its (key, value) pairs, in file order."""


def leaves(v, path):
    """(path, literal) for every scalar and empty container of `v`, in
    document order; numbers keep their text, so "1.50" != "1.5"."""
    if isinstance(v, Obj):
        kids = [(f"{path}.{k}" if path else k, x) for k, x in v]
    elif isinstance(v, list):
        kids = [(f"{path}[{i}]", x) for i, x in enumerate(v)]
    else:
        return [(path, v if isinstance(v, Num) else json.dumps(v))]
    empty = "{}" if isinstance(v, Obj) else "[]"
    return [leaf for p, x in kids for leaf in leaves(x, p)] or [(path, empty)]


def compare(a_path, b_path):
    docs = []
    for path in (a_path, b_path):
        with open(path) as f:
            doc = json.load(f, object_pairs_hook=Obj, parse_float=Num,
                            parse_int=Num, parse_constant=Num)
        docs.append(leaves(Obj(kv for kv in doc if kv[0] in GATED), ""))
    absent = ("(absent)", "(absent)")
    for a, b in itertools.zip_longest(*docs, fillvalue=absent):
        if a != b:
            print(f"bench-gate: {a_path} and {b_path} differ at "
                  f"{a[0] if a != absent else b[0]}:\n"
                  f"  {a_path}: {a[0]} = {a[1]}\n"
                  f"  {b_path}: {b[0]} = {b[1]}")
            return 1
    print(f"{a_path} == {b_path} (bench, seed, config, virtual)")
    return 0


# --- per-bench assertions ----------------------------------------------------


def check_cluster(rep):
    for wl in rep["virtual"]["workloads"]:
        name, inv, tot = wl["workload"], wl["invariants"], wl["totals"]
        assert inv["lost_acked_writes"] == 0, f"{name}: lost acked writes"
        assert inv["replica_lag"] == 0, f"{name}: replica lag"
        assert inv["op_errors"] == 0, f"{name}: op errors"
        assert inv["audit_clean"], f"{name}: dirty fabric audit"
        assert inv["leaked_tasks"] == 0, f"{name}: leaked tasks"
        assert tot["failovers"] > 0, f"{name}: crash schedule never fired"
        fo = wl["failover"]
        print(f"{name}: ops={tot['ops']} failovers={tot['failovers']}"
              f" first_write_after_crash_us={fo['first_write_after_crash_us']:.1f}")


def check_sim_core(rep):
    # The floors are ~10x below the rates a shared CI runner produces
    # (timers ~13M/s, cancels ~20M/s Release): they catch an accidental
    # return to a heap-per-event or timer-leak design, not machine noise.
    virt, host = rep["virtual"], rep["host"]
    print(f"timers:  {host['timers']['per_sec']:,.0f} events/s")
    print(f"shallow: {host['shallow']['per_sec']:,.0f} events/s"
          f" (peak depth {virt['shallow']['peak_queue_depth']})")
    print(f"cancels: {host['cancels']['per_sec']:,.0f} cancels/s")
    assert host["timers"]["per_sec"] > 1_000_000, "timer dispatch below floor"
    assert host["cancels"]["per_sec"] > 2_000_000, \
        "timer cancellation below floor"
    assert virt["cancels"]["timers_cancelled"] == 20000, "cancel count drifted"
    assert virt["cancels"]["virtual_end_ns"] == 2000, "a cancelled timer fired"
    # The shallow phase keeps a handful of timers pending, so it must ride
    # the small-queue fast path (depth <= 64) and beat the deep phase's
    # dispatch rate, not regress to the full wheel machinery.
    assert virt["shallow"]["peak_queue_depth"] <= 64, \
        "shallow phase left the fast path"
    assert host["shallow"]["per_sec"] > 2_000_000, \
        "shallow dispatch below floor"


def check_scalability(rep):
    # Run on the reduced sweep (--clients 1,8,64 --windows 1,16
    # --shards 0,2,28,56): enough points to pin the shape (per-shard
    # scaling, knee, busy over-subscription, event crossover). All asserted
    # numbers come from virtual time, so they are exact on any machine.
    virt = rep["virtual"]
    series = {(s["shards"], s["mode"], s["window"]):
              {p["clients"]: p["mops"] for p in s["points"]}
              for s in virt["series"]}
    knees = {(k["shards"], k["mode"], k["window"]): k
             for k in virt["analysis"]["knees"]}
    # Throughput must be monotone in client count up to the knee
    # (2% slack; past the knee saturation or collapse is expected).
    for key, pts in series.items():
        knee = knees[key]["knee_clients"]
        xs = sorted(pts)
        for a, b in zip(xs, xs[1:]):
            if knee and b > knee:
                break
            assert pts[b] >= 0.98 * pts[a], \
                f"{key}: rate fell {pts[a]:.3f}->{pts[b]:.3f} before the knee"
    # Per-shard scaling: more busy shards = more cores polled and more
    # handler compute in parallel.
    s2, s28 = series[(2, "busy", 1)][64], series[(28, "busy", 1)][64]
    print(f"busy w=1 c=64: 2 shards {s2:.3f} Mops, 28 shards {s28:.3f} Mops")
    assert s28 > 1.5 * s2, "28 busy shards must beat 2 by >1.5x"
    assert s28 > 2.0, "28-shard busy rate below floor"
    # Over-subscription: 56 busy spinners on 28 cores time-slice; the
    # 56-shard config must not beat the 28-shard one...
    s56 = series[(56, "busy", 1)][64]
    print(f"busy w=1 c=64: 56 shards {s56:.3f} Mops (oversubscribed)")
    assert s56 <= s28, "over-subscribed busy config must not win"
    # ...and event polling overtakes busy there (the analysis block
    # records the crossover client count).
    xover = {(x["shards"], x["window"]): x["crossover_clients"]
             for x in virt["analysis"]["event_vs_busy_oversub"]}
    e56 = series[(56, "event", 1)][64]
    print(f"event w=1 c=64: 56 shards {e56:.3f} Mops, crossover at "
          f"{xover[(56, 1)]} clients")
    assert e56 > s56, "event must overtake over-subscribed busy"
    assert 0 < xover[(56, 1)] <= 64, "crossover missing from analysis"


def check_adaptive(rep):
    ana = rep["virtual"]["analysis"]
    for ph in ana["per_phase"]:
        print(f"{ph['name']}: adaptive {ph['adaptive_steady_mops']:.4f}"
              f" vs best {ph['best_static']} {ph['best_static_mops']:.4f}"
              f" ({ph['adaptive_vs_best']:.3f}x)"
              f" / worst {ph['worst_static_mops']:.4f}"
              f" ({ph['adaptive_vs_worst']:.3f}x)")
        # Steady state: adaptive must track the best static per phase.
        assert ph["adaptive_vs_best"] >= 0.95, \
            f"{ph['name']}: adaptive fell behind the best static"
    # ...and beat the worst (wrong) static at least 2x somewhere.
    assert ana["adaptive_2x_wrong_static"], \
        "adaptive never doubled the wrong static plan"
    # The frozen ablation ran bit-identical to the eager static.
    assert ana["frozen_matches_static"], "frozen ablation diverged"
    # Re-selection settles: no controller flaps within a phase.
    assert ana["max_switches_per_channel_per_phase"] <= 2, \
        "a controller switched more than twice in one phase"
    assert ana["adaptive_total_switches"] > 0, "controller never adapted"


def row(rep, name):
    """The row called `name` of a figure report."""
    matches = [r for r in rep["virtual"]["rows"] if r["name"] == name]
    assert len(matches) == 1, f"expected one row {name}, got {len(matches)}"
    return matches[0]


def per_call(r, counter):
    return r[counter] / r["calls"]


def check_window(w1, w16):
    # Pipelining beats serial: fig05 at --window 1 and 16 on one row. The
    # counters are deterministic, so the comparisons are exact.
    assert w1["config"]["window"] == 1 and w16["config"]["window"] == 16, \
        "expected a --window 1 and a --window 16 report"
    name = "Fig05/64B/Direct-WriteIMM/c4/busy"
    a, b = row(w1, name), row(w16, name)
    m1, m16 = (r["calls"] / r["elapsed_ns"] * 1e3 for r in (a, b))
    d1, d16 = per_call(a, "doorbells"), per_call(b, "doorbells")
    print(f"window=1:  {m1:.4f} mops, {d1:.3f} doorbells/call")
    print(f"window=16: {m16:.4f} mops, {d16:.3f} doorbells/call")
    assert m16 > m1, "windowed throughput must be strictly higher"
    assert d16 < d1, "windowed doorbells/call must be strictly lower"


def check_fig05(rep):
    # The paper's Fig. 5 shape at 512 B: in every busy-polling client count,
    # Direct-WriteIMM finishes its calls first of the ten protocols.
    assert rep["config"]["window"] == 1, "expected a --window 1 report"
    groups = {}
    for r in rep["virtual"]["rows"]:
        size, kind, clients, poll = r["name"].split("/")[1:]
        if size == "512B" and poll == "busy":
            groups.setdefault(clients, {})[kind] = r["elapsed_ns"]
    assert groups, "no Fig05/512B/*/busy rows"
    for clients, spans in groups.items():
        assert len(spans) == 10, f"{clients}: {len(spans)} protocols, not 10"
        best = min(spans, key=spans.get)
        direct = spans["Direct-WriteIMM"]
        others = [v for k, v in spans.items() if k != "Direct-WriteIMM"]
        assert direct < min(others), \
            f"512B {clients} busy: {best} ({spans[best]} ns) beats " \
            f"Direct-WriteIMM ({direct} ns)"
    print(f"fig05: Direct-WriteIMM first at 512 B busy in {len(groups)} "
          "client counts")


def check_echo(*reps):
    # Every figure row that compares its echoes byte for byte found none
    # wrong. A report must have at least one such row.
    for rep in reps:
        rows = [r for r in rep["virtual"]["rows"] if "echo_mismatches" in r]
        assert rows, f"{rep['bench']}: no row reports echo_mismatches"
        bad = [r["name"] for r in rows if r["echo_mismatches"]]
        assert not bad, f"{rep['bench']}: echo mismatches on {', '.join(bad)}"
        print(f"{rep['bench']}: {len(rows)} rows, 0 echo mismatches")


# name -> (the bench whose reports it takes, None for any; its assertions)
CHECKS = {"cluster": ("cluster", check_cluster),
          "sim_core": ("sim_core", check_sim_core),
          "scalability": ("scalability", check_scalability),
          "adaptive": ("adaptive", check_adaptive),
          "fig05": ("fig05", check_fig05),
          "window": ("fig05", check_window),
          "echo": (None, check_echo)}


def takes(assertions, n):
    """True if `assertions` takes n reports (a *reps check takes 1+)."""
    code = assertions.__code__
    if code.co_flags & inspect.CO_VARARGS:
        return n >= 1
    return n == code.co_argcount


def check(name, paths):
    bench, assertions = CHECKS[name]
    reps = []
    for path in paths:
        with open(path) as f:
            rep = json.load(f)
        if bench and rep["bench"] != bench:
            print(f"bench-gate: {path} is a {rep['bench']} report, not {bench}")
            return 1
        reps.append(rep)
    try:
        assertions(*reps)
    except (AssertionError, KeyError) as e:
        print(f"bench-gate: {name} check failed on {' '.join(paths)}: {e}")
        return 1
    print(f"{name} checks OK ({' '.join(paths)})")
    return 0


def trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events or not any(e.get("ph") == "X" for e in events):
        print(f"bench-gate: {path} has no complete (\"X\") spans")
        return 1
    print(f"trace OK: {len(events)} events ({path})")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    if (len(argv) >= 4 and argv[1] == "check" and argv[2] in CHECKS and
            takes(CHECKS[argv[2]][1], len(argv) - 3)):
        return check(argv[2], argv[3:])
    if len(argv) == 3 and argv[1] == "trace":
        return trace(argv[2])
    print(__doc__.strip(), f"\nNAME is one of: {', '.join(CHECKS)}",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
