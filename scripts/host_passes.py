#!/usr/bin/env python3
"""Counts the host passes over a 128 KiB Stream call's payload.

    python3 scripts/host_passes.py [--max N]

Run from anywhere inside a source checkout. Builds perfbench/ into
.bench_build/host_passes as a static binary whose memcpy and memmove are
wrapped (-Wl,--wrap=memcpy,--wrap=memmove, plus a wrapper object passed
through CMAKE_EXE_LINKER_FLAGS), so every copy in the program, libstdc++'s
included, goes through the wrapper; no file under perfbench/ changes. The
wrapper records the stack of each copy of at least 64 KiB while perfbench
runs stream-128K (seed 1, 2 seconds). Each stack is attributed to its
innermost frame in this repository's sources (with the nearest enclosing
frame in another function, so a shared helper is told apart by its
caller), and the copies of each such call site are divided by the number
of RPCs the run made: the timed and VerbsCheck rounds' calls plus one
warm-up call per client per round. The copy probe in perfbench/micro.cc
is not a pass over an RPC's payload and is left out.

Prints the copies per call of each call site, and the payload passes per
call: the sum of the sites' figures, rounded to a whole pass. Copies made
on a few calls only add a fraction: a method's first call, which has no
channel yet and stages its request (8 passes instead of 7), and the
bench's per-round bookkeeping. With --max, exits 1 when the passes per
call exceed it.
"""
import argparse
import collections
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "host_passes")
MIN_BYTES = 64 << 10
EXCLUDED = ("perfbench/micro.cc",)  # the copy probe
WORKLOAD, SEED, SECONDS = "stream-128K", 1, 2

WRAPPER = r"""
#include <execinfo.h>
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void *__real_memcpy(void *, const void *, size_t);
void *__real_memmove(void *, const void *, size_t);

enum { kDepth = 12, kStacks = 1024, kMinBytes = %(min)d };
struct Stack { int depth; void *pc[kDepth]; unsigned long hits; };
static struct Stack stacks[kStacks];
static int nstacks, overflow;

static void note(void) {
  void *pc[kDepth + 1];
  int n = backtrace(pc, kDepth + 1) - 1;  /* drop this frame */
  for (int i = 0; i < nstacks; ++i) {
    struct Stack *s = &stacks[i];
    if (s->depth == n && !memcmp(s->pc, pc + 1, sizeof(void *) * n)) {
      ++s->hits;
      return;
    }
  }
  if (nstacks == kStacks) {
    ++overflow;
    return;
  }
  struct Stack *s = &stacks[nstacks++];
  s->depth = n;
  __real_memcpy(s->pc, pc + 1, sizeof(void *) * n);
  s->hits = 1;
}

void *__wrap_memcpy(void *d, const void *s, size_t n) {
  if (n >= kMinBytes) note();
  return __real_memcpy(d, s, n);
}

void *__wrap_memmove(void *d, const void *s, size_t n) {
  if (n >= kMinBytes) note();
  return __real_memmove(d, s, n);
}

__attribute__((destructor)) static void dump(void) {
  const char *path = getenv("HOST_PASSES_OUT");
  FILE *f = path ? fopen(path, "w") : NULL;
  if (!f) return;
  fprintf(f, "overflow %%d\n", overflow);
  for (int i = 0; i < nstacks; ++i) {
    fprintf(f, "%%lu", stacks[i].hits);
    for (int k = 0; k < stacks[i].depth; ++k) fprintf(f, " %%p", stacks[i].pc[k]);
    fputc('\n', f);
  }
  fclose(f);
}
"""


def die(msg):
    print("host_passes: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode:
        die("failed: " + " ".join(cmd))


def build():
    os.makedirs(BUILD, exist_ok=True)
    src = os.path.join(BUILD, "wrap.c")
    obj = os.path.join(BUILD, "wrap.o")
    with open(src, "w") as f:
        f.write(WRAPPER % {"min": MIN_BYTES})
    run(["cc", "-O2", "-c", src, "-o", obj])
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-g",
             "-DCMAKE_EXE_LINKER_FLAGS=-static "
             "-Wl,--wrap=memcpy,--wrap=memmove " + obj])
    run(["cmake", "--build", BUILD, "-j", str(min(os.cpu_count() or 1, 4))])
    return os.path.join(BUILD, "hatbench")


def clients_per_round():
    """The client count of the Stream AtbSpec in perfbench/workloads.cc:
    each client makes one warm-up call per round."""
    with open(os.path.join(ROOT, "perfbench", "workloads.cc")) as f:
        m = re.search(r'AtbSpec\{"Stream",([^}]*)\}', f.read())
    if not m:
        die("no AtbSpec for Stream in perfbench/workloads.cc")
    # AtbSpec{method, bytes, jitter, stagger_ns, clients, calls, pool, sets}
    return int(m.group(1).split(",")[3])


def symbolize(binary, pcs):
    """pc -> [(function, file:line)] of its inlined frames, innermost first."""
    chains = {}
    for pc in pcs:
        out = subprocess.run(["addr2line", "-f", "-C", "-i", "-e", binary,
                              "%#x" % (pc - 1)], capture_output=True,
                             text=True, check=True).stdout.splitlines()
        chains[pc] = [(out[k], out[k + 1].split(" (discriminator")[0])
                      for k in range(0, len(out) - 1, 2)]
    return chains


def site_of(stack, chains):
    """The innermost frame of the stack in this repository's sources, and
    the nearest enclosing repository frame in another function."""
    frames = []
    for pc in stack:
        for func, loc in chains[pc]:
            path = loc.rsplit(":", 1)[0]
            if path.startswith(ROOT + os.sep):  # generated stubs included
                name = re.sub(r"\(.*", "", func).strip() or func
                frames.append((name, os.path.relpath(loc, ROOT)))
    if not frames:
        return ("(outside the repository)", "?"), ("", "")
    caller = next((f for f in frames if f[0] != frames[0][0]), ("", ""))
    return frames[0], caller


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max", type=int, default=None,
                    help="exit 1 when the passes per call exceed this")
    a = ap.parse_args()

    clients = clients_per_round()
    binary = build()
    dump = os.path.join(BUILD, "stacks.txt")
    env = dict(os.environ, HOST_PASSES_OUT=dump)
    r = subprocess.run([binary, "--workload", WORKLOAD, "--seed", str(SEED),
                        "--seconds", str(SECONDS), "--trace", "0"],
                       capture_output=True, text=True, env=env)
    if r.returncode:
        sys.stderr.write(r.stderr)
        die("hatbench failed")
    result = json.loads(r.stdout.splitlines()[-1])
    rounds = int(result["rounds"]) + 1  # + the VerbsCheck round
    calls = int(result["attempted"]) + clients * rounds

    stacks = []
    with open(dump) as f:
        overflow = int(f.readline().split()[1])
        for line in f:
            hits, *pcs = line.split()
            stacks.append((int(hits), [int(p, 16) for p in pcs]))
    if overflow:
        die("%d copies past the wrapper's stack table" % overflow)
    chains = symbolize(binary, sorted({pc for _, s in stacks for pc in s}))

    sites = collections.Counter()
    for hits, stack in stacks:
        sites[site_of(stack, chains)] += hits
    print("%s seed %d: %d calls; copies of >= %d KiB per call by call site"
          % (WORKLOAD, SEED, calls, MIN_BYTES >> 10))
    exact = 0.0
    for ((func, loc), (caller, at)), hits in sorted(
            sites.items(), key=lambda kv: (kv[0][0][1], kv[0][1][1])):
        if loc.split(":")[0] in EXCLUDED:
            continue
        per_call = hits / calls
        exact += per_call
        via = "  <- %s (%s)" % (caller, at) if caller else ""
        print("  %6.3f  %s  %s%s" % (per_call, loc, func, via))
    passes = round(exact)
    print("%d payload passes per call (exact sum %.3f)" % (passes, exact))
    if a.max is not None and passes > a.max:
        print("host_passes: %d passes per call exceed %d" % (passes, a.max),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
