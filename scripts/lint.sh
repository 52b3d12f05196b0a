#!/usr/bin/env bash
# Project lint pass: a handful of grep rules encoding invariants that the
# type system cannot, plus a clang-tidy sweep when the tool is available.
#
# Usage: scripts/lint.sh [build-dir]
#   build-dir (default: build) is only consulted for compile_commands.json;
#   the grep rules need nothing but the checkout.
#
# Exit status: 0 when every rule passes, 1 otherwise.

set -u
cd "$(dirname "$0")/.."
build_dir="${1:-build}"
# Failures are flagged through a marker file because each rule runs on the
# receiving end of a pipeline (a subshell), where plain variables don't stick.
fail_marker="$(mktemp)"
trap 'rm -f "$fail_marker"' EXIT

red()  { printf '\033[31m%s\033[0m\n' "$*"; }
note() { printf '%s\n' "$*"; }

rule() {
  # rule <name> <explanation> -- prints matches fed on stdin, flags failure.
  local name="$1" why="$2" matches
  matches="$(cat)"
  if [ -n "$matches" ]; then
    red "lint: $name"
    note "  $why"
    printf '%s\n' "$matches" | sed 's/^/    /'
    echo 1 >>"$fail_marker"
  fi
}

# --- Rule 1: the send path goes through protocol channels. ------------------
# Only src/proto (the channel implementations) and src/verbs (the device
# model itself) may ring doorbells; upper layers that post raw WQEs bypass
# hint planning, reliability, and the observability counters.
# Exception: kv/cluster.cc's ReadViewClient — the one-sided READ path is
# channel-free BY DESIGN (Storm-style version-validated READ, DESIGN.md
# §11); it posts exactly one READ WQE and validates the snapshot itself.
grep -rn --include='*.h' --include='*.cc' -E '\bpost_send(_chain)?\(' src \
  | grep -v '^src/proto/' | grep -v '^src/verbs/' \
  | grep -v '^src/kv/cluster\.cc' \
  | rule 'raw-post-send-outside-proto' \
         'post_send belongs to src/proto and src/verbs; use a channel.'

# --- Rule 2: completion status is an enum, not a number. --------------------
# Comparing Wc::status against integer literals silently breaks when the
# WcStatus enum is reordered; spell the enumerator.
grep -rn --include='*.h' --include='*.cc' -E '\.status\s*[!=]=\s*[0-9]' \
    src tests bench examples \
  | rule 'wc-status-raw-int' \
         'compare Wc::status against WcStatus enumerators, not integers.'

# --- Rule 3: no ambient virtual time in headers. ----------------------------
# A global now() accessor in a header invites cross-simulator reads that
# break run-to-run determinism; time flows from an owned Simulator&.
grep -rn --include='*.h' -E '\bsim::now\(\)' src \
  | rule 'ambient-now-in-header' \
         'read time from the owning Simulator instance, never a global.'

# --- Rule 4: no braced SendWr temporaries that own memory. ------------------
# GCC 12 coroutine frame promotion copies a braced SendWr temporary
# memberwise without running the shared_ptr move constructor, so a
# `.keep_alive = std::move(p)` initializer leaves two owners of one count
# (see the SendWr::keep_alive note in src/verbs/qp.h). Build such WRs as
# named objects and post_send(std::move(wr)).
grep -rnz --include='*.h' --include='*.cc' \
    -oE 'SendWr\{[^}]*\.keep_alive' src tests bench examples \
  | tr '\0' '\n' | grep -v '^$' \
  | rule 'sendwr-brace-owning-member' \
         'braced SendWr temporaries with keep_alive double-free under GCC 12 coroutines; use a named WR.'

# --- Rule 5: every observability counter has a producer. --------------------
# A Ctr enumerator nobody references outside counters.h is a dead counter:
# dashboards and DESIGN.md read as if the event were instrumented when
# nothing ever increments it. Add the add()/slot() site or delete the
# enumerator (and its doc claims) — see the kShardSteals note in DESIGN.md.
sed -n '/enum class Ctr/,/^};/p' src/obs/counters.h \
  | grep -oE '^  k[A-Za-z0-9]+' | tr -d ' ' | grep -v '^kCount$' \
  | while read -r ctr; do
      if ! grep -rq --include='*.h' --include='*.cc' --include='*.cpp' \
          "Ctr::$ctr\b" src tests bench examples \
          --exclude=counters.h; then
        echo "src/obs/counters.h: Ctr::$ctr has no use outside counters.h"
      fi
    done \
  | rule 'dead-counter' \
         'every Ctr enumerator needs a producer or reader outside counters.h.'

# --- Rule 6: no co_await on a conditional between two calls. ---------------
# GCC 12.2 miscompiles `co_await (c ? a() : b())` when both arms are calls
# returning tasks, and the awaiting coroutine crashes (a protocol that polled
# its send or recv CQ that way segfaulted the test suite). Await each call in
# its own branch of an if/else. A conditional between two objects, as in
# `co_await (c ? x : y).call()`, is fine.
grep -rnE --include='*.h' --include='*.cc' \
    'co_await\s*\(.*\?[^:;]*\w\s*\([^()]*\)\s*:[^;]*\w\s*\(' \
    src tests bench examples \
  | rule 'co-await-conditional-calls' \
         'co_await on (c ? f() : g()) crashes under GCC 12.2; use if/else.'

# --- Rule 7: src/ modules include only the modules below them. --------------
# The layers stack sim < obs < verbs < proto < {thrift, hint} < core <
# {kv, tpch}; idl sits on hint and ycsb on sim. thrift and hint are siblings:
# the Thrift layer reaches RDMA through proto channels alone, and the hint
# planner never sees Thrift. A module missing from this table fails too, so
# a new one has to take its place in the stack.
layer_of() {
  case "$1" in
    sim)      echo 'sim' ;;
    obs)      echo 'obs sim' ;;
    verbs)    echo 'verbs obs sim' ;;
    proto)    echo 'proto verbs obs sim' ;;
    thrift)   echo 'thrift proto verbs obs sim' ;;
    hint)     echo 'hint proto verbs obs sim' ;;
    core)     echo 'core thrift hint proto verbs obs sim' ;;
    kv|tpch)  echo "$1 core thrift hint proto verbs obs sim" ;;
    idl)      echo 'idl hint proto verbs obs sim' ;;
    ycsb)     echo 'ycsb sim' ;;
  esac
}
for dir in src/*/; do
  mod="$(basename "$dir")"
  allowed="$(layer_of "$mod")"
  if [ -z "$allowed" ]; then
    echo "$dir: module $mod has no row in the layering table"
    continue
  fi
  grep -rnE --include='*.h' --include='*.cc' '^#include "[a-z_]+/' "$dir" \
    | while IFS= read -r hit; do
        [[ $hit =~ \#include\ \"([a-z_]+)/ ]] && dep="${BASH_REMATCH[1]}"
        case " $allowed " in
          *" $dep "*) ;;
          *) echo "$hit  ($mod may include only: $allowed)" ;;
        esac
      done
done \
  | rule 'module-layering' \
         'a src/ module may include only itself and the modules below it.'

# --- Rule 8: one counter set. -------------------------------------------------
# The RPC stack's per-call facts (WQEs by opcode, retries, replays, failovers)
# live in the obs counters and the fabric's trace. A hand-kept `struct *Stats`
# beside them is a second copy that drifts: ChannelStats once dropped the
# hybrids' inner calls, and its merges disagreed with each other. mdblite's
# EnvStats and sim's arena stats have no obs twin and stay outside the rule.
grep -rnE --include='*.h' --include='*.cc' '\bstruct\s+\w*Stats\b' \
    src/proto src/hint src/core src/thrift src/kv/cluster.* \
  | rule 'counter-twin' \
         'count in obs counters or trace events, not in a hand-kept Stats struct.'

# --- clang-tidy (optional: degrades to a notice when absent). ---------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$build_dir/compile_commands.json" ]; then
    note "lint: clang-tidy ($(clang-tidy --version | head -n1 | sed 's/^ *//'))"
    if ! find src -name '*.cc' -print0 \
        | xargs -0 clang-tidy -p "$build_dir" --quiet; then
      red "lint: clang-tidy reported errors"
      echo 1 >>"$fail_marker"
    fi
  else
    note "lint: skipping clang-tidy ($build_dir/compile_commands.json not found;"
    note "      configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
  fi
else
  note "lint: clang-tidy not installed; grep rules only."
fi

if [ -s "$fail_marker" ]; then
  exit 1
fi
note "lint: all rules pass."
exit 0
