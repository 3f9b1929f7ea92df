#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, tests, bench regression.
#
# Usage:
#   ./ci.sh                full gate (mirrored stage-by-stage by .github/workflows/ci.yml)
#   ./ci.sh --quick        inner-loop subset: fmt + clippy + debug tests
#   ./ci.sh --stage NAME   run only stages whose name contains NAME
#
# Every stage must pass; per-stage wall time is printed as it runs, and a
# recap table sorted slowest-first closes the log so the expensive stages
# are visible without scrolling.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
STAGE_FILTER=""
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --stage)
      if [ $# -lt 2 ]; then
        echo "--stage requires a stage-name substring" >&2
        exit 2
      fi
      STAGE_FILTER="$2"; shift 2 ;;
    *) echo "unknown argument '$1'; usage: ./ci.sh [--quick] [--stage NAME]" >&2; exit 2 ;;
  esac
done

# Runs one named stage, timing it: stage <name> <cmd...>
# With --stage, stages whose name does not contain the filter are skipped.
STAGE_TIMINGS=()
STAGES_RUN=0
stage() {
  local name="$1"; shift
  if [ -n "$STAGE_FILTER" ] && [[ "$name" != *"$STAGE_FILTER"* ]]; then
    return 0
  fi
  STAGES_RUN=$((STAGES_RUN + 1))
  echo "==> ${name}"
  local start_s elapsed
  start_s=$(date +%s)
  "$@"
  elapsed=$(( $(date +%s) - start_s ))
  echo "    (${name}: ${elapsed}s)"
  STAGE_TIMINGS+=("$(printf '%6d  %s' "$elapsed" "$name")")
}

# Prints the sorted per-stage recap; fails if a --stage filter matched nothing.
recap() {
  if [ "$STAGES_RUN" -eq 0 ]; then
    if [ -n "$STAGE_FILTER" ]; then
      echo "no stage name contains '${STAGE_FILTER}'" >&2
    else
      echo "no stages ran" >&2
    fi
    exit 2
  fi
  echo ""
  echo "Stage timing recap (slowest first, seconds):"
  printf '%s\n' "${STAGE_TIMINGS[@]}" | sort -rn | sed 's/^/  /'
}

stage "cargo fmt --check" cargo fmt --all --check
stage "cargo clippy (-D warnings)" cargo clippy --workspace --all-targets -- -D warnings

# Unsafe/panic hygiene: every crate forbids `unsafe`, and the count of
# targeted unwrap/expect allow-exemptions may not grow past the committed
# budget (LINT_BUDGET.txt).
stage "lint budget" ./scripts/lint_budget.sh

if [ "$QUICK" -eq 1 ]; then
  stage "cargo test -q (debug)" cargo test -q
  recap
  echo "CI quick gate green."
  exit 0
fi

stage "cargo build --release" cargo build --release
stage "cargo test -q" cargo test -q
stage "cargo test --workspace -q" cargo test --workspace -q
stage "cargo bench --no-run" cargo bench --no-run

# API docs: a doc link left dangling by a renamed or deleted item fails the
# gate instead of rendering as plain text.
stage "cargo doc (-D warnings)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Static verification smoke: lint + map + re-derive legality from scratch.
# The binary exits non-zero on any Error-severity diagnostic.
stage "himap-verify smoke (gemm)" target/release/himap-verify gemm --size 4
stage "himap-verify smoke (floyd-warshall/spr)" \
  target/release/himap-verify floyd-warshall --size 4 --baseline spr

# Pre-mapping static analysis smoke: certified bounds + A-code diagnostics
# on a feasible request (pretty and JSON), and a crafted infeasible request
# (every memory bank faulted) that must be rejected with exit code 1.
stage "himap-analyze smoke (gemm)" \
  cargo run -q -p himap-analyze --release --bin himap-analyze -- gemm --size 4
stage "himap-analyze smoke (json)" \
  cargo run -q -p himap-analyze --release --bin himap-analyze -- \
    atax --size 4 --json
stage "himap-analyze rejects infeasible" \
  bash -c '! cargo run -q -p himap-analyze --release --bin himap-analyze -- \
    gemm --size 4 --fault-all-mems > /dev/null 2>&1'

# Bound-consistency gate: the analyzer's certified static MII must sit at
# or below the exact oracle's refutation-backed lower bound on every
# certified kernel (and below every achieved II — also asserted inside the
# fault-injection sweep above).
stage "bound consistency vs exact oracle" \
  cargo test --release -q --test static_analysis -- --ignored

# Fault-injection sweep: random fault maps over every suite kernel on 4x4
# and 8x8 fabrics, each raced through HiMap's recovery ladder
# (`HiMapBackend::ladder`), asserting mapped-and-verified / typed error /
# deadline — never a panic. The proptest shim derives each case's RNG from the test
# name and case index, so the sweep replays identically on every machine.
stage "fault-injection sweep" \
  cargo test --release -q --test fault_injection -- --ignored

# Capability-model gates: a kernel needing an op-class no live PE provides
# must be rejected with A010 (exit 1), and a heterogeneous fabric request
# with capable PEs must stay clean (exit 0). `--only-mul-pes 0,0` leaves
# exactly one mul-capable PE; `--kill-pe 0,0` then removes it.
stage "himap-analyze capability A010" \
  bash -c '! cargo run -q -p himap-analyze --release --bin himap-analyze -- \
    gemm --size 4 --only-mul-pes 0,0 --kill-pe 0,0 > /dev/null 2>&1'
stage "himap-analyze heterogeneous clean" \
  bash -c 'cargo run -q -p himap-analyze --release --bin himap-analyze -- \
    gemm --size 4 --only-mul-pes "0,0;0,3;3,0;3,3" --mem-edge-only > /dev/null'

# Consolidated benchmark gate: one manifest (BENCH.json, measured by
# `bench_summary --gate-baseline`), one verdict table. Covers the scaling
# rows (25 % + 2 ms), the portfolio races (double tolerance, kept from
# baselines recorded when losing backends still ran), the fault-model
# overhead row (+2 % + 2 ms on an empty CapabilityMap), the heterogeneity
# rows (stencil2d must map and verify on the corner-multiplier +
# edge-memory 4x4 at the pinned II) and
# the mega-scale rows (gemm + floyd-warshall tile-mapped *and verified* on
# 32x32/64x64, 64x64 wall < 1 s unconditionally, index high-water held to
# one tile). Writes BENCH_verdict.json, uploaded as a CI artifact.
stage "consolidated bench gate" \
  cargo run -q -p himap-bench --release --bin bench_summary -- \
    --gate BENCH.json --tolerance 0.25

# Exact-oracle gate: certify minimal IIs on the tuned 4x4 blocks and print
# the optimality-gap table (EXPERIMENTS.md). The binary exits non-zero when
# fewer than four suite kernels certify; the per-kernel budget time-boxes
# the sweep (~10 s total, 6/8 certified on the committed blocks).
stage "exact oracle sweep (4x4)" \
  cargo run -q -p himap-exact --release --bin exact_oracle -- \
    --size 4 --budget-secs 20

# Heterogeneous oracle gate: re-certify on the capability-restricted 4x4
# and fail if the restricted CNF ever certifies a *lower* II than the
# homogeneous fabric (removing capabilities cannot enlarge the feasible
# set).
stage "exact oracle heterogeneous (4x4)" \
  cargo run -q -p himap-exact --release --bin exact_oracle -- \
    --size 4 --budget-secs 20 --heterogeneous

recap
echo "CI green."
