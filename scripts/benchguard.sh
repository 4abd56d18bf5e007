#!/usr/bin/env bash
# benchguard.sh — guard the simulator hot loops against regressions.
# Two gates run on the SAME machine in the SAME session (absolute ns/op
# from a snapshot file are not comparable across machines: the
# BENCH_*.json snapshots record ~30% swings between otherwise-identical
# container hosts), so the baseline tree is rebuilt from git and timed
# here:
#
#   1. Scalar regression gate: the obs-disabled per-cycle cost
#      (BenchmarkBusCycleSaturated4Masters) of the current tree must stay
#      within TOLERANCE of the baseline tree's.
#   2. Lane gates: the lane-batched replica engine
#      (BenchmarkLaneCycleSaturated4Masters, internal/lanes) must be at
#      least LANES_SPEEDUP x faster per lane-cycle than the current
#      tree's scalar per-cycle cost, and — when the baseline tree already
#      has internal/lanes — must itself stay within TOLERANCE of the
#      baseline lane cost.
#   3. Cache gate (current tree only, no baseline needed): a warm sweep
#      replayed from the result cache (BenchmarkSparseSweepWarm,
#      internal/expt) must be at least CACHE_SPEEDUP x faster than the
#      same sweep simulated cold on the fast-forward engine
#      (BenchmarkSparseSweepFast). Gate 1 separately proves the hot loop
#      itself did not pay for the cache.
#   4. Fabric gates: the event-ordered fabric schedule on a sparse
#      4-segment chain (BenchmarkFabricSparseChain, internal/topology)
#      must be at least 2x faster than the lock-step oracle on the
#      same chain in the same binary
#      (BenchmarkFabricSparseChainLockStep), and — when the baseline
#      tree already has the benchmark — must stay within TOLERANCE of
#      the baseline's.
#   5. Wide-port gates: the fast-forward engine on the cmp64 crossbar's
#      64-master directory port (BenchmarkWidePortFast, internal/bus)
#      must be at least 2x faster per cycle than the naive loop on the
#      same port in the same binary (BenchmarkWidePortNaive), and — when
#      the baseline tree already has the benchmark — must stay within
#      TOLERANCE of the baseline's.
#
#   baseline ref = $LOTTERYBUS_BENCH_BASE, else HEAD when the working
#                  tree is dirty (local use), else merge-base with
#                  origin/main, else HEAD~1 (a push to main)
#   tolerance    = $LOTTERYBUS_BENCH_TOLERANCE (fractional, default 0.02)
#   lane speedup = $LOTTERYBUS_LANES_SPEEDUP (factor, default 2.0)
#   cache speedup= $LOTTERYBUS_CACHE_SPEEDUP (factor, default 5.0)
#
# All test binaries are compiled up front and run in alternating rounds,
# scoring each side by its minimum ns/op: interleaving means
# CPU-frequency drift and noisy neighbours hit both trees equally, and
# the min-of-rounds estimator discards transient stalls. A real
# regression survives every round; noise does not.
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${LOTTERYBUS_BENCH_TOLERANCE:-0.02}"
LANES_SPEEDUP="${LOTTERYBUS_LANES_SPEEDUP:-2.0}"
CACHE_SPEEDUP="${LOTTERYBUS_CACHE_SPEEDUP:-5.0}"
FABRIC_SPEEDUP=2.0
WIDE_SPEEDUP=2.0
ROUNDS="${LOTTERYBUS_BENCH_ROUNDS:-5}"
BENCH='BenchmarkBusCycleSaturated4Masters'
LANE_BENCH='BenchmarkLaneCycleSaturated4Masters'
COLD_BENCH='BenchmarkSparseSweepFast'
WARM_BENCH='BenchmarkSparseSweepWarm'
FABRIC_BENCH='BenchmarkFabricSparseChain'
ORACLE_BENCH='BenchmarkFabricSparseChainLockStep'
WIDE_BENCH='BenchmarkWidePortFast'
WIDE_NAIVE_BENCH='BenchmarkWidePortNaive'

base_ref="${LOTTERYBUS_BENCH_BASE:-}"
if [ -z "$base_ref" ] && ! git diff --quiet HEAD; then
  base_ref=HEAD
fi
if [ -z "$base_ref" ]; then
  base_ref=$(git merge-base origin/main HEAD 2>/dev/null || true)
fi
if [ -z "$base_ref" ] || { [ "$base_ref" != HEAD ] &&
    [ "$(git rev-parse "$base_ref")" = "$(git rev-parse HEAD)" ]; }; then
  base_ref=HEAD~1
fi

worktree=$(mktemp -d)
bindir=$(mktemp -d)
trap 'git worktree remove --force "$worktree" >/dev/null 2>&1 || true
      rm -rf "$worktree" "$bindir"' EXIT
git worktree add --detach "$worktree" "$base_ref" >/dev/null

echo "benchguard: baseline $(git rev-parse --short "$base_ref"), tolerance ${TOLERANCE}, lane speedup >=${LANES_SPEEDUP}x, fabric speedup >=${FABRIC_SPEEDUP}x, wide-port speedup >=${WIDE_SPEEDUP}x, rounds ${ROUNDS}"
(cd "$worktree" && go test -c -o "$bindir/base.test" ./internal/bus/)
go test -c -o "$bindir/cur.test" ./internal/bus/
go test -c -o "$bindir/cur-lanes.test" ./internal/lanes/
go test -c -o "$bindir/cur-expt.test" ./internal/expt/
go test -c -o "$bindir/cur-topo.test" ./internal/topology/
base_has_lanes=0
if [ -d "$worktree/internal/lanes" ]; then
  base_has_lanes=1
  (cd "$worktree" && go test -c -o "$bindir/base-lanes.test" ./internal/lanes/)
fi
base_has_wide=0
if grep -qs "func $WIDE_BENCH(" "$worktree"/internal/bus/*_test.go; then
  base_has_wide=1
fi
base_has_fabric=0
if grep -qs "func $FABRIC_BENCH(" "$worktree"/internal/topology/*_test.go; then
  base_has_fabric=1
  (cd "$worktree" && go test -c -o "$bindir/base-topo.test" ./internal/topology/)
fi

run_once() { # binary, benchmark
  "$bindir/$1.test" -test.run '^$' -test.bench "$2\$" -test.benchtime 1s |
    awk -v b="$2" '$1 ~ b {print $3; exit}'
}

min() { # sample, best-so-far
  awk -v x="$1" -v best="$2" 'BEGIN {print (best == "" || x+0 < best+0) ? x : best}'
}

# Warm-up round for each binary, discarded: the first run of a process
# lands a few percent slow while the CPU ramps up.
run_once base "$BENCH" >/dev/null
run_once cur "$BENCH" >/dev/null
run_once cur-lanes "$LANE_BENCH" >/dev/null
[ "$base_has_lanes" = 1 ] && run_once base-lanes "$LANE_BENCH" >/dev/null
run_once cur-expt "$COLD_BENCH" >/dev/null
run_once cur-topo "$FABRIC_BENCH" >/dev/null
[ "$base_has_fabric" = 1 ] && run_once base-topo "$FABRIC_BENCH" >/dev/null
run_once cur "$WIDE_BENCH" >/dev/null
[ "$base_has_wide" = 1 ] && run_once base "$WIDE_BENCH" >/dev/null

base_best='' cur_best='' lane_best='' base_lane_best='' cold_best='' warm_best=''
fabric_best='' oracle_best='' base_fabric_best=''
wide_best='' wide_naive_best='' base_wide_best=''
for _ in $(seq "$ROUNDS"); do
  b=$(run_once base "$BENCH")
  c=$(run_once cur "$BENCH")
  l=$(run_once cur-lanes "$LANE_BENCH")
  cold=$(run_once cur-expt "$COLD_BENCH")
  warm=$(run_once cur-expt "$WARM_BENCH")
  fab=$(run_once cur-topo "$FABRIC_BENCH")
  orc=$(run_once cur-topo "$ORACLE_BENCH")
  wf=$(run_once cur "$WIDE_BENCH")
  wn=$(run_once cur "$WIDE_NAIVE_BENCH")
  if [ -z "$b" ] || [ -z "$c" ] || [ -z "$l" ] || [ -z "$cold" ] || [ -z "$warm" ] ||
      [ -z "$fab" ] || [ -z "$orc" ] || [ -z "$wf" ] || [ -z "$wn" ]; then
    echo "benchguard: benchmark produced no sample (base='$b' current='$c' lanes='$l' cold='$cold' warm='$warm' fabric='$fab' oracle='$orc' wide='$wf' wide-naive='$wn')" >&2
    exit 1
  fi
  base_best=$(min "$b" "$base_best")
  cur_best=$(min "$c" "$cur_best")
  lane_best=$(min "$l" "$lane_best")
  cold_best=$(min "$cold" "$cold_best")
  warm_best=$(min "$warm" "$warm_best")
  fabric_best=$(min "$fab" "$fabric_best")
  oracle_best=$(min "$orc" "$oracle_best")
  wide_best=$(min "$wf" "$wide_best")
  wide_naive_best=$(min "$wn" "$wide_naive_best")
  if [ "$base_has_wide" = 1 ]; then
    bw=$(run_once base "$WIDE_BENCH")
    [ -n "$bw" ] && base_wide_best=$(min "$bw" "$base_wide_best")
  fi
  if [ "$base_has_fabric" = 1 ]; then
    bf=$(run_once base-topo "$FABRIC_BENCH")
    [ -n "$bf" ] && base_fabric_best=$(min "$bf" "$base_fabric_best")
  fi
  if [ "$base_has_lanes" = 1 ]; then
    bl=$(run_once base-lanes "$LANE_BENCH")
    [ -n "$bl" ] && base_lane_best=$(min "$bl" "$base_lane_best")
  fi
done

fail=0

awk -v cur="$cur_best" -v base="$base_best" -v tol="$TOLERANCE" 'BEGIN {
  limit = base * (1 + tol)
  printf "benchguard: scalar  %.2f ns/op vs baseline %.2f ns/op (limit %.2f, %+.1f%%)\n",
    cur, base, limit, 100 * (cur - base) / base
  exit cur <= limit ? 0 : 1
}' || fail=1

awk -v lane="$lane_best" -v cur="$cur_best" -v need="$LANES_SPEEDUP" 'BEGIN {
  printf "benchguard: lanes   %.2f ns/lane-cycle vs scalar %.2f ns/cycle (%.2fx, need >=%.2fx)\n",
    lane, cur, cur / lane, need
  exit cur / lane >= need ? 0 : 1
}' || fail=1

if [ "$base_has_lanes" = 1 ] && [ -n "$base_lane_best" ]; then
  awk -v cur="$lane_best" -v base="$base_lane_best" -v tol="$TOLERANCE" 'BEGIN {
    limit = base * (1 + tol)
    printf "benchguard: lanes   %.2f ns/lane-cycle vs baseline %.2f ns/lane-cycle (limit %.2f, %+.1f%%)\n",
      cur, base, limit, 100 * (cur - base) / base
    exit cur <= limit ? 0 : 1
  }' || fail=1
fi

awk -v warm="$warm_best" -v cold="$cold_best" -v need="$CACHE_SPEEDUP" 'BEGIN {
  printf "benchguard: cache   %.0f ns/sweep warm vs %.0f ns/sweep cold (%.1fx, need >=%.1fx)\n",
    warm, cold, cold / warm, need
  exit cold / warm >= need ? 0 : 1
}' || fail=1

awk -v ev="$fabric_best" -v ls="$oracle_best" -v need="$FABRIC_SPEEDUP" 'BEGIN {
  printf "benchguard: fabric  %.0f ns/op event-ordered vs %.0f ns/op lock-step (%.2fx, need >=%.2fx)\n",
    ev, ls, ls / ev, need
  exit ls / ev >= need ? 0 : 1
}' || fail=1

if [ "$base_has_fabric" = 1 ] && [ -n "$base_fabric_best" ]; then
  awk -v cur="$fabric_best" -v base="$base_fabric_best" -v tol="$TOLERANCE" 'BEGIN {
    limit = base * (1 + tol)
    printf "benchguard: fabric  %.0f ns/op vs baseline %.0f ns/op (limit %.0f, %+.1f%%)\n",
      cur, base, limit, 100 * (cur - base) / base
    exit cur <= limit ? 0 : 1
  }' || fail=1
fi

awk -v fast="$wide_best" -v naive="$wide_naive_best" -v need="$WIDE_SPEEDUP" 'BEGIN {
  printf "benchguard: wide    %.1f ns/cycle fast vs %.1f ns/cycle naive (%.2fx, need >=%.2fx)\n",
    fast, naive, naive / fast, need
  exit naive / fast >= need ? 0 : 1
}' || fail=1

if [ "$base_has_wide" = 1 ] && [ -n "$base_wide_best" ]; then
  awk -v cur="$wide_best" -v base="$base_wide_best" -v tol="$TOLERANCE" 'BEGIN {
    limit = base * (1 + tol)
    printf "benchguard: wide    %.1f ns/cycle vs baseline %.1f ns/cycle (limit %.1f, %+.1f%%)\n",
      cur, base, limit, 100 * (cur - base) / base
    exit cur <= limit ? 0 : 1
  }' || fail=1
fi

exit "$fail"
