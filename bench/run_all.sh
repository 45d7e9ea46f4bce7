#!/usr/bin/env bash
# Runs the whole bench roster and writes one machine-readable JSON file per
# bench — BENCH_<name>.json — plus a .log with the human-readable table.
# This is the perf-trajectory baseline: run it before and after a change and
# diff the JSON.
#
# Usage:
#   bench/run_all.sh --bin-dir build/bench --out-dir build/bench_results \
#                    [--scale F] [--runs N] [--only substr]
#
# Defaults keep a full sweep to a few minutes; raise --scale toward 1 (the
# benches' own default) or beyond (--scale 100 approaches the paper's 10^9
# packet setting) for publishable numbers. Env vars SCALE/RUNS also work.
set -u

BIN_DIR=.
OUT_DIR=bench_results
SCALE="${SCALE:-0.1}"
RUNS="${RUNS:-2}"
ONLY=""

while [ $# -gt 0 ]; do
  case "$1" in
    --bin-dir) BIN_DIR="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    --scale)   SCALE="$2";   shift 2 ;;
    --runs)    RUNS="$2";    shift 2 ;;
    --only)    ONLY="$2";    shift 2 ;;
    -h|--help) grep '^#' "$0" | tail -n +2 | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "unknown argument: $1 (try --help)" >&2; exit 2 ;;
  esac
done

TABLE_BENCHES="fig2_accuracy fig3_coverage fig4_false_positives
fig5_update_speed fig6_ovs_throughput fig7_dataplane_vsweep
fig8_distributed_vsweep ablation_batch_pipeline
ablation_convergence
ablation_engine_scaling ablation_hierarchy_scaling ablation_latency_tail
ablation_obs_overhead ablation_store_io ablation_trend_depth
ablation_window_scaling"
GBENCH_BENCHES="micro_update"

mkdir -p "$OUT_DIR"
failures=0
ran=0

check_json() {
  # Validate that the bench actually produced parseable JSON.
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$1" >/dev/null || return 1
  fi
  [ -s "$1" ]
}

run_one() {
  local name="$1"; shift
  local out="$OUT_DIR/BENCH_$name.json"
  if [ -n "$ONLY" ] && [ "${name#*"$ONLY"}" = "$name" ]; then
    return 0
  fi
  if [ ! -x "$BIN_DIR/$name" ]; then
    echo "-- skip $name (binary not built)"
    return 0
  fi
  # A leftover file from a previous sweep must not pass check_json when this
  # run's bench fails to write its own.
  rm -f "$out"
  echo "== $name"
  ran=$((ran + 1))
  if "$BIN_DIR/$name" "$@" >"$OUT_DIR/$name.log" 2>&1 && check_json "$out"; then
    echo "   ok: $out"
  else
    echo "   FAILED: see $OUT_DIR/$name.log" >&2
    failures=$((failures + 1))
  fi
}

for b in $GBENCH_BENCHES; do
  run_one "$b" \
    --benchmark_out="$OUT_DIR/BENCH_$b.json" --benchmark_out_format=json \
    --benchmark_min_time=0.05
done

for b in $TABLE_BENCHES; do
  run_one "$b" --scale "$SCALE" --runs "$RUNS" --json "$OUT_DIR/BENCH_$b.json"
done

echo
echo "ran $ran benches, $failures failed; results in $OUT_DIR"
[ "$failures" -eq 0 ]
