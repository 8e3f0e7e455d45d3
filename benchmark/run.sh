#!/usr/bin/env bash
# The repo's benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N]
#
# Builds the benchmark package once, then runs each workload in its own
# process (so peak_rss_mb is attributable) and prints every metric as
# `name value unit`; the last line of each workload's output is the JSON
# object the gate reads. Without --workload all four workloads run.
# `--trace` (or `--trace 1`) runs the traced variant, which prints the
# per-layer metrics and writes benchmark/out/trace-<workload>.json.
# `--repeat 2` runs two full untraced sets, prints each gated metric's
# relative difference against its bound in BENCHMARK.json, and exits
# non-zero if any difference exceeds its bound.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=(mnist-serve mnist-segmented zoo-compile submit-storm)
SEED=1
SECONDS_ARG=15
TRACE=0
REPEAT=1
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOADS=("$2"); shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    --seconds) SECONDS_ARG="$2"; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then TRACE="$2"; shift 2; else TRACE=1; shift; fi ;;
    --repeat) REPEAT="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# The build goes where the gate's driver points it; by default beside it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BIN="$CARGO_TARGET_DIR/release/zkml-benchmark"

# The load is sized for the host: the prover pool gets every core.
export ZKML_THREADS="${ZKML_THREADS:-$(nproc)}"
ZKML_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export ZKML_BENCH_COMMIT

run_set() { # $1 = file collecting "<workload> <result json>" lines, or empty
  local w out
  for w in "${WORKLOADS[@]}"; do
    out="$("$BIN" --workload "$w" --seed "$SEED" --seconds "$SECONDS_ARG" --trace "$TRACE")"
    printf '%s\n' "$out"
    if [ -n "$1" ]; then printf '%s %s\n' "$w" "$(printf '%s\n' "$out" | tail -n 1)" >>"$1"; fi
  done
}

if [ "$REPEAT" -le 1 ]; then
  run_set ""
  exit 0
fi

mkdir -p benchmark/out
SETS=()
for i in $(seq 1 "$REPEAT"); do
  SET="benchmark/out/set-$$-$i.txt"
  : >"$SET"
  echo "# set $i of $REPEAT"
  run_set "$SET"
  SETS+=("$SET")
done
STATUS=0
for i in $(seq 1 $((REPEAT - 1))); do
  echo "# set $((i + 1)) against set 1"
  "$BIN" --compare "${SETS[0]}" "${SETS[$i]}" || STATUS=1
done
rm -f "${SETS[@]}"
exit "$STATUS"
