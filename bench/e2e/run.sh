#!/usr/bin/env bash
# End-to-end benchmark of the BLR supernodal solver (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed S] [--seconds T]
#       Every workload with tracing off: prints each end-to-end metric with
#       its unit, sample count and median, writes build-e2e/bench_e2e.json.
#   bench/e2e/run.sh --trace [--seed S] [--seconds T]
#       The same, then a traced pass: per-layer metrics, written with the
#       tracing overhead to build-e2e/bench_e2e.layers.json, and the spans to
#       build-e2e/bench_e2e.trace.json (Chrome trace-event JSON).
#   bench/e2e/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
#       One workload in one process; the last line of stdout is its JSON
#       result {"correct", "attempted", "failed", "metrics"}.
#   bench/e2e/run.sh --repeat N [--seed S] [--seconds T]
#       N untraced passes (seeds S, S+1, ...); fails, listing the offenders,
#       when an end-to-end median moves by more than its bound.
#   bench/e2e/run.sh --smoke
#       Every workload at 12^3 with 2 samples, traced and untraced; checks
#       the answers and validates both JSON outputs against BENCHMARK.json.
#
# --seconds T is the measured time per workload. Without it bench_e2e uses
# its own default, the run_seconds of BENCHMARK.json.
#
# Every mode first configures the repository's top-level project in Release
# into build-e2e/ at the repository root, with bench_e2e added through
# targets.cmake, and builds bench_e2e.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
bin="$build/bench_e2e"

workload=""
seed=1
seconds=()
trace=""
repeat=0
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds=(--seconds "${2:?--seconds needs a value}"); shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --repeat) repeat="${2:?--repeat needs a value}"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
case "$seed" in ''|*[!0-9]*) echo "run.sh: --seed takes a non-negative integer" >&2; exit 2 ;; esac
case "$repeat" in ''|*[!0-9]*) echo "run.sh: --repeat takes a count" >&2; exit 2 ;; esac

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -f "$root/src/blr.hpp" ]; then
  echo "run.sh: the solver sources (CMakeLists.txt, src/) are not under $root" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_PROJECT_INCLUDE="$here/targets.cmake" \
    -DBLR_BUILD_TESTS=OFF -DBLR_BUILD_BENCH=OFF -DBLR_BUILD_EXAMPLES=OFF >&2
fi
cmake --build "$build" -j "$jobs" --target bench_e2e >&2

py() { python3 -B "$here/$1" "${@:2}"; }

if [ -n "$workload" ]; then
  mkdir -p "$build/results"
  extra=()
  [ "$smoke" = 1 ] && extra+=(--smoke)
  exec "$bin" --workload "$workload" --seed "$seed" "${seconds[@]}" \
    --trace "${trace:-0}" --out-dir "$build/results" "${extra[@]}"
fi

mapfile -t workloads < <("$bin" --list)

# pass DIR SEED TRACE [EXTRA...]: run every workload into DIR. Returns 1 when
# a workload failed to run or reported a wrong answer.
pass() {
  local dir="$1" s="$2" t="$3" status=0 w line
  shift 3
  mkdir -p "$dir"
  for w in "${workloads[@]}"; do
    if ! "$bin" --workload "$w" --seed "$s" "${seconds[@]}" --trace "$t" \
        --out-dir "$dir" "$@" > "$dir/$w.trace$t.out"; then
      echo "run.sh: $w did not run" >&2
      status=1
      continue
    fi
    grep -v '^{' "$dir/$w.trace$t.out" || true
    line="$(tail -n 1 "$dir/$w.trace$t.out")"
    case "$line" in
      '{"correct": true,'*) ;;
      *) echo "run.sh: $w reported failed operations: ${line%%, \"metrics\"*}}" >&2; status=1 ;;
    esac
  done
  return "$status"
}

if [ "$smoke" = 1 ]; then
  rm -rf "$build/smoke"
  status=0
  pass "$build/smoke" "$seed" 0 --smoke || status=1
  pass "$build/smoke" "$seed" 1 --smoke || status=1
  py results.py validate "$root/BENCHMARK.json" "$build/smoke" || status=1
  [ "$status" = 0 ] && echo "run.sh: smoke OK"
  exit "$status"
fi

if [ "$repeat" -gt 0 ]; then
  status=0
  files=()
  for i in $(seq 1 "$repeat"); do
    rm -rf "$build/repeat-$i"
    pass "$build/repeat-$i" $((seed + i - 1)) 0 || status=1
    py results.py merge "$build/bench_e2e.repeat-$i.json" "$build/repeat-$i"
    files+=("$build/bench_e2e.repeat-$i.json")
  done
  py compare.py repeat "${files[@]}" || status=1
  exit "$status"
fi

status=0
rm -rf "$build/results"
pass "$build/results" "$seed" 0 || status=1
py results.py merge "$build/bench_e2e.json" "$build/results"
echo "run.sh: wrote $build/bench_e2e.json"
if [ "$trace" = 1 ]; then
  pass "$build/results" "$seed" 1 || status=1
  py results.py merge-trace "$build" "$build/results"
  echo "run.sh: wrote $build/bench_e2e.layers.json and $build/bench_e2e.trace.json"
fi
exit "$status"
