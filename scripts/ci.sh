#!/usr/bin/env bash
# CI matrix: a Debug build plus one build per sanitizer (reusing the
# BLR_SANITIZE cache option), each with its own ctest selection, plus
# clang-tidy on the numeric-engine headers.
#
#   scripts/ci.sh              # run every stage
#   scripts/ci.sh debug        # one stage: docs | debug | asan | ubsan | tsan |
#                              #   perfsmoke | backends | tidy
#
# Build trees go to build-ci-<stage>. The Debug stage exports
# compile_commands.json and links it at the repo root for tooling.
set -euo pipefail
cd "$(dirname "$0")/.."

GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)
JOBS="$(nproc)"

# stage name -> BLR_SANITIZE value and ctest selection. Sanitized builds run
# label subsets: ASan/UBSan take the whole suite (including the `resource`
# label, whose soft-failure paths are exactly where leaks would hide); TSan
# (the slowest) takes the concurrency-sensitive suites — the engine + fault +
# dag + resource + session + solve labels (sessions coalesce solves across
# threads and race refactorize against them; the solve label drains the
# parallel solve DAG and races direct solves on the engine lock) and the
# scheduler/determinism tests written for it, the analysis tests among them
# (nested dissection forks its halves over the factorization pool).
configure_and_build() { # <dir> <sanitize> [extra cmake args...]
  local dir="$1" sanitize="$2"
  shift 2
  cmake -B "$dir" -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Debug \
        -DBLR_SANITIZE="$sanitize" "$@"
  cmake --build "$dir" -j "$JOBS"
}

run_debug() {
  configure_and_build build-ci-debug "" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  ln -sf build-ci-debug/compile_commands.json compile_commands.json
  ctest --test-dir build-ci-debug --output-on-failure -j "$JOBS"
}

run_asan() {
  configure_and_build build-ci-asan address
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS"
  # Focused re-run of the solve label: the widen cache and the permutation
  # scratch pool are exactly the lazily-built, cross-solve-reused allocations
  # where leaks and use-after-invalidation would hide.
  ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" -L solve
}

run_ubsan() {
  configure_and_build build-ci-ubsan undefined
  ctest --test-dir build-ci-ubsan --output-on-failure -j "$JOBS"
}

# Fails listing every |-separated term of a ctest -R filter that matches no
# test in <dir>: a renamed suite would otherwise drop out of the selection
# without a sound.
require_matches() { # <dir> <filter>
  local dir="$1" term bad=0
  local IFS='|'
  for term in $2; do
    if ! ctest --test-dir "$dir" -N -R "$term" | grep -q '^Total Tests: [1-9]'; then
      echo "ci: -R term '$term' matches no test in $dir" >&2
      bad=1
    fi
  done
  return "$bad"
}

run_tsan() {
  local filter='SchedulerSweep|WorkStealing|ParallelDeterminism|ExactlyOnce|AnalysisDeterminism|TreeModelMatchesRebuild'
  configure_and_build build-ci-tsan thread
  require_matches build-ci-tsan "$filter"
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
        -L 'engine|fault|dag|resource|session|solve'
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" -R "$filter"
}

# Documentation lint: every SolverOptions field must carry a doc comment —
# either a /// block on the preceding line(s) or a trailing ///< — and every
# row of the README options table must name a field that struct
# SolverOptions declares (dotted rows such as `recovery.enabled` match on
# their leading field), so the table cannot silently drift from the header.
# Likewise every row of the README strategy table must name an enumerator of
# enum class Strategy. Fails listing the undocumented fields and the stale
# rows.
run_docs() {
  awk '
    /^struct SolverOptions/ { in_struct = 1; next }
    !in_struct              { next }
    /^};/                   { exit bad }
    {
      line = $0
      sub(/^[ \t]+/, "", line)
    }
    line ~ /^\/\/\// { prev_doc = 1; next }   # /// doc line: blesses the next field
    line ~ /^\/\//   { prev_doc = 0; next }   # plain // comment does not
    line == ""       { next }
    line ~ /;[ \t]*(\/\/.*)?$/ {              # a member declaration
      if (line ~ /\/\/\/</ || prev_doc) { prev_doc = 0; next }
      printf "ci[docs]: undocumented SolverOptions field: %s\n", line
      bad = 1
      next
    }
    { prev_doc = 0 }
    END { exit bad }
  ' src/core/options.hpp
  echo "ci[docs]: every SolverOptions field is documented"

  awk '
    FNR == NR {                               # pass 1: options.hpp field names
      if ($0 ~ /^struct SolverOptions/) { in_struct = 1; next }
      if (!in_struct) next
      if ($0 ~ /^};/) { in_struct = 0; next }
      line = $0
      sub(/\/\/.*/, "", line)                 # drop comments
      if (line !~ /;/) next
      sub(/[ \t]*(=[^;]*)?;.*$/, "", line)     # drop initializer and `;`
      n = split(line, w, /[ \t]+/)
      field[w[n]] = 1
      next
    }
    /^\| option \| default \| meaning \|/ { in_table = 1; next }
    in_table && !/^\|/ { in_table = 0 }
    in_table && /^\| `/ {                     # pass 2: README table rows
      name = $0
      sub(/^\| `/, "", name)
      sub(/`.*/, "", name)
      sub(/\..*/, "", name)
      if (!(name in field)) {
        printf "ci[docs]: README options row names no SolverOptions field: %s\n", name
        bad = 1
      }
    }
    END { exit bad }
  ' src/core/options.hpp README.md
  echo "ci[docs]: every README options row names a SolverOptions field"

  awk '
    FNR == NR {                               # pass 1: Strategy enumerators
      if ($0 ~ /^enum class Strategy/) { in_enum = 1; next }
      if (!in_enum) next
      if ($0 ~ /^};/) { in_enum = 0; next }
      line = $0
      sub(/\/\/.*/, "", line)                 # drop comments
      gsub(/[ \t,]/, "", line)
      sub(/=.*/, "", line)
      if (line != "") enumerator[line] = 1
      next
    }
    /^\| strategy \| / { in_table = 1; next }
    in_table && !/^\|/ { in_table = 0 }
    in_table && /^\| `/ {                     # pass 2: README table rows
      name = $0
      sub(/^\| `/, "", name)
      sub(/`.*/, "", name)
      if (!(name in enumerator)) {
        printf "ci[docs]: README strategy row names no Strategy enumerator: %s\n", name
        bad = 1
      }
    }
    END { exit bad }
  ' src/core/options.hpp README.md
  echo "ci[docs]: every README strategy row names a Strategy enumerator"
}

# Performance smoke: Release builds of bench_kernels and bench_refactorize
# run in --quick mode. Each bench enforces its own floor — packed gemm must
# not be >10% slower than the old loop nests at n=k=256, and the
# re-factorization trajectory must actually reuse the plan/buffers/rank
# hints — and exits nonzero otherwise. The JSON reports are copied over the
# committed BENCH_*.json so the last green perfsmoke numbers travel with the
# tree, and both are summarized into one entry of the rolling
# BENCH_trajectory.json so drift across commits stays visible.
run_perfsmoke() {
  cmake -B build-ci-perfsmoke -S . "${GENERATOR[@]}" \
        -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci-perfsmoke -j "$JOBS" \
        --target bench_kernels --target bench_refactorize
  (cd build-ci-perfsmoke && ./bench/bench_kernels --quick)
  (cd build-ci-perfsmoke && ./bench/bench_refactorize --quick)
  cp build-ci-perfsmoke/bench_kernels.json BENCH_kernels.json
  cp build-ci-perfsmoke/bench_refactorize.json BENCH_refactorize.json
  python3 scripts/bench_trajectory.py BENCH_kernels.json BENCH_refactorize.json
  echo "ci[perfsmoke]: packed gemm and refactorize reuse within bounds"
}

# Backend A/B: the full tier-1 suite twice against ONE Debug build — once
# forced onto the Reference loop nests, once onto the Native packed engine —
# via the BLR_BACKEND environment override, proving the runtime-dispatch
# contract (same binary, no recompilation; DESIGN.md §14). Reuses the debug
# build tree when it exists. On non-x86 hosts Native still runs (the
# portable packed tier is always compiled in), so no skip is needed; the
# SIMD tiers just aren't built there.
run_backends() {
  configure_and_build build-ci-debug ""
  BLR_BACKEND=reference ctest --test-dir build-ci-debug \
        --output-on-failure -j "$JOBS"
  BLR_BACKEND=native ctest --test-dir build-ci-debug \
        --output-on-failure -j "$JOBS"
  echo "ci[backends]: full suite green under BLR_BACKEND=reference and =native"
}

# clang-tidy over the headers introduced by the tile-centric engine. Fails
# on any warning; skipped (not failed) when clang-tidy is not installed.
run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "ci: clang-tidy not found, skipping the tidy stage"
    return 0
  fi
  clang-tidy --warnings-as-errors='*' \
      src/lowrank/tile.hpp src/core/kernels_dispatch.hpp \
      src/core/update_policy.hpp \
      -- -std=c++20 -x c++ -Isrc
}

STAGES=(docs debug asan ubsan tsan perfsmoke backends tidy)
if [[ $# -gt 0 ]]; then STAGES=("$@"); fi
for stage in "${STAGES[@]}"; do
  echo "==== ci stage: $stage ===="
  "run_$stage"
done
echo "==== ci: all stages passed ===="
