#!/usr/bin/env bash
# CI matrix: a Debug build plus one build per sanitizer (reusing the
# BLR_SANITIZE cache option), each with its own ctest selection, plus
# clang-tidy on the numeric-engine headers.
#
#   scripts/ci.sh              # run every stage
#   scripts/ci.sh debug        # one stage: docs | debug | asan | ubsan | tsan |
#                              #   perfsmoke | isa | tidy
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
# enum class Strategy, and the `kind` row only enumerators of enum class
# CompressionKind. Fails listing the undocumented fields and the stale rows.
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

  check_enum_rows Strategy src/core/options.hpp '^[|] strategy [|] ' \
                  '^[|] `' 1 1 strategy
  echo "ci[docs]: every README strategy row names a Strategy enumerator"
  check_enum_rows CompressionKind src/lowrank/compression.hpp \
                  '^[|] option [|] default [|] meaning [|]' '^[|] `kind` [|]' 2 3 kind
  echo "ci[docs]: the README kind row names only CompressionKind enumerators"

  check_linalg_real_only
  echo "ci[docs]: src/linalg computes in real_t only, one ISA table entry per kernel"

  check_no_backend_switch
  echo "ci[docs]: no runtime kernel-backend switch outside bench/e2e"
}

# The la:: kernels have one engine, its ISA tier picked by CPUID and clamped
# by BLR_NATIVE_ISA (DESIGN.md §14); there is no runtime backend switch to
# select or document. Fails listing each line of src/, tests/, bench/ or
# examples/ that names one. bench/e2e is exempt: it still reports
# SolverStats::backend, a constant.
check_no_backend_switch() {
  if grep -rnE 'BLR_BACKEND|BackendChoice|set_backend|current_backend|BackendVtable|la::Backend\b' \
       src tests bench examples --exclude-dir=e2e; then
    echo "ci[docs]: the lines above name a runtime kernel-backend switch" >&2
    return 1
  fi
}

# The dense kernels compute in real_t only (DESIGN.md §10): fp32 is a
# storage format, converted by la::convert. Fails on any line of src/linalg
# (comments stripped) that names another scalar type — except the fp32
# storage aliases of matrix.hpp —, on a scalar-templated routine outside
# the container header (matrix.hpp) and random.hpp's random_normal (which
# also fills fp32 tiles), on a multi-type instantiation macro, and on a
# type-suffixed member of the per-tier IsaKernels table (one pointer per
# kernel).
check_linalg_real_only() {
  awk '
    { line = $0; sub(/\/\/.*/, "", line); file = FILENAME; sub(/^.*\//, "", file) }
    pending != "" {                           # the line after a scalar template
      if (!(pending_file == "random.hpp" && line ~ /[ \t]random_normal[ \t]*\(/)) {
        printf "ci[docs]: %s: scalar-templated routine in src/linalg: %s\n", pending, $0
        bad = 1
      }
      pending = ""
    }
    file == "matrix.hpp" && line ~ /^using (single_t|S[A-Za-z]*) = / { next }
    line ~ /(^|[^A-Za-z0-9_])(float|single_t|_Float16|__fp16|half)([^A-Za-z0-9_]|$)|long double/ {
      printf "ci[docs]: %s:%d: src/linalg names a non-real_t scalar: %s\n", FILENAME, FNR, $0
      bad = 1
    }
    file != "matrix.hpp" &&
        line ~ /template[ \t]*<[ \t]*(typename|class)[ \t]+T[ \t]*>/ {
      pending = FILENAME ":" FNR
      pending_file = file
    }
    line ~ /BLR_INSTANTIATE_/ {
      printf "ci[docs]: %s:%d: per-type instantiation macro: %s\n", FILENAME, FNR, $0
      bad = 1
    }
    line ~ /^struct IsaKernels/ { in_table = 1; next }
    in_table && line ~ /^};/ { in_table = 0 }
    in_table && line ~ /[A-Za-z0-9]_(f|d|s|f32|f64)([^A-Za-z0-9_]|$)/ {
      printf "ci[docs]: %s:%d: type-suffixed IsaKernels entry: %s\n", FILENAME, FNR, $0
      bad = 1
    }
    END { exit bad }
  ' src/linalg/*.hpp src/linalg/*.cpp src/linalg/*.inc
}

# Fails when a README table row names a value that is not an enumerator of
# <enum> (declared in <header>): the table starts after the line matching
# <table> and ends at the first non-table line; in each row matching <row>,
# every backticked word of cells <first>..<last> must be an enumerator.
check_enum_rows() { # <enum> <header> <table> <row> <first> <last> <what>
  awk -v enum="$1" -v table="$3" -v row="$4" -v first="$5" -v last="$6" \
      -v what="$7" '
    FNR == NR {                               # pass 1: the enumerators
      line = $0
      sub(/\/\/.*/, "", line)                 # drop comments
      if (line ~ ("^enum class " enum "([ \t{]|$)")) {
        in_enum = 1
        if (line !~ /\{/) next
        sub(/^[^{]*\{/, "", line)
      }
      if (!in_enum) next
      if (line ~ /\}/) { in_enum = 0; sub(/\}.*$/, "", line) }
      n = split(line, w, /,/)
      for (i = 1; i <= n; ++i) {
        sub(/=.*/, "", w[i])
        gsub(/[ \t]/, "", w[i])
        if (w[i] != "") enumerator[w[i]] = 1
      }
      next
    }
    $0 ~ table { in_table = 1; next }
    in_table && !/^\|/ { in_table = 0 }
    in_table && $0 ~ row {                    # pass 2: README table rows
      split($0, cell, /\|/)                   # cell[1] is before the first |
      for (c = first + 1; c <= last + 1; ++c) {
        rest = cell[c]
        while (match(rest, /`[^`]*`/)) {
          name = substr(rest, RSTART + 1, RLENGTH - 2)
          rest = substr(rest, RSTART + RLENGTH)
          if (!(name in enumerator)) {
            printf "ci[docs]: README %s row names no %s enumerator: %s\n", what, enum, name
            bad = 1
          }
        }
      }
    }
    END { exit bad }
  ' "$2" README.md
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

# ISA tiers: the full tier-1 suite against the ONE Debug build, clamped to
# the portable tier by BLR_NATIVE_ISA, and to the AVX2 tier when the CPU
# also has AVX-512 (so the clamp actually moves it off its best tier). The
# unclamped run, on the best tier, is the debug stage. Same binary, no
# recompilation (DESIGN.md §14). Reuses the debug build tree when it
# exists.
run_isa() {
  configure_and_build build-ci-debug ""
  local tiers=(portable)
  grep -qw avx512f /proc/cpuinfo 2>/dev/null && tiers+=(avx2)
  local tier
  for tier in "${tiers[@]}"; do
    BLR_NATIVE_ISA="$tier" ctest --test-dir build-ci-debug \
          --output-on-failure -j "$JOBS"
  done
  echo "ci[isa]: full suite green under BLR_NATIVE_ISA=${tiers[*]}"
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

STAGES=(docs debug asan ubsan tsan perfsmoke isa tidy)
if [[ $# -gt 0 ]]; then STAGES=("$@"); fi
for stage in "${STAGES[@]}"; do
  echo "==== ci stage: $stage ===="
  "run_$stage"
done
echo "==== ci: all stages passed ===="
