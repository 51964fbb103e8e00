// Amortized re-factorization benchmark (DESIGN.md §15): the JOREK/MUMPS
// "factorization server" shape — one pattern, many numeric passes, many
// solves per pass. Measures
//
//  1. first-step cost (analyze + cold factorize) vs steady-state
//     refactorize() cost over a trajectory of value updates on a fixed
//     stencil, per strategy;
//  2. blocked solve throughput at nrhs in {1, 8, 32, 128} on the final
//     factors, plus the solve plan's slice tasks and parallelism bound.
//
// Results land in bench_refactorize.json, which the ci.sh perfsmoke stage
// feeds into scripts/bench_trajectory.py next to bench_kernels.json.
// `--quick` shrinks the problem and repetitions and enforces structural
// floors only (plan reused and one forward + one backward solve task per
// supernode plus the plan's slice tasks, buffers recycled, warm hints
// replayed — the mechanisms behind "steady-state is cheaper", not
// wall-clock, which would flake on loaded CI machines), exiting nonzero on
// violation.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "blr.hpp"
#include "core/solve_plan.hpp"
#include "core/symbolic_plan.hpp"

namespace {

using namespace blr;

/// Scale every entry and shift the diagonal: a new numeric step on the same
/// pattern, SPD-preserving — the trajectory shape of an implicit
/// time-stepper re-assembling its Jacobian.
sparse::CscMatrix step_values(const sparse::CscMatrix& a, real_t scale,
                              real_t shift) {
  sparse::CscMatrix out = a;
  std::vector<real_t>& v = out.values();
  for (real_t& x : v) x *= scale;
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t p = out.colptr()[static_cast<std::size_t>(j)];
         p < out.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      if (out.rowind()[static_cast<std::size_t>(p)] == j) {
        v[static_cast<std::size_t>(p)] += shift;
      }
    }
  }
  return out;
}

struct TrajectoryRow {
  const char* strategy = "";
  double first_s = 0;       ///< analyze + cold factorize
  double analyze_s = 0;     ///< symbolic share of the first step
  double steady_s = 0;      ///< best refactorize() over the trajectory
  double speedup = 0;       ///< first_s / steady_s
  std::uint64_t warm_attempts = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_grows = 0;
  std::uint64_t dense_skips = 0;
  std::uint64_t buffer_hits = 0;
  std::uint64_t buffer_misses = 0;
};

struct SolveRow {
  index_t nrhs = 0;
  int threads = 1;        ///< solve_threads (1 = sequential drain)
  double seconds = 0;     ///< one blocked solve of nrhs columns
  double rhs_per_s = 0;
};

int run(bool quick) {
  // Full mode is lap 32³ so that the 4-thread solves run sliced forward
  // pulls: at split 64/32 its solve plan has 74 Slice tasks, where 20³ and
  // 24³ have none and 28³ has 4.
  const index_t g = quick ? 10 : 32;
  const int steps = quick ? 4 : 8;
  const sparse::CscMatrix a0 = sparse::laplacian_3d(g, g, g);
  const index_t n = a0.rows();

  SolverOptions base;
  base.kind = lr::CompressionKind::Rrqr;
  base.tolerance = 1e-8;
  base.split.split_threshold = 64;
  base.split.split_size = 32;
  base.compress_min_width = 16;
  base.compress_min_height = 8;

  int failures = 0;
  const auto require = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench_refactorize: FLOOR VIOLATED: %s\n", what);
      ++failures;
    }
  };

  std::vector<TrajectoryRow> rows;
  for (const Strategy strategy :
       {Strategy::JustInTime, Strategy::MinimalMemory}) {
    SolverOptions opts = base;
    opts.strategy = strategy;
    core::Solver solver(opts);

    TrajectoryRow row;
    row.strategy = core::strategy_name(strategy);

    Timer first;
    solver.factorize(a0);
    row.first_s = first.elapsed();
    row.analyze_s = solver.stats().time_analyze;
    const auto plan = solver.plan();

    row.steady_s = 1e300;
    for (int s = 1; s <= steps; ++s) {
      const sparse::CscMatrix as =
          step_values(a0, real_t(1) + real_t(0.05) * static_cast<real_t>(s),
                      real_t(0.1) * static_cast<real_t>(s));
      Timer t;
      solver.refactorize(as);
      const double sec = t.elapsed();
      if (s > 1) row.steady_s = std::min(row.steady_s, sec);
    }
    const core::SolverStats& st = solver.stats();
    row.speedup = row.first_s / row.steady_s;
    row.warm_attempts = st.warm.attempts;
    row.warm_hits = st.warm.hits;
    row.warm_grows = st.warm.grows;
    row.dense_skips = st.warm.dense_skips;
    row.buffer_hits = st.buffer_hits;
    row.buffer_misses = st.buffer_misses;

    // Structural floors: the three reuse mechanisms actually engaged.
    require(solver.plan().get() == plan.get(), "symbolic plan was rebuilt");
    require(st.refactorizations == static_cast<std::uint64_t>(steps),
            "refactorize() fell back to a cold pass");
    require(st.buffer_hits > 0, "no pooled buffer was reused");
    require(st.warm.attempts + st.warm.dense_skips > 0,
            "no compression consumed a replayed rank hint");
    rows.push_back(row);
  }

  // Solve throughput: one blocked multi-RHS solve per (width, solve-thread
  // count) on JustInTime factors (the solve path is strategy-independent
  // once the factors exist). The warmed pass after a refactorize also pins
  // the solve-plan replay floor.
  std::vector<SolveRow> solves;
  std::uint32_t slice_tasks = 0;
  double parallelism_bound = 0;
  for (const int threads : {1, 4}) {
    SolverOptions opts = base;
    opts.strategy = Strategy::JustInTime;
    opts.solve_threads = threads;
    core::Solver solver(opts);
    solver.factorize(a0);
    // One value step so the steady-state (plan-replaying) solve is measured.
    solver.refactorize(step_values(a0, real_t(1.05), real_t(0.1)));
    Prng rng(1234);
    for (const index_t nrhs : {index_t{1}, index_t{8}, index_t{32},
                               index_t{128}}) {
      la::DMatrix b(n, nrhs), x(n, nrhs);
      la::random_normal(b.view(), rng);
      const int reps = quick ? 2 : 5;
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        Timer t;
        solver.solve(b.cview(), x.view());
        best = std::min(best, t.elapsed());
      }
      SolveRow sr;
      sr.nrhs = nrhs;
      sr.threads = threads;
      sr.seconds = best;
      sr.rhs_per_s = static_cast<double>(nrhs) / best;
      solves.push_back(sr);
    }
    // Structural floors: the cached solve schedule served every pass, has
    // one forward and one backward task per supernode plus its Slice
    // tasks, and the parallel configuration actually drained it over the
    // solve pool.
    const core::SolvePhaseStats& sp = solver.stats().solve_phase;
    const core::SolvePlan& splan = *solver.plan()->solve_plan();
    require(sp.plan_builds == 1 && sp.plan_reuses >= 1,
            "solve plan was rebuilt instead of reused across refactorize");
    require(splan.num_tasks() ==
                2 * static_cast<std::uint32_t>(solver.symbolic().num_cblks()) +
                    splan.num_slice_tasks(),
            "solve plan is not one forward + one backward task per supernode "
            "plus its slice tasks");
    slice_tasks = splan.num_slice_tasks();
    parallelism_bound = splan.parallelism_bound();
    if (threads > 1) {
      require(sp.parallel_solves > 0, "parallel solve path never engaged");
    }
  }

  // fp32 widen-cache floor: MixedTiles factors promote their low-rank
  // factors to fp64 once per epoch and hit that cache on every solve.
  {
    SolverOptions opts = base;
    opts.strategy = Strategy::MinimalMemory;
    opts.precision = TilePrecision::MixedTiles;
    core::Solver solver(opts);
    solver.factorize(a0);
    Prng rng(99);
    la::DMatrix b(n, 4), x(n, 4);
    la::random_normal(b.view(), rng);
    solver.solve(b.cview(), x.view());
    solver.solve(b.cview(), x.view());
    const core::SolvePhaseStats& sp = solver.stats().solve_phase;
    require(solver.stats().num_fp32_blocks > 0,
            "MixedTiles produced no fp32 blocks to widen");
    require(sp.widen_bytes > 0 && sp.widen_hits > 0,
            "fp32 widen cache never engaged");
  }
  std::FILE* out = std::fopen("bench_refactorize.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_refactorize: cannot write report\n");
    return failures + 1;
  }
  std::fprintf(out, "{\n  \"n\": %lld,\n  \"steps\": %d,\n",
               static_cast<long long>(n), steps);
  std::fprintf(out, "  \"refactorize\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrajectoryRow& r = rows[i];
    std::fprintf(out,
                 "    {\"strategy\": \"%s\", \"first_s\": %.6e, "
                 "\"analyze_s\": %.6e, \"steady_s\": %.6e, "
                 "\"speedup\": %.3f, \"warm_attempts\": %llu, "
                 "\"warm_hits\": %llu, \"warm_grows\": %llu, "
                 "\"dense_skips\": %llu, \"buffer_hits\": %llu, "
                 "\"buffer_misses\": %llu}%s\n",
                 r.strategy, r.first_s, r.analyze_s, r.steady_s, r.speedup,
                 static_cast<unsigned long long>(r.warm_attempts),
                 static_cast<unsigned long long>(r.warm_hits),
                 static_cast<unsigned long long>(r.warm_grows),
                 static_cast<unsigned long long>(r.dense_skips),
                 static_cast<unsigned long long>(r.buffer_hits),
                 static_cast<unsigned long long>(r.buffer_misses),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"solve_throughput\": [\n");
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const SolveRow& sr = solves[i];
    std::fprintf(out,
                 "    {\"nrhs\": %lld, \"threads\": %d, \"seconds\": %.6e, "
                 "\"rhs_per_s\": %.1f}%s\n",
                 static_cast<long long>(sr.nrhs), sr.threads, sr.seconds,
                 sr.rhs_per_s, i + 1 < solves.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"solve_plan\": {\"slice_tasks\": %u, "
               "\"parallelism_bound\": %.3f}\n}\n",
               slice_tasks, parallelism_bound);
  std::fclose(out);
  std::printf("wrote bench_refactorize.json\n");

  for (const TrajectoryRow& r : rows) {
    std::printf("%-14s first %.3f ms  steady %.3f ms  speedup %.2fx  "
                "(warm %llu hits / %llu grows / %llu dense-skips, "
                "pool %llu hits)\n",
                r.strategy, r.first_s * 1e3, r.steady_s * 1e3, r.speedup,
                static_cast<unsigned long long>(r.warm_hits),
                static_cast<unsigned long long>(r.warm_grows),
                static_cast<unsigned long long>(r.dense_skips),
                static_cast<unsigned long long>(r.buffer_hits));
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return run(quick) > 0 ? 1 : 0;
}
