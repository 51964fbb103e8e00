// Figure 5: time-to-solution of (a) Just-In-Time/RRQR and (b)
// Minimal-Memory/RRQR relative to the dense PaStiX baseline on the
// six-matrix evaluation set, for tau in {1e-4, 1e-8, 1e-12}, with the
// backward error of the first solution reported for every bar.
// Shapes to reproduce: JIT < 1 for most matrices with the gain growing as
// tau loosens (up to ~3.3x in the paper); MinMem > 1 (average ~1.8x slower).
// Every matrix first runs one discarded Dense factorization (a cold first
// run is several times slower than the rest), then the dense time and each
// ratio take the median of three runs.

#include <algorithm>

#include "bench_common.hpp"

using namespace bench;

namespace {

constexpr int kRuns = 3;

/// The median factorization time of kRuns runs, with the rest of the first
/// run's result (the backward error does not change between runs).
RunResult median_run(const sparse::CscMatrix& a, const SolverOptions& opts) {
  RunResult first;
  std::vector<double> times;
  for (int i = 0; i < kRuns; ++i) {
    const RunResult r = run_solver(a, opts);
    if (i == 0) first = r;
    times.push_back(r.factorization_time);
  }
  std::sort(times.begin(), times.end());
  first.factorization_time = times[kRuns / 2];
  return first;
}

} // namespace

int main() {
  const index_t n = env_index("BLR_BENCH_N", 32);
  print_header("Figure 5 — BLR/dense time ratios, test set at n=" + std::to_string(n));

  const auto set = sparse::paper_test_set(n);
  const real_t tols[3] = {1e-4, 1e-8, 1e-12};

  std::printf("%-12s %10s |", "matrix", "dense(s)");
  for (const real_t tol : tols) std::printf("  JIT t=%.0e  err      |", tol);
  for (const real_t tol : tols) std::printf("  MM  t=%.0e  err      |", tol);
  std::printf("\n");

  for (const auto& tm : set) {
    const SolverOptions dense_opts =
        paper_options(Strategy::Dense, lr::CompressionKind::Rrqr, 1e-8);
    (void)run_solver(tm.matrix, dense_opts);  // warm-up, discarded
    const RunResult dense = median_run(tm.matrix, dense_opts);
    std::printf("%-12s %10.2f |", tm.name.c_str(), dense.factorization_time);

    for (const Strategy strat : {Strategy::JustInTime, Strategy::MinimalMemory}) {
      for (const real_t tol : tols) {
        const RunResult r =
            median_run(tm.matrix, paper_options(strat, lr::CompressionKind::Rrqr, tol));
        std::printf("  %6.2fx %9.1e |", r.factorization_time / dense.factorization_time,
                    static_cast<double>(r.backward_error));
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n(medians of %d runs after a warm-up; ratios < 1: BLR faster than\n"
              " the dense baseline; the backward error of the first solve should\n"
              " track the tolerance)\n", kRuns);
  return 0;
}
