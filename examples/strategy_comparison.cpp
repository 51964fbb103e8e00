// Example: side-by-side comparison of the update strategies on one problem —
// a compact, runnable version of the paper's central comparison (time vs
// memory vs accuracy for Dense, Just-In-Time and Minimal-Memory).

#include <cstdio>

#include "blr.hpp"

using namespace blr;

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? std::atoll(argv[1]) : 24;
  const real_t tol = argc > 2 ? std::atof(argv[2]) : 1e-8;
  const auto a = sparse::heterogeneous_poisson_3d(n, n, n, 3.0, 42);
  std::printf("heterogeneous Poisson %lld^3 (%lld dofs), tau = %.0e\n\n",
              static_cast<long long>(n), static_cast<long long>(a.rows()), tol);
  std::printf("%-16s %9s %12s %12s %10s %8s\n", "strategy", "facto(s)",
              "factors(MB)", "peak(MB)", "bwd err", "#LR");

  for (const Strategy strat :
       {Strategy::Dense, Strategy::JustInTime, Strategy::MinimalMemory}) {
    SolverOptions opts;
    opts.strategy = strat;
    opts.kind = lr::CompressionKind::Rrqr;
    opts.tolerance = tol;
    opts.threads = 2;
    // Demo-scale problems: shrink the compressibility/split thresholds in
    // proportion (paper defaults target ~1e6-unknown matrices).
    opts.compress_min_width = 32;
    opts.compress_min_height = 16;
    opts.split.split_threshold = 128;
    opts.split.split_size = 64;
    Solver solver(opts);
    Timer t;
    solver.factorize(a);
    const double facto = t.elapsed();

    std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
    std::vector<real_t> x = solver.solve(b);
    std::printf("%-16s %9.2f %12.1f %12.1f %10.1e %8lld\n",
                core::strategy_name(strat), facto,
                static_cast<double>(solver.stats().factor_entries_final) * 8 / 1e6,
                static_cast<double>(solver.stats().factors_peak_bytes) / 1e6,
                static_cast<double>(sparse::backward_error(a, x.data(), b.data())),
                static_cast<long long>(solver.stats().num_lowrank_blocks));
  }
  std::printf("\nDense is exact; Just-In-Time trades accuracy for speed; Minimal-\n"
              "Memory additionally keeps the peak below the dense footprint.\n");
  return 0;
}
