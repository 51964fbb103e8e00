// Golden cross-strategy regression: every update policy (Minimal-Memory,
// Just-In-Time, Adaptive) crossed with both compression kernels and the
// sequential, parallel LLᵗ and parallel LU runs must solve the same seeded
// Laplacian to tolerance.
// Also pins the memory ordering the policies are designed around (MinMem <=
// Adaptive <= Dense for tracked factor bytes) and the workspace footprint of
// the Minimal-Memory scenario (contributions are tracked tiles; their
// temporary memory must stay far below the factors).

#include <gtest/gtest.h>

#include <algorithm>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

SolverOptions small_problem_options(Strategy strategy, lr::CompressionKind kind,
                                    real_t tol) {
  SolverOptions o;
  o.strategy = strategy;
  o.kind = kind;
  o.tolerance = tol;
  // Small problem: lower the compressibility thresholds so the BLR machinery
  // actually engages.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

std::vector<real_t> seeded_rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

struct CrossConfig {
  Strategy strategy;
  lr::CompressionKind kind;
  int threads;
  Factorization facto;
};

class CrossStrategy : public ::testing::TestWithParam<CrossConfig> {};

TEST_P(CrossStrategy, SeededLaplacianSolvesToTolerance) {
  const CrossConfig cfg = GetParam();
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  const real_t tol = 1e-8;
  SolverOptions opts = small_problem_options(cfg.strategy, cfg.kind, tol);
  opts.threads = cfg.threads;
  opts.factorization = cfg.facto;

  Solver solver(opts);
  solver.factorize(a);
  const auto b = seeded_rhs(a.rows(), 4321);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), tol * 500);

  // The dispatch layer counted the work: a factorization cannot happen
  // without diagonal factorizations, and every strategy here compresses.
  const auto& dispatch = solver.stats().dispatch;
  ASSERT_FALSE(dispatch.empty());
  const auto has = [&](const char* name) {
    return std::any_of(dispatch.begin(), dispatch.end(),
                       [&](const core::DispatchCount& d) {
                         return d.kernel == name && d.calls > 0;
                       });
  };
  EXPECT_TRUE(has(solver.is_llt() ? "potrf[ge]" : "getrf[ge]"));
  EXPECT_TRUE(has("compress[ge]"));
}

std::string cross_name(const ::testing::TestParamInfo<CrossConfig>& info) {
  const CrossConfig& c = info.param;
  std::string s;
  switch (c.strategy) {
    case Strategy::MinimalMemory: s += "MinMem"; break;
    case Strategy::JustInTime: s += "JIT"; break;
    case Strategy::Adaptive: s += "Adaptive"; break;
    case Strategy::Dense: s += "Dense"; break;
  }
  s += c.kind == lr::CompressionKind::Svd ? "_SVD" : "_RRQR";
  s += c.threads <= 1 ? "_Seq" : "_WS";
  // "Dag" keeps the test ID of the former engine axis; it marks LU runs.
  if (c.facto == Factorization::Lu) s += "Dag";
  return s;
}

std::vector<CrossConfig> cross_matrix() {
  std::vector<CrossConfig> v;
  for (const Strategy s :
       {Strategy::MinimalMemory, Strategy::JustInTime, Strategy::Adaptive}) {
    for (const lr::CompressionKind k :
         {lr::CompressionKind::Svd, lr::CompressionKind::Rrqr}) {
      v.push_back({s, k, 1, Factorization::Auto});
      v.push_back({s, k, 4, Factorization::Auto});
      v.push_back({s, k, 4, Factorization::Lu});
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, CrossStrategy,
                         ::testing::ValuesIn(cross_matrix()), cross_name);

/// Factorize sequentially and return (factors peak, workspace peak, stats).
struct MemRun {
  std::size_t factors_peak = 0;
  std::size_t workspace_peak = 0;
  std::size_t dense_entries = 0;
  double dense_fraction = 0;
};

MemRun memory_run(const CscMatrix& a, Strategy strategy) {
  SolverOptions opts =
      small_problem_options(strategy, lr::CompressionKind::Rrqr, 1e-8);
  opts.threads = 1;
  Solver s(opts);
  s.factorize(a);
  MemRun r;
  r.factors_peak = s.stats().factors_peak_bytes;
  r.workspace_peak = MemoryTracker::instance().peak(MemCategory::Workspace);
  r.dense_entries = s.stats().factor_entries_dense;
  r.dense_fraction = s.stats().dense_block_fraction;
  return r;
}

TEST(CrossStrategyMemory, AdaptiveFactorPeakBetweenMinMemAndDense) {
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  const MemRun minmem = memory_run(a, Strategy::MinimalMemory);
  const MemRun adaptive = memory_run(a, Strategy::Adaptive);
  const MemRun dense = memory_run(a, Strategy::Dense);

  // Minimal-Memory never holds the dense panels; Adaptive holds the marginal
  // blocks dense until elimination; Dense holds everything dense.
  EXPECT_LT(minmem.factors_peak, dense.factors_peak);
  EXPECT_LE(minmem.factors_peak, adaptive.factors_peak);
  EXPECT_LE(adaptive.factors_peak, dense.factors_peak);

  // Dense never compresses: every compressible block ends dense.
  EXPECT_EQ(dense.dense_fraction, 1.0);
  // BLR strategies must have compressed something on this problem.
  EXPECT_LT(minmem.dense_fraction, 1.0);
  EXPECT_LT(adaptive.dense_fraction, 1.0);
}

TEST(CrossStrategyMemory, MinMemWorkspaceStaysSmall) {
  // Contributions are Workspace-tracked tiles: a low-rank product allocates
  // only its U/V factors (no dead dense half), so the temporary memory of
  // the Minimal-Memory scenario on a 3D Laplacian must stay far below both
  // the factor peak and the dense factor size.
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  const MemRun r = memory_run(a, Strategy::MinimalMemory);
  ASSERT_GT(r.workspace_peak, 0u);  // contributions are actually tracked
  EXPECT_LT(r.workspace_peak, r.factors_peak);
  EXPECT_LT(r.workspace_peak, r.dense_entries * sizeof(real_t) / 4);
}

} // namespace
