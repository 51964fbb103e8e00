// Golden cross-strategy regression: both compressing update policies
// (Minimal-Memory, Just-In-Time) and Minimal-Memory with fp32-at-rest tiles,
// crossed with both compression kernels and the sequential, parallel LLᵗ and
// parallel LU runs, must solve the same seeded Laplacian to tolerance.
// Also pins the workspace footprint of the Minimal-Memory scenario
// (contributions and accumulators are tracked tiles; their temporary memory
// must stay far below the factors).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

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
  // threads and precision share one int, so the struct keeps the width and
  // bytes that are part of its test IDs.
  int threads : 16;
  TilePrecision precision : 16;
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
  opts.precision = cfg.precision;

  Solver solver(opts);
  solver.factorize(a);
  const auto b = seeded_rhs(a.rows(), 4321);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  // fp32-at-rest factors answer to the larger of τ and fp32 unit roundoff
  // (DESIGN.md §10).
  const real_t unit = cfg.precision == TilePrecision::MixedTiles
                          ? std::numeric_limits<float>::epsilon()
                          : real_t(0);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()),
            500 * std::max(tol, unit));
  if (cfg.precision == TilePrecision::MixedTiles) {
    EXPECT_GT(solver.stats().num_fp32_blocks, 0);
  }

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
    case Strategy::Dense: s += "Dense"; break;
  }
  // "Adaptive" keeps the test IDs of a deleted strategy; it marks the
  // Minimal-Memory runs with fp32-at-rest tiles.
  if (c.precision == TilePrecision::MixedTiles) s = "Adaptive";
  s += c.kind == lr::CompressionKind::Svd ? "_SVD" : "_RRQR";
  s += c.threads <= 1 ? "_Seq" : "_WS";
  // "Dag" keeps the test ID of the former engine axis; it marks LU runs.
  if (c.facto == Factorization::Lu) s += "Dag";
  return s;
}

std::vector<CrossConfig> cross_matrix() {
  std::vector<CrossConfig> v;
  for (const auto& [s, p] :
       {std::pair{Strategy::MinimalMemory, TilePrecision::Fp64},
        std::pair{Strategy::JustInTime, TilePrecision::Fp64},
        std::pair{Strategy::MinimalMemory, TilePrecision::MixedTiles}}) {
    for (const lr::CompressionKind k :
         {lr::CompressionKind::Svd, lr::CompressionKind::Rrqr}) {
      CrossConfig c{s, k, 1, TilePrecision::Fp64, Factorization::Auto};
      c.precision = p;  // a bit-field: brace-initialized only by constants
      v.push_back(c);
      c.threads = 4;
      v.push_back(c);
      c.facto = Factorization::Lu;
      v.push_back(c);
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, CrossStrategy,
                         ::testing::ValuesIn(cross_matrix()), cross_name);

TEST(CrossStrategyMemory, MinMemWorkspaceStaysSmall) {
  // Contributions and accumulators are Workspace-tracked tiles: a low-rank
  // product allocates only its U/V factors (no dead dense half), so the
  // temporary memory of the Minimal-Memory scenario on a 3D Laplacian must
  // stay far below both the factor peak and the dense factor size.
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  SolverOptions opts = small_problem_options(
      Strategy::MinimalMemory, lr::CompressionKind::Rrqr, 1e-8);
  opts.threads = 1;
  Solver s(opts);
  s.factorize(a);
  const std::size_t workspace_peak =
      MemoryTracker::instance().peak(MemCategory::Workspace);
  ASSERT_GT(workspace_peak, 0u);  // contributions are actually tracked
  EXPECT_LT(workspace_peak, s.stats().factors_peak_bytes);
  EXPECT_LT(workspace_peak, s.stats().factor_entries_dense * sizeof(real_t) / 4);
}

} // namespace
