// Mixed-precision tile storage (DESIGN.md §10): fp32 at-rest low-rank
// factors under TilePrecision::MixedTiles.
//
// Pins three contracts:
//  (a) golden accuracy — across the cross-strategy matrix (3 strategies x
//      SVD/RRQR x sequential/work-stealing) the backward error stays within
//      C·max(tau, eps_fp32·kappa): storing already-tau-truncated factors in
//      fp32 adds rounding of the same order as the truncation itself;
//  (b) Fp64 mode is bit-identical to the pre-change sequential solver — no
//      fp32 kernel ever runs, byte totals equal entries x sizeof(double),
//      and repeated runs produce bitwise-equal solutions;
//  (c) memory — MixedTiles stores strictly fewer Factors bytes than Fp64 on
//      the Laplacian generator, and promotion-conversion scratch is charged
//      to Workspace, never to the Factors category (the byte-attribution
//      bugfix regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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

bool any_fp32_kernel(const std::vector<core::DispatchCount>& dispatch) {
  return std::any_of(dispatch.begin(), dispatch.end(),
                     [](const core::DispatchCount& d) {
                       return d.kernel.find("32") != std::string::npos &&
                              d.calls > 0;
                     });
}

// ---- (a) golden accuracy across the cross-strategy matrix ----------------

struct MixedConfig {
  Strategy strategy;
  lr::CompressionKind kind;
  // threads and facto share one int, so the struct keeps the width and
  // bytes that are part of its test IDs.
  int threads : 16;
  Factorization facto : 16;
};

class MixedPrecisionCross : public ::testing::TestWithParam<MixedConfig> {};

TEST_P(MixedPrecisionCross, BackwardErrorWithinPrecisionModelBound) {
  const MixedConfig cfg = GetParam();
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  const real_t tol = 1e-8;
  SolverOptions opts = small_problem_options(cfg.strategy, cfg.kind, tol);
  opts.threads = cfg.threads;
  opts.factorization = cfg.facto;
  opts.precision = TilePrecision::MixedTiles;

  Solver solver(opts);
  solver.factorize(a);

  // The mode must actually engage: demoted blocks and fp32 kernel rows.
  EXPECT_GT(solver.stats().num_fp32_blocks, 0);
  EXPECT_TRUE(any_fp32_kernel(solver.stats().dispatch));

  const auto b = seeded_rhs(a.rows(), 4321);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());

  // DESIGN.md §10 bound: the direct-solve backward error is governed by the
  // larger of the compression tolerance and fp32 unit roundoff, times a
  // modest growth constant C that absorbs the Laplacian's local conditioning.
  const real_t eps32 = std::numeric_limits<float>::epsilon();
  const real_t bound = 500 * std::max(tol, eps32);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), bound);
}

std::string mixed_name(const ::testing::TestParamInfo<MixedConfig>& info) {
  const MixedConfig& c = info.param;
  std::string s;
  switch (c.strategy) {
    case Strategy::MinimalMemory: s += "MinMem"; break;
    case Strategy::JustInTime: s += "JIT"; break;
    case Strategy::Dense: s += "Dense"; break;
  }
  // "Adaptive" keeps the test IDs of a deleted strategy; it marks the
  // Minimal-Memory LU runs.
  if (c.facto == Factorization::Lu) s = "Adaptive";
  s += c.kind == lr::CompressionKind::Svd ? "_SVD" : "_RRQR";
  s += c.threads <= 1 ? "_Seq" : "_WS";
  return s;
}

std::vector<MixedConfig> mixed_matrix() {
  std::vector<MixedConfig> v;
  for (const auto& [s, f] :
       {std::pair{Strategy::MinimalMemory, Factorization::Auto},
        std::pair{Strategy::JustInTime, Factorization::Auto},
        std::pair{Strategy::MinimalMemory, Factorization::Lu}}) {
    for (const lr::CompressionKind k :
         {lr::CompressionKind::Svd, lr::CompressionKind::Rrqr}) {
      MixedConfig c{s, k, 1, Factorization::Auto};
      c.facto = f;  // a bit-field: brace-initialized only by constants
      v.push_back(c);
      c.threads = 4;
      v.push_back(c);
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MixedPrecisionCross,
                         ::testing::ValuesIn(mixed_matrix()), mixed_name);

// ---- (b) Fp64 mode stays bit-identical -----------------------------------

TEST(MixedPrecisionFp64Mode, SequentialRunsAreBitIdenticalAndNeverTouchFp32) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  const auto b = seeded_rhs(a.rows(), 777);

  const auto run = [&](std::vector<real_t>& x) {
    SolverOptions opts = small_problem_options(Strategy::MinimalMemory,
                                               lr::CompressionKind::Rrqr, 1e-8);
    opts.threads = 1;
    ASSERT_EQ(opts.precision, TilePrecision::Fp64);  // the default
    Solver solver(opts);
    solver.factorize(a);
    // Fp64 mode routes exclusively through the pre-change fp64 kernel table:
    // no block demotes and no fp32 dispatch row fires.
    EXPECT_EQ(solver.stats().num_fp32_blocks, 0);
    EXPECT_FALSE(any_fp32_kernel(solver.stats().dispatch));
    // Every stored entry is a double, so the precision-aware byte count
    // collapses to the entry count.
    EXPECT_EQ(solver.stats().factor_bytes_final,
              solver.stats().factor_entries_final * sizeof(real_t));
    x.assign(b.size(), 0);
    solver.solve(b.data(), x.data());
  };

  std::vector<real_t> x1, x2;
  run(x1);
  run(x2);
  ASSERT_EQ(x1.size(), x2.size());
  EXPECT_EQ(0, std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(real_t)));
}

// ---- (c) memory: fewer Factors bytes + Workspace scratch attribution -----

struct PrecisionRun {
  std::size_t factor_bytes = 0;
  std::size_t factor_entries = 0;
  index_t fp32_blocks = 0;
  std::size_t factors_current = 0;   ///< live Factors bytes after factorize
  std::size_t workspace_peak = 0;
  real_t backward_error = 0;
};

PrecisionRun precision_run(const CscMatrix& a, Strategy strategy,
                           TilePrecision precision,
                           Factorization facto = Factorization::Auto) {
  SolverOptions opts =
      small_problem_options(strategy, lr::CompressionKind::Rrqr, 1e-8);
  opts.threads = 1;
  opts.precision = precision;
  opts.factorization = facto;
  Solver s(opts);
  s.factorize(a);
  PrecisionRun r;
  r.factor_bytes = s.stats().factor_bytes_final;
  r.factor_entries = s.stats().factor_entries_final;
  r.fp32_blocks = s.stats().num_fp32_blocks;
  r.factors_current = MemoryTracker::instance().current(MemCategory::Factors);
  r.workspace_peak = MemoryTracker::instance().peak(MemCategory::Workspace);
  const auto b = seeded_rhs(a.rows(), 99);
  std::vector<real_t> x(b.size());
  s.solve(b.data(), x.data());
  r.backward_error = sparse::backward_error(a, x.data(), b.data());
  return r;
}

TEST(MixedPrecisionMemory, MixedTilesStoresStrictlyFewerFactorsBytes) {
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  for (const auto& [strategy, facto] :
       {std::pair{Strategy::MinimalMemory, Factorization::Auto},
        std::pair{Strategy::JustInTime, Factorization::Auto},
        std::pair{Strategy::MinimalMemory, Factorization::Lu}}) {
    const std::string where =
        std::string(strategy_name(strategy)) +
        (facto == Factorization::Lu ? " LU" : "");
    const PrecisionRun fp64 =
        precision_run(a, strategy, TilePrecision::Fp64, facto);
    const PrecisionRun mixed =
        precision_run(a, strategy, TilePrecision::MixedTiles, facto);
    EXPECT_GT(mixed.fp32_blocks, 0) << where;
    EXPECT_LT(mixed.factor_bytes, fp64.factor_bytes) << where;
    // Both runs solve the same problem to comparable accuracy.
    EXPECT_LT(mixed.backward_error, 1e-5) << where;
  }
}

TEST(MixedPrecisionMemory, Fp64FactorsBytesPinnedAndScratchGoesToWorkspace) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);

  // Regression for the byte-attribution bugfix: in a pure-fp64 run the live
  // Factors category after factorization is exactly the stored factor bytes
  // (= entries x sizeof(double)) — conversion scratch (which does not even
  // exist here) and contribution temporaries never leak into Factors.
  const PrecisionRun fp64 =
      precision_run(a, Strategy::MinimalMemory, TilePrecision::Fp64);
  EXPECT_EQ(fp64.factors_current, fp64.factor_bytes);
  EXPECT_EQ(fp64.factor_bytes, fp64.factor_entries * sizeof(real_t));

  // Same pin under MixedTiles: the live Factors bytes equal the (smaller,
  // precision-aware) stored total, so fp64 promotion copies made for the
  // kernels were charged to Workspace instead.
  const PrecisionRun mixed =
      precision_run(a, Strategy::MinimalMemory, TilePrecision::MixedTiles);
  EXPECT_EQ(mixed.factors_current, mixed.factor_bytes);
  EXPECT_LT(mixed.factor_bytes, mixed.factor_entries * sizeof(real_t));
  EXPECT_GT(mixed.workspace_peak, 0u);
}

TEST(MixedPrecisionRefinement, MixedTilesPreconditionerReachesTarget) {
  // The fp32 storage loss is invisible to iterative refinement: the
  // MixedTiles factorization still preconditions CG to the same residual
  // target as the fp64 one.
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = small_problem_options(Strategy::MinimalMemory,
                                             lr::CompressionKind::Rrqr, 1e-8);
  opts.threads = 1;
  opts.precision = TilePrecision::MixedTiles;
  Solver solver(opts);
  solver.factorize(a);
  const auto b = seeded_rhs(a.rows(), 2024);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  RefinementOptions ropts;
  ropts.target = 1e-10;
  ropts.max_iterations = 40;
  const RefinementResult res = solver.refine(a, b.data(), x.data(), ropts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_error(), 1e-10);
}

} // namespace
