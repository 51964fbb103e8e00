// End-to-end tests of the full pipeline (ordering -> symbolic -> numeric ->
// solve -> refinement) across strategies, kernels and matrix families.

#include <gtest/gtest.h>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

std::vector<real_t> random_rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// Factorize + solve, return the backward error of the direct solution.
real_t direct_backward_error(const CscMatrix& a, SolverOptions opts) {
  Solver solver(opts);
  solver.factorize(a);
  const auto b = random_rhs(a.rows(), 1234);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  return sparse::backward_error(a, x.data(), b.data());
}

struct Config {
  Strategy strategy;
  lr::CompressionKind kind;
  real_t tol;
};

class StrategyKernelTest : public ::testing::TestWithParam<Config> {};

TEST_P(StrategyKernelTest, Laplacian3dSolvesToTolerance) {
  const Config cfg = GetParam();
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts;
  opts.strategy = cfg.strategy;
  opts.kind = cfg.kind;
  opts.tolerance = cfg.tol;
  // Small problem: lower the compressibility thresholds so the BLR machinery
  // actually engages.
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  opts.split.split_threshold = 64;
  opts.split.split_size = 32;
  const real_t err = direct_backward_error(a, opts);
  // Dense must hit machine precision; BLR must track the tolerance within a
  // modest amplification factor (the paper observes errors near tau).
  if (cfg.strategy == Strategy::Dense) {
    EXPECT_LT(err, 1e-12);
  } else {
    EXPECT_LT(err, cfg.tol * 500);
  }
}

TEST_P(StrategyKernelTest, NonsymmetricConvectionDiffusion) {
  const Config cfg = GetParam();
  const CscMatrix a = sparse::convection_diffusion_3d(10, 10, 10, 0.6);
  SolverOptions opts;
  opts.strategy = cfg.strategy;
  opts.kind = cfg.kind;
  opts.tolerance = cfg.tol;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  opts.split.split_threshold = 64;
  opts.split.split_size = 32;
  const real_t err = direct_backward_error(a, opts);
  if (cfg.strategy == Strategy::Dense) {
    EXPECT_LT(err, 1e-12);
  } else {
    EXPECT_LT(err, cfg.tol * 500);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyKernelTest,
    ::testing::Values(Config{Strategy::Dense, lr::CompressionKind::Rrqr, 1e-8},
                      Config{Strategy::JustInTime, lr::CompressionKind::Rrqr, 1e-8},
                      Config{Strategy::JustInTime, lr::CompressionKind::Svd, 1e-8},
                      Config{Strategy::MinimalMemory, lr::CompressionKind::Rrqr, 1e-8},
                      Config{Strategy::MinimalMemory, lr::CompressionKind::Svd, 1e-8},
                      Config{Strategy::JustInTime, lr::CompressionKind::Rrqr, 1e-4},
                      Config{Strategy::MinimalMemory, lr::CompressionKind::Rrqr, 1e-4}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = info.param.strategy == Strategy::Dense ? "Dense"
                         : info.param.strategy == Strategy::JustInTime
                             ? "JIT"
                             : "MinMem";
      name += info.param.kind == lr::CompressionKind::Svd ? "_SVD" : "_RRQR";
      name += info.param.tol == 1e-4 ? "_tol4" : "_tol8";
      return name;
    });

TEST(SolverIntegration, SpdUsesCholeskyAndSolves) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts;
  opts.strategy = Strategy::Dense;
  Solver solver(opts);
  solver.factorize(a);
  EXPECT_TRUE(solver.is_llt());
  const auto b = random_rhs(a.rows(), 7);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-12);
}

TEST(SolverIntegration, MultithreadedMatchesSequential) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  const auto b = random_rhs(a.rows(), 99);

  SolverOptions seq;
  seq.strategy = Strategy::JustInTime;
  seq.compress_min_width = 16;
  seq.compress_min_height = 8;
  seq.threads = 1;
  Solver s1(seq);
  s1.factorize(a);
  std::vector<real_t> x1(b.size());
  s1.solve(b.data(), x1.data());

  SolverOptions par = seq;
  par.threads = 4;
  Solver s2(par);
  s2.factorize(a);
  std::vector<real_t> x2(b.size());
  s2.solve(b.data(), x2.data());

  EXPECT_LT(sparse::backward_error(a, x1.data(), b.data()), 1e-6);
  EXPECT_LT(sparse::backward_error(a, x2.data(), b.data()), 1e-6);
}

TEST(SolverIntegration, RefinementReachesMachinePrecision) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts;
  opts.strategy = Strategy::MinimalMemory;
  opts.tolerance = 1e-4;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  Solver solver(opts);
  solver.factorize(a);
  const auto b = random_rhs(a.rows(), 5);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  const auto res = solver.refine(a, b.data(), x.data());
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_error(), 1e-12);
}

TEST(SolverIntegration, MinimalMemoryUsesLessFactorMemoryThanDense) {
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  SolverOptions dense;
  dense.strategy = Strategy::Dense;
  dense.compress_min_width = 16;
  dense.compress_min_height = 8;
  Solver sd(dense);
  sd.factorize(a);

  SolverOptions mm = dense;
  mm.strategy = Strategy::MinimalMemory;
  mm.tolerance = 1e-4;
  Solver sm(mm);
  sm.factorize(a);

  EXPECT_LT(sm.stats().factors_peak_bytes, sd.stats().factors_peak_bytes);
  EXPECT_LT(sm.stats().factor_entries_final, sd.stats().factor_entries_final);
  EXPECT_GT(sm.stats().num_lowrank_blocks, 0);
  // Dense never compresses: every compressible block ends dense.
  EXPECT_EQ(sd.stats().dense_block_fraction, 1.0);
  EXPECT_LT(sm.stats().dense_block_fraction, 1.0);
}

TEST(SolverIntegration, MultiRhsSolveMatchesSingleRhs) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts;
  opts.strategy = Strategy::JustInTime;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  Solver solver(opts);
  solver.factorize(a);

  const index_t n = a.rows();
  const index_t nrhs = 5;
  la::DMatrix b(n, nrhs);
  Prng rng(31);
  la::random_normal(b.view(), rng);
  la::DMatrix x(n, nrhs);
  solver.solve(b.cview(), x.view());

  for (index_t r = 0; r < nrhs; ++r) {
    std::vector<real_t> br(static_cast<std::size_t>(n)), xr(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) br[static_cast<std::size_t>(i)] = b(i, r);
    solver.solve(br.data(), xr.data());
    for (index_t i = 0; i < n; ++i)
      ASSERT_NEAR(x(i, r), xr[static_cast<std::size_t>(i)], 1e-12) << "rhs " << r;
    EXPECT_LT(sparse::backward_error(a, xr.data(), br.data()), 1e-6);
  }
}

TEST(SolverIntegration, PaperTestSetAllStrategiesSmall) {
  // End-to-end sweep over the six surrogate matrices at a tiny scale.
  for (const auto& tm : sparse::paper_test_set(8)) {
    for (const Strategy strat :
         {Strategy::Dense, Strategy::JustInTime, Strategy::MinimalMemory}) {
      SolverOptions opts;
      opts.strategy = strat;
      opts.tolerance = 1e-8;
      opts.compress_min_width = 16;
      opts.compress_min_height = 8;
      opts.split.split_threshold = 64;
      opts.split.split_size = 32;
      const real_t err = direct_backward_error(tm.matrix, opts);
      EXPECT_LT(err, 1e-5) << tm.name << " strategy "
                           << static_cast<int>(strat);
    }
  }
}

TEST(SolverIntegration, FactorSizeMonotoneInTolerance) {
  // Paper property (Figure 6): tightening tau can only grow the factors.
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  std::size_t prev = 0;
  for (const real_t tol : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10}) {
    SolverOptions opts;
    opts.strategy = Strategy::MinimalMemory;
    opts.tolerance = tol;
    opts.compress_min_width = 16;
    opts.compress_min_height = 8;
    opts.split.split_threshold = 64;
    opts.split.split_size = 32;
    Solver solver(opts);
    solver.factorize(a);
    const std::size_t entries = solver.stats().factor_entries_final;
    EXPECT_GE(entries, prev) << "tol " << tol;
    prev = entries;
    // ...and each factorization must meet its own tolerance.
    const auto b = random_rhs(a.rows(), 77);
    std::vector<real_t> x(b.size());
    solver.solve(b.data(), x.data());
    EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), tol * 1e3);
  }
}

TEST(SolverIntegration, SvdFactorsNeverLargerThanRrqr) {
  // Paper property (Figure 6): SVD compresses at least as well as RRQR.
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  for (const real_t tol : {1e-4, 1e-8}) {
    std::size_t entries[2];
    int i = 0;
    for (const auto kind : {lr::CompressionKind::Svd, lr::CompressionKind::Rrqr}) {
      SolverOptions opts;
      opts.strategy = Strategy::JustInTime;
      opts.kind = kind;
      opts.tolerance = tol;
      opts.compress_min_width = 16;
      opts.compress_min_height = 8;
      opts.split.split_threshold = 64;
      opts.split.split_size = 32;
      Solver solver(opts);
      solver.factorize(a);
      entries[i++] = solver.stats().factor_entries_final;
    }
    EXPECT_LE(entries[0], entries[1]) << "tol " << tol;  // SVD <= RRQR
  }
}

} // namespace
