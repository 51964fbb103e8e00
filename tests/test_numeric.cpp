// Tests of the numeric factorization layer itself: factor reconstruction
// against dense LAPACK-style factorizations, strategy-specific invariants
// (Minimal-Memory never allocating the dense structure), and parallel
// determinism under stress.

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "core/numeric.hpp"
#include "core/solver.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/norms.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph.hpp"

namespace {

using namespace blr;
using namespace blr::core;
using sparse::CscMatrix;

SolverOptions small_opts(Strategy s, lr::CompressionKind k = lr::CompressionKind::Rrqr) {
  SolverOptions o;
  o.strategy = s;
  o.kind = k;
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

std::vector<real_t> rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

TEST(Numeric, DenseLltMatchesDensePotrfSolve) {
  const CscMatrix a = sparse::laplacian_2d(9, 9);
  Solver solver(small_opts(Strategy::Dense));
  solver.factorize(a);
  ASSERT_TRUE(solver.is_llt());

  const auto b = rhs(a.rows(), 1);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());

  la::DMatrix d = a.to_dense();
  ASSERT_EQ(la::potrf(d.view()), 0);
  la::DMatrix xd(a.rows(), 1);
  for (index_t i = 0; i < a.rows(); ++i) xd(i, 0) = b[static_cast<std::size_t>(i)];
  la::potrs(d.cview(), xd.view());
  for (index_t i = 0; i < a.rows(); ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xd(i, 0), 1e-9);
}

TEST(Numeric, DenseLuMatchesDenseGetrfSolve) {
  const CscMatrix a = sparse::convection_diffusion_3d(4, 4, 4, 0.5);
  Solver solver(small_opts(Strategy::Dense));
  solver.factorize(a);
  ASSERT_FALSE(solver.is_llt());

  const auto b = rhs(a.rows(), 2);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());

  la::DMatrix d = a.to_dense();
  std::vector<index_t> ipiv;
  ASSERT_EQ(la::getrf(d.view(), ipiv), 0);
  la::DMatrix xd(a.rows(), 1);
  for (index_t i = 0; i < a.rows(); ++i) xd(i, 0) = b[static_cast<std::size_t>(i)];
  la::getrs(d.cview(), ipiv, xd.view());
  for (index_t i = 0; i < a.rows(); ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xd(i, 0), 1e-9);
}

TEST(Numeric, LuOnSpdMatrixMatchesLlt) {
  const CscMatrix a = sparse::laplacian_2d(8, 8);
  SolverOptions llt = small_opts(Strategy::Dense);
  llt.factorization = Factorization::Llt;
  SolverOptions lu = small_opts(Strategy::Dense);
  lu.factorization = Factorization::Lu;

  Solver s1(llt), s2(lu);
  s1.factorize(a);
  s2.factorize(a);
  EXPECT_TRUE(s1.is_llt());
  EXPECT_FALSE(s2.is_llt());

  const auto b = rhs(a.rows(), 3);
  std::vector<real_t> x1(b.size()), x2(b.size());
  s1.solve(b.data(), x1.data());
  s2.solve(b.data(), x2.data());
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Numeric, MinimalMemoryNeverAllocatesDenseStructure) {
  // The defining property of the Minimal-Memory scenario: the Factors peak
  // must stay below the dense-structure footprint (the Dense strategy's
  // peak).
  const CscMatrix a = sparse::laplacian_3d(16, 16, 16);
  SolverOptions mm = small_opts(Strategy::MinimalMemory);
  mm.tolerance = 1e-4;
  Solver sm(mm);
  sm.factorize(a);
  const std::size_t dense_bytes = sm.stats().factor_entries_dense * sizeof(real_t);
  EXPECT_LT(sm.stats().factors_peak_bytes, dense_bytes);

  Solver sd(small_opts(Strategy::Dense));
  sd.factorize(a);
  // Dense ends holding the full dense structure.
  EXPECT_GE(sd.stats().factors_peak_bytes, dense_bytes);

  SolverOptions jit = small_opts(Strategy::JustInTime);
  jit.tolerance = 1e-4;
  Solver sj(jit);
  sj.factorize(a);
  // Final compressed sizes of the two scenarios are similar (paper §2.2).
  const double ratio = static_cast<double>(sm.stats().factor_entries_final) /
                       static_cast<double>(sj.stats().factor_entries_final);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(Numeric, StatsEntriesConsistent) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  Solver solver(small_opts(Strategy::Dense));
  solver.factorize(a);
  // Dense strategy: final entries equal the symbolic dense storage.
  EXPECT_EQ(solver.stats().factor_entries_final, solver.stats().factor_entries_dense);
  EXPECT_EQ(solver.stats().num_lowrank_blocks, 0);
}

TEST(Numeric, ParallelStressManyRepetitions) {
  const CscMatrix a = sparse::laplacian_3d(9, 9, 9);
  const auto b = rhs(a.rows(), 4);
  SolverOptions o = small_opts(Strategy::JustInTime);
  o.threads = 8;
  for (int rep = 0; rep < 10; ++rep) {
    Solver s(o);
    s.factorize(a);
    std::vector<real_t> x(b.size());
    s.solve(b.data(), x.data());
    ASSERT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-6) << "rep " << rep;
  }
}

TEST(Numeric, ParallelMinimalMemoryStress) {
  const CscMatrix a = sparse::heterogeneous_poisson_3d(8, 8, 8, 3.0, 5);
  const auto b = rhs(a.rows(), 5);
  SolverOptions o = small_opts(Strategy::MinimalMemory);
  o.threads = 6;
  o.tolerance = 1e-6;
  for (int rep = 0; rep < 6; ++rep) {
    Solver s(o);
    s.factorize(a);
    std::vector<real_t> x(b.size());
    s.solve(b.data(), x.data());
    ASSERT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-3) << "rep " << rep;
  }
}

TEST(Numeric, CholeskyRejectsIndefiniteMatrix) {
  // Indefinite symmetric matrix pushed down the LLᵗ path must throw.
  std::vector<sparse::Triplet> t;
  const index_t n = 40;
  for (index_t i = 0; i < n; ++i) t.push_back({i, i, (i % 2) ? 2.0 : -2.0});
  for (index_t i = 0; i + 1 < n; ++i) {
    t.push_back({i, i + 1, 1.0});
    t.push_back({i + 1, i, 1.0});
  }
  CscMatrix a = CscMatrix::from_triplets(n, n, std::move(t));
  SolverOptions o = small_opts(Strategy::Dense);
  o.factorization = Factorization::Llt;
  Solver s(o);
  EXPECT_THROW(s.factorize(a), NumericalError);
}

TEST(Numeric, SameAnalyzeMultipleFactorizations) {
  // The preprocessing is value-independent: one analyze, several factorize.
  CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  Solver solver(small_opts(Strategy::JustInTime));
  solver.analyze(a);

  const auto b = rhs(a.rows(), 6);
  for (const real_t shift : {0.0, 1.0, 10.0}) {
    CscMatrix m = a;
    for (index_t j = 0; j < m.cols(); ++j) {
      for (index_t p = m.colptr()[static_cast<std::size_t>(j)];
           p < m.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
        if (m.rowind()[static_cast<std::size_t>(p)] == j)
          m.values()[static_cast<std::size_t>(p)] += shift;
      }
    }
    solver.factorize(m);
    std::vector<real_t> x(b.size());
    solver.solve(b.data(), x.data());
    EXPECT_LT(sparse::backward_error(m, x.data(), b.data()), 1e-6);
  }
}

TEST(Numeric, ApiMisuseThrows) {
  const CscMatrix a = sparse::laplacian_2d(4, 4);
  Solver s(small_opts(Strategy::Dense));
  std::vector<real_t> b(16, 1.0), x(16);
  EXPECT_THROW(s.solve(b.data(), x.data()), Error);
  EXPECT_THROW(s.preconditioner(), Error);
  EXPECT_THROW((void)s.refine(a, b.data(), x.data()), Error);
}

TEST(Numeric, RectangularMatrixRejected) {
  const CscMatrix a = CscMatrix::from_triplets(3, 4, {{0, 0, 1.0}});
  Solver s(small_opts(Strategy::Dense));
  EXPECT_THROW(s.analyze(a), Error);
}

TEST(Numeric, JitPeakBelowDenseFootprint) {
  // The paper's §4.3 motivation: a supernode is allocated and assembled only
  // when its first update arrives, and Elim compresses it before its
  // ancestors are allocated, so Just-In-Time's peak stays below the dense
  // structure size at any thread count.
  const CscMatrix a = sparse::laplacian_3d(16, 16, 16);
  SolverOptions jit = small_opts(Strategy::JustInTime);
  jit.tolerance = 1e-4;
  for (const int threads : {1, 4}) {
    jit.threads = threads;
    Solver s(jit);
    s.factorize(a);
    const std::size_t dense_bytes = s.stats().factor_entries_dense * sizeof(real_t);
    EXPECT_LT(s.stats().factors_peak_bytes, dense_bytes) << "threads=" << threads;
  }
}

} // namespace
