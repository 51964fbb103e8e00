// Tests of the Householder QR stack, in particular the truncated pivoted QR
// (geqp3_trunc) that implements the paper's RRQR compression kernel.

#include <gtest/gtest.h>

#include <cstring>

#include "common/prng.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;
using namespace blr::la;

/// ‖Qᵗ·Q − I‖_F for a matrix with (supposedly) orthonormal columns.
real_t orthogonality_defect(DConstView q) {
  DMatrix g(q.cols, q.cols);
  gemm(Trans::Yes, Trans::No, real_t(1), q, q, real_t(0), g.view());
  for (index_t i = 0; i < q.cols; ++i) g(i, i) -= 1;
  return norm_fro(g.cview());
}

struct QrShape {
  index_t m, n;
};

class GeqrfShapes : public ::testing::TestWithParam<QrShape> {};

TEST_P(GeqrfShapes, ReconstructsAndQIsOrthonormal) {
  const auto [m, n] = GetParam();
  Prng rng(static_cast<std::uint64_t>(m * 100 + n));
  DMatrix a(m, n);
  random_normal(a.view(), rng);
  const DMatrix a0 = a;

  std::vector<real_t> tau;
  geqrf(a.view(), tau);
  const index_t k = std::min(m, n);

  // Extract R (k x n), rebuild Q (m x k) and check A = Q·R.
  DMatrix r(k, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < std::min(j + 1, k); ++i) r(i, j) = a(i, j);
  DMatrix q(a.cview().sub(0, 0, m, k));
  std::vector<real_t> tau_k(tau.begin(), tau.begin() + k);
  orgqr(q.view(), tau_k);

  EXPECT_LT(orthogonality_defect(q.cview()), 1e-12 * static_cast<real_t>(k));
  DMatrix qr(m, n);
  gemm(Trans::No, Trans::No, real_t(1), q.cview(), r.cview(), real_t(0), qr.view());
  EXPECT_LT(diff_fro(qr.cview(), a0.cview()), 1e-11 * norm_fro(a0.cview()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeqrfShapes,
                         ::testing::Values(QrShape{1, 1}, QrShape{5, 5},
                                           QrShape{20, 7}, QrShape{7, 20},
                                           QrShape{64, 64}, QrShape{100, 30},
                                           QrShape{2, 40}));

TEST(Ormqr, AppliesQAndQt) {
  Prng rng(8);
  const index_t m = 15, k = 6;
  DMatrix a(m, k);
  random_normal(a.view(), rng);
  std::vector<real_t> tau;
  DMatrix fact = a;
  geqrf(fact.view(), tau);
  DMatrix q(fact.cview());
  orgqr(q.view(), tau);

  // Qᵗ·(Q·C) == C for any C.
  DMatrix c(m, 4);
  random_normal(c.view(), rng);
  DMatrix w = c;
  ormqr_left(Trans::No, fact.cview(), tau, w.view());
  // Compare against explicit Q product restricted to full-size Q: build via
  // applying to identity is already orgqr; here check round trip instead.
  ormqr_left(Trans::Yes, fact.cview(), tau, w.view());
  EXPECT_LT(diff_fro(w.cview(), c.cview()), 1e-12 * (1 + norm_fro(c.cview())));
}

/// Qᵗ·C applied one column at a time: the reflector application before its
/// columns ran eight dot chains at once.
void ormqr_t_per_column(DConstView a, const std::vector<real_t>& tau, DView c) {
  const index_t m = a.rows;
  for (index_t j = 0; j < static_cast<index_t>(tau.size()); ++j) {
    const real_t tj = tau[static_cast<std::size_t>(j)];
    if (tj == real_t(0)) continue;
    const real_t* v = a.col(j) + j + 1;
    for (index_t col = 0; col < c.cols; ++col) {
      real_t* cj = c.col(col) + j;
      real_t w = cj[0] + dot(m - j - 1, v, cj + 1);
      w *= tj;
      cj[0] -= w;
      axpy(m - j - 1, -w, v, cj + 1);
    }
  }
}

// The reflectors run eight columns at a time with interleaved dot chains;
// every column must keep the bits of the column-at-a-time loop: reflector
// tails shorter than a chain block (m - 1 < 8), column counts that are not
// a multiple of 8, and a reflector with tau = 0.
void reflector_bits() {
  Prng rng(19);
  for (const index_t m : {index_t(1), index_t(5), index_t(9), index_t(40)}) {
    for (const index_t ncols :
         {index_t(1), index_t(7), index_t(8), index_t(13), index_t(24)}) {
      const index_t k = std::min<index_t>(m, 4);
      DMatrix a(m, k);
      random_normal(a.view(), rng);
      std::vector<real_t> tau;
      geqrf(a.view(), tau);
      if (k > 1) tau[1] = real_t(0);  // a reflector that is the identity
      DMatrix c0(m, ncols);
      random_normal(c0.view(), rng);
      DMatrix ref = c0;
      ormqr_t_per_column(a.cview(), tau, ref.view());
      DMatrix got = c0;
      ormqr_left(Trans::Yes, a.cview(), tau, got.view());
      EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                            sizeof(real_t) * static_cast<std::size_t>(ref.size())),
                0)
          << "m=" << m << " cols=" << ncols;
    }
  }
}

TEST(Ormqr, ReflectorChainsKeepColumnBitsDouble) { reflector_bits(); }

TEST(Larfg, AnnihilatesTail) {
  std::vector<real_t> x{3, 4};  // (alpha=3, tail={4})
  real_t tau = 0;
  const real_t beta = larfg(real_t(3), 1, x.data() + 1, tau);
  EXPECT_NEAR(std::abs(beta), 5.0, 1e-14);  // preserves the 2-norm
  EXPECT_GT(tau, 0.0);
}

TEST(Larfg, ZeroTailGivesZeroTau) {
  std::vector<real_t> x{2, 0, 0};
  real_t tau = 1;
  const real_t beta = larfg(real_t(2), 2, x.data() + 1, tau);
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(beta, 2.0);
}

struct RrqrCase {
  index_t m, n, rank;
};

class RrqrRankRecovery : public ::testing::TestWithParam<RrqrCase> {};

TEST_P(RrqrRankRecovery, FindsExactRank) {
  const auto [m, n, rank] = GetParam();
  Prng rng(static_cast<std::uint64_t>(m + 31 * n + 1001 * rank));
  DMatrix a = random_rank_k(m, n, rank, rng);
  const real_t tol = 1e-10 * norm_fro(a.cview());

  std::vector<index_t> jpvt;
  std::vector<real_t> tau;
  DMatrix w = a;
  const index_t r = geqp3_trunc(w.view(), jpvt, tau, tol, std::min(m, n));
  EXPECT_EQ(r, std::min({m, n, rank}));
}

INSTANTIATE_TEST_SUITE_P(Cases, RrqrRankRecovery,
                         ::testing::Values(RrqrCase{30, 30, 5}, RrqrCase{50, 20, 3},
                                           RrqrCase{20, 50, 7}, RrqrCase{64, 64, 1},
                                           RrqrCase{40, 40, 40}, RrqrCase{33, 17, 17}));

TEST(Rrqr, EarlyExitOnZeroMatrix) {
  DMatrix a(10, 10);
  std::vector<index_t> jpvt;
  std::vector<real_t> tau;
  EXPECT_EQ(geqp3_trunc(a.view(), jpvt, tau, real_t(0), index_t(10)), 0);
}

TEST(Rrqr, RespectsMaxRankCap) {
  Prng rng(6);
  DMatrix a(30, 30);
  random_normal(a.view(), rng);  // full rank
  std::vector<index_t> jpvt;
  std::vector<real_t> tau;
  EXPECT_EQ(geqp3_trunc(a.view(), jpvt, tau, real_t(1e-14), index_t(7)), 7);
}

TEST(Rrqr, PivotVectorIsPermutation) {
  Prng rng(14);
  DMatrix a = random_rank_k(25, 18, 6, rng);
  std::vector<index_t> jpvt;
  std::vector<real_t> tau;
  geqp3_trunc(a.view(), jpvt, tau, real_t(1e-9), index_t(18));
  std::vector<char> seen(18, 0);
  for (const index_t p : jpvt) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 18);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

TEST(Rrqr, TruncationErrorBelowTolerance) {
  // Property: stopping at tol guarantees ‖A·P − Q_r·R_r‖_F <= tol.
  Prng rng(99);
  for (const real_t decay : {0.9, 0.5, 0.2}) {
    DMatrix a = random_decaying(40, 32, decay, rng);
    const real_t anorm = norm_fro(a.cview());
    const real_t tol = 1e-6 * anorm;
    DMatrix w = a;
    std::vector<index_t> jpvt;
    std::vector<real_t> tau;
    const index_t r = geqp3_trunc(w.view(), jpvt, tau, tol, index_t(32));

    // Rebuild the truncated factorization and measure the error against A·P.
    DMatrix q(w.cview().sub(0, 0, 40, r));
    std::vector<real_t> tau_r(tau.begin(), tau.begin() + r);
    orgqr(q.view(), tau_r);
    DMatrix rmat(r, 32);
    for (index_t j = 0; j < 32; ++j)
      for (index_t i = 0; i < std::min(j + 1, r); ++i) rmat(i, j) = w(i, j);
    DMatrix ap(40, 32);
    for (index_t j = 0; j < 32; ++j)
      for (index_t i = 0; i < 40; ++i) ap(i, j) = a(i, jpvt[static_cast<std::size_t>(j)]);
    DMatrix qr(40, 32);
    gemm(Trans::No, Trans::No, real_t(1), q.cview(), rmat.cview(), real_t(0), qr.view());
    EXPECT_LT(diff_fro(qr.cview(), ap.cview()), 1.5 * tol) << "decay=" << decay;
  }
}

} // namespace
