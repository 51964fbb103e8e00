// Tests of the one-sided Jacobi SVD used by the SVD compression kernel.

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "linalg/blas.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;
using namespace blr::la;

real_t orthogonality_defect(DConstView q) {
  DMatrix g(q.cols, q.cols);
  gemm(Trans::Yes, Trans::No, real_t(1), q, q, real_t(0), g.view());
  for (index_t i = 0; i < q.cols; ++i) g(i, i) -= 1;
  return norm_fro(g.cview());
}

DMatrix reconstruct(const DMatrix& u, const std::vector<real_t>& s, const DMatrix& v) {
  DMatrix us = u;
  for (index_t j = 0; j < us.cols(); ++j)
    scal(us.rows(), s[static_cast<std::size_t>(j)], us.view().col(j));
  DMatrix a(u.rows(), v.rows());
  gemm(Trans::No, Trans::Yes, real_t(1), us.cview(), v.cview(), real_t(0), a.view());
  return a;
}

struct SvdShape {
  index_t m, n;
};

class SvdShapes : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdShapes, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  Prng rng(static_cast<std::uint64_t>(m * 7 + n));
  DMatrix a(m, n);
  random_normal(a.view(), rng);

  DMatrix u, v;
  std::vector<real_t> s;
  svd(a.cview(), u, s, v);
  const index_t k = std::min(m, n);
  ASSERT_EQ(u.rows(), m);
  ASSERT_EQ(u.cols(), k);
  ASSERT_EQ(v.rows(), n);
  ASSERT_EQ(v.cols(), k);

  EXPECT_LT(orthogonality_defect(u.cview()), 1e-11 * static_cast<real_t>(k));
  EXPECT_LT(orthogonality_defect(v.cview()), 1e-11 * static_cast<real_t>(k));
  const DMatrix recon = reconstruct(u, s, v);
  EXPECT_LT(diff_fro(recon.cview(), a.cview()), 1e-11 * norm_fro(a.cview()));
  // Non-increasing singular values.
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GE(s[i - 1], s[i]);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(SvdShape{1, 1}, SvdShape{4, 4},
                                           SvdShape{16, 16}, SvdShape{40, 12},
                                           SvdShape{12, 40}, SvdShape{64, 64},
                                           SvdShape{3, 100}));

TEST(Svd, KnownSingularValuesOfDiagonal) {
  DMatrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = -5;  // singular value is |.|
  a(2, 2) = 1;
  const auto s = singular_values(a.cview());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s[0], 5, 1e-13);
  EXPECT_NEAR(s[1], 3, 1e-13);
  EXPECT_NEAR(s[2], 1, 1e-13);
}

TEST(Svd, RankDeficientMatrixHasZeroTail) {
  Prng rng(12);
  DMatrix a = random_rank_k(20, 20, 4, rng);
  const auto s = singular_values(a.cview());
  for (std::size_t i = 4; i < s.size(); ++i) EXPECT_LT(s[i], 1e-10 * s[0]);
  EXPECT_GT(s[3], 1e-10 * s[0]);
}

TEST(Svd, FrobeniusNormEqualsSigmaNorm) {
  Prng rng(44);
  DMatrix a(17, 23);
  random_normal(a.view(), rng);
  const auto s = singular_values(a.cview());
  real_t ssq = 0;
  for (const real_t x : s) ssq += x * x;
  EXPECT_NEAR(std::sqrt(ssq), norm_fro(a.cview()), 1e-10);
}

TEST(Svd, ZeroMatrix) {
  DMatrix a(5, 3);
  DMatrix u, v;
  std::vector<real_t> s;
  svd(a.cview(), u, s, v);
  for (const real_t x : s) EXPECT_EQ(x, 0.0);
}

TEST(Svd, TwoNormMatchesSpectralRadiusOfSymmetricMatrix) {
  // For A = Qᵗ·D·Q symmetric, singular values are |eigenvalues|.
  DMatrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;  // eigenvalues 3 and 1
  const auto s = singular_values(a.cview());
  EXPECT_NEAR(s[0], 3.0, 1e-12);
  EXPECT_NEAR(s[1], 1.0, 1e-12);
}

} // namespace
