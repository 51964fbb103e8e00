// Unit + property tests of the LAPACK-layer factorizations (getrf/potrf and
// their solves), including pivoting behaviour and breakdown reporting.

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/norms.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;
using namespace blr::la;

class GetrfSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(GetrfSizes, SolveResidualIsSmall) {
  const index_t n = GetParam();
  Prng rng(static_cast<std::uint64_t>(n));
  DMatrix a = random_diagdom(n, rng);
  const DMatrix a0 = a;
  std::vector<index_t> ipiv;
  ASSERT_EQ(getrf(a.view(), ipiv), 0);

  DMatrix b(n, 3);
  random_normal(b.view(), rng);
  DMatrix x = b;
  getrs(a.cview(), ipiv, x.view());

  DMatrix r = b;
  gemm(Trans::No, Trans::No, real_t(-1), a0.cview(), x.cview(), real_t(1), r.view());
  EXPECT_LT(norm_fro(r.cview()), 1e-10 * norm_fro(b.cview()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GetrfSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 33, 64, 129));

TEST(Getrf, PivotingHandlesZeroLeadingEntry) {
  DMatrix a(3, 3);
  // a(0,0) = 0 forces an immediate pivot.
  a(0, 0) = 0;  a(0, 1) = 2;  a(0, 2) = 1;
  a(1, 0) = 1;  a(1, 1) = 1;  a(1, 2) = 1;
  a(2, 0) = 4;  a(2, 1) = 0;  a(2, 2) = 3;
  const DMatrix a0 = a;
  std::vector<index_t> ipiv;
  ASSERT_EQ(getrf(a.view(), ipiv), 0);
  EXPECT_EQ(ipiv[0], 2);  // largest |entry| in column 0

  DMatrix x(3, 1);
  x(0, 0) = 1;
  x(1, 0) = 2;
  x(2, 0) = 3;
  DMatrix b(3, 1);
  gemm(Trans::No, Trans::No, real_t(1), a0.cview(), x.cview(), real_t(0), b.view());
  DMatrix sol = b;
  getrs(a.cview(), ipiv, sol.view());
  EXPECT_LT(diff_fro(sol.cview(), x.cview()), 1e-12);
}

TEST(Getrf, ReportsSingularMatrix) {
  DMatrix a(3, 3);  // rank 1
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) a(i, j) = static_cast<real_t>((i + 1));
  std::vector<index_t> ipiv;
  EXPECT_GT(getrf(a.view(), ipiv), 0);
}

TEST(Getrf, RectangularPanelFactorization) {
  Prng rng(9);
  DMatrix a(10, 4);
  random_normal(a.view(), rng);
  const DMatrix a0 = a;
  std::vector<index_t> ipiv;
  ASSERT_EQ(getrf(a.view(), ipiv), 0);
  // Reconstruct P·A = L·U with L 10x4 unit-lower and U 4x4 upper.
  DMatrix l(10, 4), u(4, 4);
  for (index_t j = 0; j < 4; ++j) {
    l(j, j) = 1;
    for (index_t i = j + 1; i < 10; ++i) l(i, j) = a(i, j);
    for (index_t i = 0; i <= j; ++i) u(i, j) = a(i, j);
  }
  DMatrix pa = a0;
  laswp(pa.view(), ipiv);
  DMatrix lu(10, 4);
  gemm(Trans::No, Trans::No, real_t(1), l.cview(), u.cview(), real_t(0), lu.view());
  EXPECT_LT(diff_fro(lu.cview(), pa.cview()), 1e-11 * norm_fro(a0.cview()));
}

TEST(LuInverse, InverseTimesMatrixIsIdentity) {
  Prng rng(21);
  const index_t n = 20;
  DMatrix a = random_diagdom(n, rng);
  const DMatrix a0 = a;
  std::vector<index_t> ipiv;
  ASSERT_EQ(getrf(a.view(), ipiv), 0);
  DMatrix inv(n, n);
  lu_inverse(a.cview(), ipiv, inv.view());
  DMatrix prod(n, n);
  gemm(Trans::No, Trans::No, real_t(1), a0.cview(), inv.cview(), real_t(0), prod.view());
  DMatrix eye(n, n);
  set_identity(eye.view());
  EXPECT_LT(diff_fro(prod.cview(), eye.cview()), 1e-9);
}

class PotrfSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfSizes, CholeskyReconstructs) {
  const index_t n = GetParam();
  Prng rng(static_cast<std::uint64_t>(100 + n));
  DMatrix a = random_spd(n, rng);
  const DMatrix a0 = a;
  ASSERT_EQ(potrf(a.view()), 0);
  // L·Lᵗ == A (only lower triangle of the factor is valid).
  DMatrix l(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) l(i, j) = a(i, j);
  DMatrix llt(n, n);
  gemm(Trans::No, Trans::Yes, real_t(1), l.cview(), l.cview(), real_t(0), llt.view());
  EXPECT_LT(diff_fro(llt.cview(), a0.cview()), 1e-9 * norm_fro(a0.cview()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfSizes, ::testing::Values(1, 2, 4, 9, 16, 41, 100));

TEST(Potrf, SolveResidual) {
  Prng rng(77);
  const index_t n = 30;
  DMatrix a = random_spd(n, rng);
  const DMatrix a0 = a;
  ASSERT_EQ(potrf(a.view()), 0);
  DMatrix b(n, 2);
  random_normal(b.view(), rng);
  DMatrix x = b;
  potrs(a.cview(), x.view());
  DMatrix r = b;
  gemm(Trans::No, Trans::No, real_t(-1), a0.cview(), x.cview(), real_t(1), r.view());
  EXPECT_LT(norm_fro(r.cview()), 1e-10 * norm_fro(b.cview()));
}

TEST(Potrf, RejectsIndefiniteMatrix) {
  DMatrix a(2, 2);
  a(0, 0) = 1;
  a(1, 0) = 3;
  a(0, 1) = 3;
  a(1, 1) = 1;  // eigenvalues 4, -2
  EXPECT_GT(potrf(a.view()), 0);
}

TEST(Potrf, DoesNotReadUpperTriangle) {
  Prng rng(13);
  DMatrix a = random_spd(6, rng);
  DMatrix b = a;
  // Poison b's strict upper triangle; factorization must be unaffected.
  for (index_t j = 1; j < 6; ++j)
    for (index_t i = 0; i < j; ++i) b(i, j) = 1e30;
  ASSERT_EQ(potrf(a.view()), 0);
  ASSERT_EQ(potrf(b.view()), 0);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = j; i < 6; ++i) EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
}

TEST(Laswp, ForwardSwapsMatchPivotSequence) {
  DMatrix b(3, 1);
  b(0, 0) = 1;
  b(1, 0) = 2;
  b(2, 0) = 3;
  std::vector<index_t> ipiv{2, 2, 2};  // swap(0,2), swap(1,2), swap(2,2)
  laswp(b.view(), ipiv);
  EXPECT_EQ(b(0, 0), 3);
  EXPECT_EQ(b(1, 0), 1);
  EXPECT_EQ(b(2, 0), 2);
}

} // namespace
