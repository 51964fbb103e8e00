// Core contracts of the dense linear-algebra layer, which computes in
// real_t only: GEMM transposes, LU and Cholesky solves, QR orthonormality,
// RRQR rank detection, SVD and the triangular solve, each checked against a
// residual or a reconstruction.

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random.hpp"
#include "linalg/svd.hpp"

namespace {

using namespace blr;
using namespace blr::la;

constexpr real_t kRel = 1e-11;

TEST(TypedLinalg, GemmAllTransposeCombos) {
  Prng rng(1);
  const index_t m = 13, n = 9, k = 11;
  DMatrix a(m, k), b(k, n), at(k, m), bt(n, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = rng.normal();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < k; ++i) b(i, j) = rng.normal();
  transpose<real_t>(a.cview(), at.view());
  transpose<real_t>(b.cview(), bt.view());

  DMatrix ref(m, n);
  gemm(Trans::No, Trans::No, real_t(1), a.cview(), b.cview(), real_t(0), ref.view());

  DMatrix c(m, n);
  gemm(Trans::Yes, Trans::No, real_t(1), at.cview(), b.cview(), real_t(0), c.view());
  EXPECT_LT(diff_fro(c.cview(), ref.cview()), kRel * (1 + norm_fro(ref.cview())));
  gemm(Trans::No, Trans::Yes, real_t(1), a.cview(), bt.cview(), real_t(0), c.view());
  EXPECT_LT(diff_fro(c.cview(), ref.cview()), kRel * (1 + norm_fro(ref.cview())));
  gemm(Trans::Yes, Trans::Yes, real_t(1), at.cview(), bt.cview(), real_t(0), c.view());
  EXPECT_LT(diff_fro(c.cview(), ref.cview()), kRel * (1 + norm_fro(ref.cview())));
}

TEST(TypedLinalg, LuSolveResidual) {
  Prng rng(2);
  const index_t n = 24;
  DMatrix a = random_diagdom(n, rng);
  const DMatrix a0 = a;
  std::vector<index_t> ipiv;
  ASSERT_EQ(getrf(a.view(), ipiv), 0);
  DMatrix b(n, 2);
  random_normal(b.view(), rng);
  DMatrix x = b;
  getrs(a.cview(), ipiv, x.view());
  DMatrix r = b;
  gemm(Trans::No, Trans::No, real_t(-1), a0.cview(), x.cview(), real_t(1), r.view());
  EXPECT_LT(norm_fro(r.cview()), kRel * 100 * norm_fro(b.cview()));
}

TEST(TypedLinalg, CholeskyReconstruction) {
  Prng rng(3);
  const index_t n = 18;
  DMatrix a = random_spd(n, rng);
  const DMatrix a0 = a;
  ASSERT_EQ(potrf(a.view()), 0);
  DMatrix l(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) l(i, j) = a(i, j);
  DMatrix llt(n, n);
  gemm(Trans::No, Trans::Yes, real_t(1), l.cview(), l.cview(), real_t(0), llt.view());
  EXPECT_LT(diff_fro(llt.cview(), a0.cview()), kRel * 100 * norm_fro(a0.cview()));
}

TEST(TypedLinalg, QrOrthonormality) {
  Prng rng(4);
  DMatrix a(20, 8);
  random_normal(a.view(), rng);
  std::vector<real_t> tau;
  geqrf(a.view(), tau);
  orgqr(a.view(), tau);
  DMatrix g(8, 8);
  gemm(Trans::Yes, Trans::No, real_t(1), a.cview(), a.cview(), real_t(0), g.view());
  for (index_t i = 0; i < 8; ++i) g(i, i) -= real_t(1);
  EXPECT_LT(norm_fro(g.cview()), kRel * 100);
}

TEST(TypedLinalg, RrqrFindsRank) {
  Prng rng(5);
  DMatrix a = random_rank_k(30, 24, 5, rng);
  std::vector<index_t> jpvt;
  std::vector<real_t> tau;
  const real_t tol = kRel * norm_fro(a.cview());
  const index_t r = geqp3_trunc(a.view(), jpvt, tau, tol, index_t(24));
  EXPECT_EQ(r, 5);
}

TEST(TypedLinalg, SvdSingularValuesOfOrthogonalScaled) {
  // A = 3·I has all singular values 3.
  DMatrix a(6, 6);
  for (index_t i = 0; i < 6; ++i) a(i, i) = real_t(3);
  const auto s = singular_values(a.cview());
  for (const real_t v : s) EXPECT_NEAR(v, 3.0, 1e-5);
}

TEST(TypedLinalg, TrsmRoundTrip) {
  Prng rng(6);
  const index_t n = 12;
  DMatrix a(n, n);
  random_normal(a.view(), rng);
  for (index_t i = 0; i < n; ++i) a(i, i) = real_t(6) + std::abs(a(i, i));
  DMatrix b(n, 4);
  random_normal(b.view(), rng);
  DMatrix x = b;
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, real_t(1), a.cview(), x.view());
  // Multiply back with the lower triangle.
  DMatrix lower(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) lower(i, j) = a(i, j);
  DMatrix recon(n, 4);
  gemm(Trans::No, Trans::No, real_t(1), lower.cview(), x.cview(), real_t(0),
       recon.view());
  EXPECT_LT(diff_fro(recon.cview(), b.cview()), kRel * 100 * norm_fro(b.cview()));
}

} // namespace
