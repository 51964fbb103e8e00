// Tests of the SVD and RRQR compression kernels: the tolerance contract
// ‖A − Â‖_F <= τ·‖A‖_F, orthonormality of U, rank behaviour and the
// storage-beneficial limit.

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random.hpp"
#include "lowrank/compression.hpp"

namespace {

using namespace blr;
using namespace blr::lr;

la::DMatrix materialize(const LrMatrix& m) {
  la::DMatrix d(m.rows(), m.cols());
  m.to_dense(d.view());
  return d;
}

real_t relative_error(const la::DMatrix& a, const LrMatrix& approx) {
  const la::DMatrix d = materialize(approx);
  return la::diff_fro(d.cview(), a.cview()) / std::max<real_t>(la::norm_fro(a.cview()), 1e-300);
}

real_t orthogonality_defect(la::DConstView q) {
  la::DMatrix g(q.cols, q.cols);
  la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), q, q, real_t(0), g.view());
  for (index_t i = 0; i < q.cols; ++i) g(i, i) -= 1;
  return la::norm_fro(g.cview());
}

struct CompressionCase {
  CompressionKind kind;
  index_t m, n;
  real_t decay;
  real_t tol;
};

class ToleranceContract : public ::testing::TestWithParam<CompressionCase> {};

TEST_P(ToleranceContract, ErrorBelowToleranceAndUOrthonormal) {
  const auto p = GetParam();
  Prng rng(static_cast<std::uint64_t>(p.m * 131 + p.n));
  const la::DMatrix a = la::random_decaying(p.m, p.n, p.decay, rng);

  const auto lr = compress(p.kind, a.cview(), p.tol, std::min(p.m, p.n));
  ASSERT_TRUE(lr.has_value());
  EXPECT_LE(relative_error(a, *lr), p.tol * 1.01);
  EXPECT_LT(orthogonality_defect(lr->u.cview()), 1e-11 * std::max<index_t>(1, lr->rank()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ToleranceContract,
    ::testing::Values(
        CompressionCase{CompressionKind::Rrqr, 40, 40, 0.5, 1e-4},
        CompressionCase{CompressionKind::Rrqr, 40, 40, 0.5, 1e-8},
        CompressionCase{CompressionKind::Rrqr, 40, 40, 0.5, 1e-12},
        CompressionCase{CompressionKind::Rrqr, 80, 30, 0.7, 1e-8},
        CompressionCase{CompressionKind::Rrqr, 30, 80, 0.7, 1e-8},
        CompressionCase{CompressionKind::Rrqr, 128, 128, 0.8, 1e-6},
        CompressionCase{CompressionKind::Svd, 40, 40, 0.5, 1e-4},
        CompressionCase{CompressionKind::Svd, 40, 40, 0.5, 1e-8},
        CompressionCase{CompressionKind::Svd, 40, 40, 0.5, 1e-12},
        CompressionCase{CompressionKind::Svd, 80, 30, 0.7, 1e-8},
        CompressionCase{CompressionKind::Svd, 30, 80, 0.7, 1e-8},
        CompressionCase{CompressionKind::Svd, 128, 128, 0.8, 1e-6}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string s = p.kind == CompressionKind::Svd ? "SVD" : "RRQR";
      s += "_" + std::to_string(p.m) + "x" + std::to_string(p.n);
      s += "_tol" + std::to_string(static_cast<int>(-std::log10(p.tol)));
      s += "_d" + std::to_string(static_cast<int>(p.decay * 10));
      return s;
    });

TEST(Compression, SvdRankNeverExceedsRrqrRank) {
  // The paper: SVD finds the smallest ranks for a given tolerance.
  Prng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    const la::DMatrix a = la::random_decaying(60, 60, 0.6, rng);
    const auto s = compress_svd(a.cview(), 1e-8, 60);
    const auto r = compress_rrqr(a.cview(), 1e-8, 60);
    ASSERT_TRUE(s && r);
    EXPECT_LE(s->rank(), r->rank());
  }
}

TEST(Compression, ZeroMatrixHasRankZero) {
  const la::DMatrix a(30, 20);
  for (const auto kind : {CompressionKind::Rrqr, CompressionKind::Svd}) {
    const auto lr = compress(kind, a.cview(), 1e-8, 20);
    ASSERT_TRUE(lr.has_value());
    EXPECT_EQ(lr->rank(), 0);
    EXPECT_EQ(materialize(*lr).size(), 600);
    EXPECT_EQ(la::norm_fro(materialize(*lr).cview()), 0.0);
  }
}

TEST(Compression, ExactRankRecovered) {
  Prng rng(3);
  const la::DMatrix a = la::random_rank_k(50, 40, 7, rng);
  for (const auto kind : {CompressionKind::Rrqr, CompressionKind::Svd}) {
    const auto lr = compress(kind, a.cview(), 1e-10, 40);
    ASSERT_TRUE(lr.has_value());
    EXPECT_EQ(lr->rank(), 7);
    EXPECT_LE(relative_error(a, *lr), 1e-9);
  }
}

TEST(Compression, FailsWhenRankExceedsCap) {
  Prng rng(4);
  la::DMatrix a(30, 30);
  la::random_normal(a.view(), rng);  // full rank
  for (const auto kind : {CompressionKind::Rrqr, CompressionKind::Svd}) {
    EXPECT_FALSE(compress(kind, a.cview(), 1e-12, 5).has_value());
  }
}

TEST(Compression, BeneficialRankLimit) {
  EXPECT_EQ(beneficial_rank_limit(100, 100), 49);  // r(m+n) < mn strictly
  EXPECT_EQ(beneficial_rank_limit(128, 20), (128 * 20 - 1) / 148);
  EXPECT_EQ(beneficial_rank_limit(0, 0), 0);
  // Storage check: at the limit the LR form is strictly smaller.
  const index_t m = 77, n = 33;
  const index_t r = beneficial_rank_limit(m, n);
  EXPECT_LT(r * (m + n), m * n);
  EXPECT_GE((r + 1) * (m + n), m * n);
}

TEST(Compression, CompressToTileChoosesRepresentation) {
  Prng rng(5);
  const la::DMatrix lowrank_in = la::random_rank_k(60, 60, 4, rng);
  const Tile t1 = compress_to_tile(CompressionKind::Rrqr, lowrank_in.cview(), 1e-8);
  EXPECT_TRUE(t1.is_lowrank());
  EXPECT_EQ(t1.rank(), 4);

  la::DMatrix fullrank_in(60, 60);
  la::random_normal(fullrank_in.view(), rng);
  const Tile t2 = compress_to_tile(CompressionKind::Rrqr, fullrank_in.cview(), 1e-8);
  EXPECT_FALSE(t2.is_lowrank());
  la::DMatrix out(60, 60);
  t2.to_dense(out.view());
  EXPECT_EQ(la::diff_fro(out.cview(), fullrank_in.cview()), 0.0);
}

TEST(Tile, DensifyPreservesValue) {
  Prng rng(6);
  const la::DMatrix a = la::random_rank_k(25, 35, 3, rng);
  Tile t = compress_to_tile(CompressionKind::Svd, a.cview(), 1e-10);
  ASSERT_TRUE(t.is_lowrank());
  la::DMatrix before(25, 35);
  t.to_dense(before.view());
  t.densify();
  EXPECT_FALSE(t.is_lowrank());
  EXPECT_EQ(la::diff_fro(t.dense().cview(), before.cview()), 0.0);
}

TEST(Tile, StorageEntriesAndTracking) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset();
  {
    Tile d = Tile::make_dense(10, 10);
    EXPECT_EQ(d.storage_entries(), 100u);
    EXPECT_EQ(tracker.current(MemCategory::Factors), 100 * sizeof(real_t));
    Prng rng(2);
    const la::DMatrix a = la::random_rank_k(10, 10, 2, rng);
    auto lr = compress_rrqr(a.cview(), 1e-10, 4);
    ASSERT_TRUE(lr);
    d.set_lowrank(std::move(*lr));
    EXPECT_EQ(d.storage_entries(), 40u);  // 2 * (10*2)
    EXPECT_EQ(tracker.current(MemCategory::Factors), 40 * sizeof(real_t));
  }
  EXPECT_EQ(tracker.current(MemCategory::Factors), 0u);
}

TEST(RandomizedCompression, ToleranceContractAndOrthonormalU) {
  Prng rng(51);
  for (const real_t tol : {1e-4, 1e-8, 1e-12}) {
    const la::DMatrix a = la::random_decaying(70, 60, 0.5, rng);
    const auto lr = compress_randomized_from(a.cview(), tol, 60, 16);
    ASSERT_TRUE(lr.has_value()) << tol;
    EXPECT_LE(relative_error(a, *lr), tol * 1.01) << tol;
    EXPECT_LT(orthogonality_defect(lr->u.cview()),
              1e-10 * std::max<index_t>(1, lr->rank()));
  }
}

TEST(RandomizedCompression, ExactRankRecoveredWithinOversampling) {
  Prng rng(52);
  const la::DMatrix a = la::random_rank_k(64, 48, 6, rng);
  const auto lr = compress_randomized_from(a.cview(), 1e-10, 48, 16);
  ASSERT_TRUE(lr.has_value());
  EXPECT_EQ(lr->rank(), 6);
  EXPECT_LE(relative_error(a, *lr), 1e-9);
}

TEST(RandomizedCompression, ZeroMatrixAndFullRankFailure) {
  const la::DMatrix z(20, 20);
  const auto lrz = compress_randomized_from(z.cview(), 1e-8, 20, 16);
  ASSERT_TRUE(lrz.has_value());
  EXPECT_EQ(lrz->rank(), 0);

  Prng rng(53);
  la::DMatrix f(40, 40);
  la::random_normal(f.view(), rng);
  EXPECT_FALSE(compress_randomized_from(f.cview(), 1e-12, 6, 16).has_value());
}

TEST(RandomizedCompression, DeterministicAcrossCalls) {
  Prng rng(54);
  const la::DMatrix a = la::random_decaying(50, 50, 0.6, rng);
  const auto l1 = compress_randomized_from(a.cview(), 1e-8, 50, 16);
  const auto l2 = compress_randomized_from(a.cview(), 1e-8, 50, 16);
  ASSERT_TRUE(l1 && l2);
  EXPECT_EQ(l1->rank(), l2->rank());
  EXPECT_EQ(la::diff_fro(l1->u.cview(), l2->u.cview()), 0.0);
}

// SVD's warm path: a hint near the true rank is accepted from the sketch;
// a stale small hint on an incompressible block grows into the full SVD
// and returns exactly what a cold compress_svd returns.
TEST(SvdWarmCompression, HitAtHintAndGrowOnIncompressibleBlock) {
  Prng rng(55);
  const la::DMatrix a = la::random_rank_k(64, 48, 6, rng);
  const WarmCompressResult hit = compress_svd_warm(a.cview(), 1e-10, 27, 6);
  EXPECT_FALSE(hit.grew);
  ASSERT_TRUE(hit.lr.has_value());
  EXPECT_EQ(hit.lr->rank(), 6);
  EXPECT_LE(relative_error(a, *hit.lr), 1e-9);

  la::DMatrix f(40, 40);
  la::random_normal(f.view(), rng);
  const index_t cap = beneficial_rank_limit(40, 40);
  const WarmCompressResult grow = compress_svd_warm(f.cview(), 1e-8, cap, 2);
  EXPECT_TRUE(grow.grew);
  const auto cold = compress_svd(f.cview(), 1e-8, cap);
  EXPECT_EQ(grow.lr.has_value(), cold.has_value());
  EXPECT_FALSE(grow.lr.has_value());
}

} // namespace
