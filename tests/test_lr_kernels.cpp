// Tests of the update kernels of §3.3: the tile product A·Bᵗ in every
// dense/low-rank combination, the LR2GE dense update, and the LR2LR
// extend-add with both SVD and RRQR recompression (padding, offsets,
// transposed contributions, densify fallback).

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random.hpp"
#include "lowrank/compression.hpp"
#include "lowrank/kernels.hpp"

namespace {

using namespace blr;
using namespace blr::lr;

la::DMatrix materialize(const Tile& t) {
  la::DMatrix d(t.rows(), t.cols());
  t.to_dense(d.view());
  return d;
}

Tile make_tile(const la::DMatrix& value, bool lowrank, CompressionKind kind) {
  if (!lowrank) {
    la::DMatrix copy = value;
    return Tile::from_dense(std::move(copy));
  }
  Tile t = compress_to_tile(kind, value.cview(), 1e-12);
  // Tests construct genuinely low-rank inputs; ensure we got the LR form.
  EXPECT_TRUE(t.is_lowrank());
  return t;
}

struct ProductCase {
  bool a_lowrank, b_lowrank, need_ortho;
};

class AbtProduct : public ::testing::TestWithParam<ProductCase> {};

TEST_P(AbtProduct, MatchesDenseReference) {
  const auto p = GetParam();
  Prng rng(21);
  const index_t m = 30, n = 26, w = 18;
  const la::DMatrix av = la::random_rank_k(m, w, 5, rng);
  const la::DMatrix bv = la::random_rank_k(n, w, 4, rng);
  const Tile a = make_tile(av, p.a_lowrank, CompressionKind::Rrqr);
  const Tile b = make_tile(bv, p.b_lowrank, CompressionKind::Rrqr);

  const Tile prod =
      ab_t_product(a, b, CompressionKind::Rrqr, 1e-10, p.need_ortho);
  la::DMatrix expected(m, n);
  la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), av.cview(), bv.cview(),
           real_t(0), expected.view());
  const la::DMatrix got = materialize(prod);
  EXPECT_LT(la::diff_fro(got.cview(), expected.cview()),
            1e-9 * (1 + la::norm_fro(expected.cview())));
  // Any combination with a low-rank operand must produce a low-rank result.
  EXPECT_EQ(prod.is_lowrank(), p.a_lowrank || p.b_lowrank);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AbtProduct,
    ::testing::Values(ProductCase{false, false, false}, ProductCase{true, false, false},
                      ProductCase{false, true, false}, ProductCase{true, true, false},
                      ProductCase{true, false, true}, ProductCase{false, true, true},
                      ProductCase{true, true, true}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string s;
      s += p.a_lowrank ? "LR" : "GE";
      s += p.b_lowrank ? "xLR" : "xGE";
      s += p.need_ortho ? "_ortho" : "_plain";
      return s;
    });

TEST(AbtProduct, OrthoResultHasOrthonormalU) {
  Prng rng(33);
  const index_t m = 40, n = 35, w = 20;
  const la::DMatrix av = la::random_rank_k(m, w, 6, rng);
  const la::DMatrix bv = la::random_rank_k(n, w, 5, rng);
  for (const bool a_lr : {true, false}) {
    for (const bool b_lr : {true, false}) {
      if (!a_lr && !b_lr) continue;
      const Tile a = make_tile(av, a_lr, CompressionKind::Rrqr);
      const Tile b = make_tile(bv, b_lr, CompressionKind::Rrqr);
      const Tile p = ab_t_product(a, b, CompressionKind::Rrqr, 1e-10, true);
      ASSERT_TRUE(p.is_lowrank());
      la::DMatrix g(p.rank(), p.rank());
      la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), p.lr().u.cview(),
               p.lr().u.cview(), real_t(0), g.view());
      for (index_t i = 0; i < p.rank(); ++i) g(i, i) -= 1;
      EXPECT_LT(la::norm_fro(g.cview()), 1e-10) << a_lr << b_lr;
    }
  }
}

TEST(AbtProduct, LrLrRecompressionReducesRank) {
  // Two rank-8 factors whose product has rank <= 3 by construction.
  Prng rng(5);
  const index_t m = 50, n = 45, w = 30;
  la::DMatrix core = la::random_rank_k(w, w, 3, rng);
  const la::DMatrix av = la::random_rank_k(m, w, 8, rng);
  // bv = (rank-3 core)ᵗ·"anything" keeps the product rank at most 3.
  la::DMatrix bv(n, w);
  la::DMatrix tmp(n, w);
  la::random_normal(tmp.view(), rng);
  la::gemm(la::Trans::No, la::Trans::No, real_t(1), tmp.cview(), core.cview(),
           real_t(0), bv.view());

  const Tile a = make_tile(av, true, CompressionKind::Rrqr);
  const Tile b = make_tile(bv, true, CompressionKind::Rrqr);
  const Tile p = ab_t_product(a, b, CompressionKind::Rrqr, 1e-9, true);
  ASSERT_TRUE(p.is_lowrank());
  EXPECT_LE(p.rank(), 3 + 1);
}

TEST(ApplyToDense, SubtractsPlainAndTransposed) {
  Prng rng(9);
  const la::DMatrix pv = la::random_rank_k(8, 6, 2, rng);
  la::DMatrix copy = pv;
  const Tile p = Tile::from_dense(std::move(copy), MemCategory::Workspace);

  la::DMatrix t1(8, 6);
  apply_to_dense(p, t1.view(), false);
  la::DMatrix t2(6, 8);
  apply_to_dense(p, t2.view(), true);
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(t1(i, j), -pv(i, j));
      EXPECT_DOUBLE_EQ(t2(j, i), -pv(i, j));
    }
  }
}

struct ExtendAddCase {
  CompressionKind kind;
  bool p_lowrank;
  bool transpose;
  index_t roff, coff;
};

class ExtendAdd : public ::testing::TestWithParam<ExtendAddCase> {};

TEST_P(ExtendAdd, MatchesDenseReference) {
  const auto cfg = GetParam();
  Prng rng(static_cast<std::uint64_t>(cfg.roff * 17 + cfg.coff + cfg.p_lowrank));
  const index_t M = 48, N = 40;
  const index_t pm = 14, pn = 11;  // contribution dims (pre-transpose)

  const la::DMatrix cv = la::random_rank_k(M, N, 5, rng);
  Tile c = make_tile(cv, true, cfg.kind);

  const la::DMatrix pv = la::random_rank_k(pm, pn, 3, rng);
  const Tile p = make_tile(pv, cfg.p_lowrank, cfg.kind);

  // Reference: dense C minus the (possibly transposed) padded contribution.
  la::DMatrix ref = cv;
  const index_t em = cfg.transpose ? pn : pm;
  const index_t en = cfg.transpose ? pm : pn;
  for (index_t j = 0; j < en; ++j)
    for (index_t i = 0; i < em; ++i)
      ref(cfg.roff + i, cfg.coff + j) -= cfg.transpose ? pv(j, i) : pv(i, j);

  lr2lr_add(c, p, cfg.roff, cfg.coff, cfg.kind, 1e-10, cfg.transpose);
  const la::DMatrix got = materialize(c);
  EXPECT_LT(la::diff_fro(got.cview(), ref.cview()),
            1e-8 * (1 + la::norm_fro(ref.cview())));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtendAdd,
    ::testing::Values(
        ExtendAddCase{CompressionKind::Rrqr, true, false, 0, 0},
        ExtendAddCase{CompressionKind::Rrqr, true, false, 20, 15},
        ExtendAddCase{CompressionKind::Rrqr, true, true, 10, 5},
        ExtendAddCase{CompressionKind::Rrqr, false, false, 34, 29},
        ExtendAddCase{CompressionKind::Rrqr, false, true, 7, 3},
        ExtendAddCase{CompressionKind::Svd, true, false, 0, 0},
        ExtendAddCase{CompressionKind::Svd, true, false, 20, 15},
        ExtendAddCase{CompressionKind::Svd, true, true, 10, 5},
        ExtendAddCase{CompressionKind::Svd, false, false, 34, 29},
        ExtendAddCase{CompressionKind::Svd, false, true, 7, 3}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string s = p.kind == CompressionKind::Svd ? "SVD" : "RRQR";
      s += p.p_lowrank ? "_lrP" : "_geP";
      s += p.transpose ? "_T" : "_N";
      s += "_o" + std::to_string(p.roff) + "_" + std::to_string(p.coff);
      return s;
    });

TEST(ExtendAdd, RankZeroTargetAdoptsContribution) {
  Prng rng(2);
  const index_t M = 30, N = 30;
  la::DMatrix zero(M, N);
  Tile c = compress_to_tile(CompressionKind::Rrqr, zero.cview(), 1e-8);
  ASSERT_EQ(c.rank(), 0);

  const la::DMatrix pv = la::random_rank_k(10, 10, 2, rng);
  const Tile p = make_tile(pv, true, CompressionKind::Rrqr);
  lr2lr_add(c, p, 5, 7, CompressionKind::Rrqr, 1e-10);
  ASSERT_TRUE(c.is_lowrank());
  EXPECT_EQ(c.rank(), 2);
  const la::DMatrix got = materialize(c);
  for (index_t j = 0; j < 10; ++j)
    for (index_t i = 0; i < 10; ++i)
      EXPECT_NEAR(got(5 + i, 7 + j), -pv(i, j), 1e-12);
  EXPECT_NEAR(got(0, 0), 0.0, 1e-15);
}

TEST(ExtendAdd, DensifiesWhenRankExceedsBenefit) {
  Prng rng(4);
  const index_t M = 20, N = 20;  // beneficial limit ~9
  const la::DMatrix cv = la::random_rank_k(M, N, 6, rng);
  Tile c = make_tile(cv, true, CompressionKind::Rrqr);

  // Full-rank contribution covering the whole block.
  la::DMatrix pv(M, N);
  la::random_normal(pv.view(), rng);
  la::DMatrix pcopy = pv;
  const Tile p = Tile::from_dense(std::move(pcopy), MemCategory::Workspace);
  lr2lr_add(c, p, 0, 0, CompressionKind::Rrqr, 1e-12);
  EXPECT_FALSE(c.is_lowrank());  // fell back to dense
  la::DMatrix ref = cv;
  for (index_t j = 0; j < N; ++j)
    for (index_t i = 0; i < M; ++i) ref(i, j) -= pv(i, j);
  EXPECT_LT(la::diff_fro(c.dense().cview(), ref.cview()), 1e-9);
}

TEST(ExtendAdd, DenseTargetGetsPlainSubtraction) {
  Prng rng(6);
  const la::DMatrix cv = la::random_rank_k(25, 25, 25, rng);
  la::DMatrix copy = cv;
  Tile c = Tile::from_dense(std::move(copy));

  const la::DMatrix pv = la::random_rank_k(8, 8, 2, rng);
  const Tile p = make_tile(pv, true, CompressionKind::Svd);
  lr2lr_add(c, p, 3, 4, CompressionKind::Svd, 1e-10);
  ASSERT_FALSE(c.is_lowrank());
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i < 8; ++i)
      EXPECT_NEAR(c.dense()(3 + i, 4 + j), cv(3 + i, 4 + j) - pv(i, j), 1e-10);
}

TEST(ExtendAdd, FactoredTargetIsRejected) {
  // The tile lifecycle forbids extend-adds into an already-factored tile:
  // the driver must have applied every incoming update first.
  Prng rng(11);
  const la::DMatrix cv = la::random_rank_k(20, 20, 3, rng);
  Tile c = make_tile(cv, true, CompressionKind::Rrqr);
  c.advance(TileState::Assembled);
  c.advance(TileState::Compressed);
  c.advance(TileState::Factored);

  const la::DMatrix pv = la::random_rank_k(6, 6, 2, rng);
  const Tile p = make_tile(pv, true, CompressionKind::Rrqr);
  EXPECT_THROW(lr2lr_add(c, p, 0, 0, CompressionKind::Rrqr, 1e-10), Error);
}

TEST(ExtendAdd, RepeatedUpdatesKeepToleranceProperty) {
  // Many small contributions; the final materialized tile must stay within
  // a modest multiple of the tolerance of the dense reference.
  for (const auto kind : {CompressionKind::Rrqr, CompressionKind::Svd}) {
    Prng rng(77);
    const index_t M = 60, N = 50;
    const real_t tol = 1e-8;
    la::DMatrix ref(M, N);
    la::DMatrix zero(M, N);
    Tile c = compress_to_tile(kind, zero.cview(), tol);
    for (int it = 0; it < 12; ++it) {
      const index_t pm = 8 + static_cast<index_t>(rng.below(12));
      const index_t pn = 6 + static_cast<index_t>(rng.below(10));
      const index_t ro = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(M - pm)));
      const index_t co = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(N - pn)));
      const la::DMatrix pv = la::random_rank_k(pm, pn, 2, rng);
      for (index_t j = 0; j < pn; ++j)
        for (index_t i = 0; i < pm; ++i) ref(ro + i, co + j) -= pv(i, j);
      const Tile p = make_tile(pv, true, kind);
      lr2lr_add(c, p, ro, co, kind, tol);
    }
    la::DMatrix got(M, N);
    c.to_dense(got.view());
    EXPECT_LT(la::diff_fro(got.cview(), ref.cview()),
              20 * tol * (1 + la::norm_fro(ref.cview())))
        << (kind == CompressionKind::Svd ? "SVD" : "RRQR");
  }
}

} // namespace
