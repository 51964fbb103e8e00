// Tests of the tile storage layer: the dense/low-rank tagged representation,
// the forward-only lifecycle state machine, per-category memory accounting,
// and the LR2LR recompression property — after randomized extend-add chains
// the U factor must stay orthonormal to machine precision and the state
// machine must never move backwards.

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random.hpp"
#include "lowrank/compression.hpp"
#include "lowrank/kernels.hpp"
#include "lowrank/tile.hpp"

namespace {

using namespace blr;
using namespace blr::lr;

real_t orthogonality_defect(la::DConstView q) {
  la::DMatrix g(q.cols, q.cols);
  la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), q, q, real_t(0), g.view());
  for (index_t i = 0; i < q.cols; ++i) g(i, i) -= 1;
  return la::norm_fro(g.cview());
}

TEST(TileState, ForwardTransitionsAndNames) {
  Tile t = Tile::make_dense(4, 4);
  EXPECT_EQ(t.state(), TileState::Unassembled);
  t.advance(TileState::Assembled);
  EXPECT_EQ(t.state(), TileState::Assembled);
  t.advance(TileState::Assembled);  // idempotent
  EXPECT_EQ(t.state(), TileState::Assembled);
  t.advance(TileState::Factored);  // states may be skipped
  EXPECT_EQ(t.state(), TileState::Factored);

  EXPECT_STREQ(tile_state_name(TileState::Unassembled), "Unassembled");
  EXPECT_STREQ(tile_state_name(TileState::Assembled), "Assembled");
  EXPECT_STREQ(tile_state_name(TileState::Compressed), "Compressed");
  EXPECT_STREQ(tile_state_name(TileState::Factored), "Factored");
}

TEST(TileState, RegressionThrows) {
  Tile t = Tile::make_dense(4, 4);
  t.advance(TileState::Factored);
  EXPECT_THROW(t.advance(TileState::Assembled), Error);
  EXPECT_THROW(t.advance(TileState::Compressed), Error);
  EXPECT_EQ(t.state(), TileState::Factored);  // unchanged after the throw

  Tile c = Tile::make_dense(4, 4);
  c.advance(TileState::Compressed);
  EXPECT_THROW(c.advance(TileState::Assembled), Error);
}

TEST(TileArena, ChargesAndDischargesThroughTracker) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset();
  {
    Tile a = Tile::make_dense(10, 10, MemCategory::Factors);
    Tile b = Tile::make_dense(5, 4, MemCategory::Factors);
    EXPECT_EQ(tracker.current(MemCategory::Factors), (100 + 20) * sizeof(real_t));

    // Representation switch re-tracks the delta under the tile's category.
    Prng rng(2);
    const la::DMatrix m = la::random_rank_k(10, 10, 2, rng);
    auto lr = compress_rrqr(m.cview(), 1e-10, 4);
    ASSERT_TRUE(lr);
    a.set_lowrank(std::move(*lr));
    EXPECT_EQ(tracker.current(MemCategory::Factors), (40 + 20) * sizeof(real_t));

    // Moving a tile out of scope discharges exactly once.
    { const Tile moved = std::move(b); }
    EXPECT_EQ(tracker.current(MemCategory::Factors), 40 * sizeof(real_t));
  }
  EXPECT_EQ(tracker.current(MemCategory::Factors), 0u);
}

TEST(TileArena, SeparateCategoriesStaySeparate) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset();
  const Tile f = Tile::make_dense(8, 8, MemCategory::Factors);
  const Tile w = Tile::make_dense(6, 6, MemCategory::Workspace);
  EXPECT_EQ(tracker.current(MemCategory::Factors), 64 * sizeof(real_t));
  EXPECT_EQ(tracker.current(MemCategory::Workspace), 36 * sizeof(real_t));
}

TEST(TileMove, NoDoubleAccounting) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset();
  {
    Tile a = Tile::make_dense(12, 12);
    Tile b = std::move(a);
    EXPECT_EQ(tracker.current(MemCategory::Factors), 144 * sizeof(real_t));
    Tile c = Tile::make_dense(3, 3);
    c = std::move(b);  // c's 9 entries discharge, b's 144 transfer
    EXPECT_EQ(tracker.current(MemCategory::Factors), 144 * sizeof(real_t));
  }
  EXPECT_EQ(tracker.current(MemCategory::Factors), 0u);
}

// The LR2LR recompression property (paper §3.3.2): the extend-add keeps the
// target's U orthonormal — eq. (8)/(12) rely on ‖U·x‖ = ‖x‖ to recompress
// against tolerance·‖C‖ without materializing C. A drifting U would break
// the tolerance contract silently, so we pin it to machine precision across
// randomized chains of updates, for both recompression kinds.
class Lr2LrChain : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(Lr2LrChain, UStaysOrthonormalAndStateNeverRegresses) {
  const CompressionKind kind = GetParam();
  Prng rng(kind == CompressionKind::Svd ? 101 : 202);
  const index_t M = 64, N = 56;
  const real_t tol = 1e-8;

  la::DMatrix ref = la::random_rank_k(M, N, 4, rng);
  Tile c = compress_to_tile(kind, ref.cview(), tol);
  ASSERT_TRUE(c.is_lowrank());
  c.advance(TileState::Assembled);
  c.advance(TileState::Compressed);

  for (int it = 0; it < 20; ++it) {
    const index_t pm = 6 + static_cast<index_t>(rng.below(18));
    const index_t pn = 5 + static_cast<index_t>(rng.below(15));
    const bool lowrank_p = rng.below(4) != 0;
    const bool transpose = rng.below(2) != 0;
    // Extents in the target's coordinates (the contribution lands
    // transposed when `transpose`).
    const index_t em = transpose ? pn : pm;
    const index_t en = transpose ? pm : pn;
    const index_t ro =
        static_cast<index_t>(rng.below(static_cast<std::uint64_t>(M - em)));
    const index_t co =
        static_cast<index_t>(rng.below(static_cast<std::uint64_t>(N - en)));

    const la::DMatrix pv = la::random_rank_k(pm, pn, 2, rng);
    Tile p;
    if (lowrank_p) {
      p = compress_to_tile(kind, pv.cview(), 1e-12, MemCategory::Workspace);
      ASSERT_TRUE(p.is_lowrank());
    } else {
      la::DMatrix copy = pv;
      p = Tile::from_dense(std::move(copy), MemCategory::Workspace);
    }

    const TileState before = c.state();
    lr2lr_add(c, p, ro, co, kind, tol, transpose);
    EXPECT_GE(static_cast<int>(c.state()), static_cast<int>(before));

    for (index_t j = 0; j < en; ++j)
      for (index_t i = 0; i < em; ++i)
        ref(ro + i, co + j) -= transpose ? pv(j, i) : pv(i, j);

    if (c.is_lowrank() && c.rank() > 0) {
      EXPECT_LT(orthogonality_defect(c.lr().u.cview()), 1e-12 * c.rank())
          << "iteration " << it;
    }
  }

  // Value stays within a modest multiple of the tolerance of the dense
  // reference after the whole chain.
  la::DMatrix got(M, N);
  c.to_dense(got.view());
  EXPECT_LT(la::diff_fro(got.cview(), ref.cview()),
            40 * tol * (1 + la::norm_fro(ref.cview())));

  // A factored tile must reject further extend-adds (state machine).
  c.advance(TileState::Factored);
  const la::DMatrix last = la::random_rank_k(8, 8, 2, rng);
  const Tile p = compress_to_tile(kind, last.cview(), 1e-12,
                                  MemCategory::Workspace);
  EXPECT_THROW(lr2lr_add(c, p, 0, 0, kind, tol), Error);
  EXPECT_THROW(c.advance(TileState::Assembled), Error);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, Lr2LrChain,
                         ::testing::Values(CompressionKind::Rrqr,
                                           CompressionKind::Svd),
                         [](const auto& info) {
                           return info.param == CompressionKind::Svd ? "SVD"
                                                                     : "RRQR";
                         });

} // namespace
