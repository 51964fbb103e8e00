#pragma once

#include <optional>

#include "lowrank/tile.hpp"

namespace blr::lr {

/// Rank-revealing kernel family (§3.1 of the paper): SVD finds the smallest
/// ranks but costs Θ(m²n + n³); RRQR stops at the numerical rank for Θ(mnr).
enum class CompressionKind { Svd, Rrqr };

/// Largest rank at which the U·Vᵗ form stores fewer entries than the dense
/// block: r · (m + n) < m · n.
inline index_t beneficial_rank_limit(index_t m, index_t n) {
  if (m + n == 0) return 0;
  return (m * n - 1) / (m + n);  // strictly beneficial
}

/// Compress `a` to ‖A − Â‖_F <= tol_rel·‖A‖_F with at most `max_rank`
/// columns. Returns std::nullopt when the tolerance cannot be met within
/// max_rank (the caller keeps the block dense). The returned U has
/// orthonormal columns.
std::optional<LrMatrix> compress_svd(la::DConstView a, real_t tol_rel, index_t max_rank);
std::optional<LrMatrix> compress_rrqr(la::DConstView a, real_t tol_rel, index_t max_rank);

std::optional<LrMatrix> compress(CompressionKind kind, la::DConstView a,
                                 real_t tol_rel, index_t max_rank);

/// Adaptive randomized range-finder (Halko-Martinsson-Tropp) followed by a
/// small SVD, starting from a Gaussian sketch `sketch0` columns wide: the
/// sketch doubles and the residual is re-verified until the tolerance
/// holds, so a too-small start costs extra iterations but never accuracy.
/// Same contract as compress_svd. The sketch is seeded by the block shape,
/// so equal inputs give equal bits.
std::optional<LrMatrix> compress_randomized_from(la::DConstView a, real_t tol_rel,
                                                 index_t max_rank, index_t sketch0);

/// Sketch width headroom over a replayed rank in compress_svd_warm: absorbs
/// small rank growth between passes (8) plus the range-finder's
/// oversampling (8).
inline constexpr index_t kWarmSketchSlack = 16;

/// Outcome of a warm-started SVD compression (DESIGN.md §15): `lr` follows
/// the same contract as compress_svd(); `grew` records that the sketch
/// failed and the full SVD ran (the grow event counted in
/// SolverStats::warm).
struct WarmCompressResult {
  std::optional<LrMatrix> lr;
  bool grew = false;
};

/// SVD compression seeded with `rank_hint` (>= 0), the rank this block
/// reached in the previous numeric pass: one randomized sketch of width
/// min(rank_hint + kWarmSketchSlack, max_rank), accepted only once its
/// explicit residual meets the tolerance; otherwise the full compress_svd
/// runs. A stale hint can therefore change cost and bits, never the error
/// bound.
WarmCompressResult compress_svd_warm(la::DConstView a, real_t tol_rel,
                                     index_t max_rank, index_t rank_hint);

/// Compress with the storage-beneficial rank limit; returns a low-rank Tile
/// on success, a dense copy otherwise.
Tile compress_to_tile(CompressionKind kind, la::DConstView a, real_t tol_rel,
                      MemCategory cat = MemCategory::Factors);

} // namespace blr::lr
