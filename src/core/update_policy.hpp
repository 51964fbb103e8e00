#pragma once

#include <functional>
#include <memory>

#include "core/options.hpp"
#include "core/rank_memory.hpp"
#include "lowrank/tile.hpp"

namespace blr::core {

/// Identifies the panel block a policy hook is operating on, so warm hints
/// from a previous numeric pass can be looked up. `blok < 0` means the site
/// is unknown (no warm hint applies).
struct BlockSite {
  index_t blok = -1;   ///< off-diagonal blok index within the supernode panel
  bool upper = false;  ///< U-panel tile (LU) rather than L-panel
};

/// Environment a policy decision runs in: the compression configuration plus
/// the driver's per-site hooks (fault injection counts every compression
/// attempt, so policies must announce each one before compressing).
struct PolicyContext {
  lr::CompressionKind kind = lr::CompressionKind::Rrqr;
  real_t tolerance = 0;
  /// Mixed-precision storage mode: when MixedTiles, every policy demotes
  /// freshly compressed low-rank factors to fp32 (DESIGN.md §10). Dense
  /// tiles are never demoted.
  TilePrecision precision = TilePrecision::Fp64;
  /// Called once per compression site with the supernode index; may throw
  /// (deterministic CompressionFail injection).
  std::function<void(index_t)> compression_site;
  /// Rank record replayed from the previous numeric pass over the same plan
  /// (nullptr: cold factorization, no warm starts). Hints are cost-only:
  /// SVD sketches at them and verifies the tolerance (growing on mismatch),
  /// RRQR compresses cold, and proven-dense blocks may skip compression.
  const RankMemory* warm = nullptr;
  bool warm_dense_skip = true; ///< keep previously-dense blocks dense outright
  WarmCounters* warm_counters = nullptr;  ///< event counters (may be null)
};

/// Strategy object the right-looking driver is parameterized by: when to
/// compress a tile (at assembly, at elimination, or never) and what the
/// contribution products must guarantee. The driver itself contains no
/// strategy branches — Dense / Just-In-Time / Minimal-Memory are
/// interchangeable instances of this interface over one code path.
class UpdatePolicy {
public:
  virtual ~UpdatePolicy() = default;

  [[nodiscard]] virtual Strategy strategy() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Turn one gathered panel block into a Tile (representation decision at
  /// assembly). Default: keep dense (Dense / Just-In-Time). `site` names
  /// the panel block for rank warm-starting; pass a default BlockSite for
  /// the diagonal or other sites without a rank record.
  [[nodiscard]] virtual lr::Tile assemble(index_t k, BlockSite site,
                                          la::DMatrix scratch,
                                          bool compressible,
                                          const PolicyContext& ctx) const;

  /// Whether A·Bᵗ products onto low-rank targets must carry an orthonormal
  /// U. Default: no. Products onto dense targets never do (LR2GE tolerates
  /// any basis).
  [[nodiscard]] virtual bool need_ortho() const { return false; }

  /// Elimination-time hook on each panel tile, after the diagonal
  /// factorization and before the panel solves. Default: attempt to
  /// compress tiles still dense at the storage-beneficial rank limit
  /// (Just-In-Time compression; also Minimal-Memory's re-attempt on blocks
  /// that fell back to dense during an extend-add).
  virtual void at_elimination(index_t k, BlockSite site, lr::Tile& t,
                              bool compressible,
                              const PolicyContext& ctx) const;
};

/// The policy implementing opts.strategy.
std::unique_ptr<UpdatePolicy> make_update_policy(const SolverOptions& opts);

} // namespace blr::core
