#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace blr::core {

/// Per-block ranks learned by one numeric pass and replayed into the next
/// (DESIGN.md §15). Indexed exactly like the symbolic structure: one entry
/// per off-diagonal block of each supernode panel, in blok order, with the
/// L and U panels kept separately (they can reach different ranks under LU).
///
/// Encoding per block: r >= 0 — the block ended low-rank with rank r;
/// kDense — the block ended dense; kUnknown — no information (fresh
/// structure, or the previous pass never produced this block).
///
/// The record is only ever a *cost* hint: SVD's warm-started compressions
/// verify the tolerance and grow on mismatch (lr::compress_svd_warm), RRQR
/// ignores the ranks, and a kDense entry only skips a compression (dense is
/// exact), so a stale or wrong entry can slow a re-factorization down but
/// cannot change its accuracy.
struct RankMemory {
  static constexpr index_t kDense = -1;
  static constexpr index_t kUnknown = -2;

  struct Cblk {
    std::vector<index_t> l;  ///< L-panel block ranks, blok order
    std::vector<index_t> u;  ///< U-panel block ranks (empty under LLᵗ)
  };

  std::vector<Cblk> cblks;
  bool valid = false;  ///< set once a successful pass has been harvested

  /// The learned rank for panel block `blok` of supernode `k` (kUnknown when
  /// out of range or the record is invalid).
  [[nodiscard]] index_t hint(index_t k, bool upper, index_t blok) const {
    if (!valid || k < 0 || k >= static_cast<index_t>(cblks.size()) || blok < 0)
      return kUnknown;
    const auto& v = upper ? cblks[static_cast<std::size_t>(k)].u
                          : cblks[static_cast<std::size_t>(k)].l;
    if (blok >= static_cast<index_t>(v.size())) return kUnknown;
    return v[static_cast<std::size_t>(blok)];
  }
};

/// Warm-start event counters, aggregated across the worker threads of one
/// numeric pass and snapshotted into SolverStats::warm on success.
struct WarmCounters {
  std::atomic<std::uint64_t> attempts{0};     ///< SVD sketches seeded by a hint
  std::atomic<std::uint64_t> hits{0};         ///< sketch accepted at the τ bound
  std::atomic<std::uint64_t> grows{0};        ///< sketch failed, full SVD ran
  std::atomic<std::uint64_t> dense_skips{0};  ///< previously-dense blocks kept dense
};

} // namespace blr::core
