#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/stats.hpp"
#include "linalg/blas.hpp"
#include "lowrank/kernels.hpp"

namespace blr::core {

/// One counter row per concrete kernel, in the order snapshot() lists them.
/// Each row is named "op[operands]": `ge` a dense operand, `lr` a low-rank
/// one, `lr32` a low-rank one stored in fp32, `c32` an fp32 extend-add
/// target. The solve rows all start with `solve_`, which is how
/// readers of the counters keep solve time out of factorization totals.
enum class KernelRow : int {
  GetrfGe,       ///< diagonal-block LU (partial or static pivoting)
  PotrfGe,       ///< diagonal-block Cholesky
  TrsmGe,        ///< panel solve of a stacked group of dense rows
  TrsmLr,        ///< panel solve of one low-rank tile
  GemmGeGe,      ///< dense update: one grid, in place
  GemmLrGe,      ///< contribution product P = A·Bᵗ with a low-rank operand
  GemmGeLr,
  GemmLrLr,
  Lr2LrGe,       ///< extend-add into a low-rank tile (§3.3.2)
  Lr2LrLr,
  Lr2GeGe,       ///< extend-add into dense storage
  Lr2GeLr,
  CompressGe,    ///< rank-revealing compression of a dense tile
  SolveTrsmGe,   ///< triangular-solve diagonal apply (§16)
  SolveGemmGe,   ///< triangular-solve dense panel applies of one task
  SolveGemmLr,   ///< triangular-solve apply of one low-rank tile
  SolveGemmLr32,
  TrsmLr32,      ///< the fp32 rows below promote, run the fp64 math, demote
  GemmLr32Ge,
  GemmGeLr32,
  GemmLr32Lr,
  GemmLrLr32,
  GemmLr32Lr32,
  Lr2LrGeC32,
  Lr2LrLrC32,
  kCount
};

/// One dense panel-tile apply of a solve task: out -= a·in (forward) or
/// out -= aᵗ·in (backward), `a` the rows of the tile the task applies (all
/// of them, except in a forward Slice task).
struct SolveApply {
  la::DConstView a;
  la::DConstView in;
  la::DView out;
};

/// The process-wide kernel counters: calls, operand bytes touched and wall
/// time per row. Every dispatch:: function below counts itself in one row.
/// These counters are the library's only kernel clock: SolverStats::dispatch
/// exports them, and the benches group their rows by kernel-name prefix
/// (Table 2's classes, bench/e2e's layers).
class KernelDispatch {
public:
  static KernelDispatch& instance();

  /// Per-kernel counters since the last reset, zero-call rows omitted, in
  /// KernelRow order.
  [[nodiscard]] std::vector<DispatchCount> snapshot() const;
  void reset_counters();

  KernelDispatch(const KernelDispatch&) = delete;
  KernelDispatch& operator=(const KernelDispatch&) = delete;

  /// Counts one kernel call for the lifetime of the scope: calls and bytes
  /// on entry, wall time on exit. Operand bytes are measured on the tiles as
  /// stored (fp32 operands count their fp32 size; promotion scratch is
  /// charged to the Workspace memory category, never to the byte counter).
  class Scope;

private:
  KernelDispatch() = default;

  struct Counter {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  static constexpr int kRows = static_cast<int>(KernelRow::kCount);
  Counter counters_[kRows];
};

/// Driver-facing kernels: each runs its kernel body inside one counter
/// scope, picking the row (and the fp32 promote/demote path) from the
/// operands' representations and precisions.
namespace dispatch {

/// Factor the diagonal tile in place (LU with partial or static pivoting,
/// or Cholesky). Returns the LAPACK-style info; `replaced` reports static-
/// pivot substitutions.
index_t factor_diag(lr::Tile& diag, std::vector<index_t>& piv, bool llt,
                    real_t pivot_cutoff, index_t& replaced);

/// TRSM one low-rank panel tile against the factored diagonal (U-side
/// tiles apply the local pivots first).
void panel_solve(const lr::Tile& diag, const std::vector<index_t>& piv,
                 lr::Tile& blk, bool llt, bool upper);

/// TRSM a stacked group of dense panel rows against the factored diagonal
/// as one la::trsm_stacked (DESIGN.md §12); U-side rows apply the local
/// pivots first. Counted under trsm[ge].
void panel_solve(const lr::Tile& diag, const std::vector<index_t>& piv,
                 std::span<const la::DView> rows, bool llt, bool upper);

/// Contribution product P = A·Bᵗ as a Workspace tile, for a pair with at
/// least one low-rank operand.
lr::Tile product(const lr::Tile& a, const lr::Tile& b, lr::CompressionKind kind,
                 real_t tol, bool need_ortho);

/// Dense update (DESIGN.md §12): every target gets C -= rows[p]·cols[q]ᵗ
/// (or its transpose) as one la::gemm_batch grid, which packs the column
/// bloks once. Counted under gemm[ge,ge].
void gemm_update(std::span<const la::DConstView> rows,
                 std::span<const la::DConstView> cols,
                 std::span<const la::GemmTarget> targets);

/// LR2GE onto a positioned dense view: target -= P (or Pᵗ). Throws if P is
/// stored in fp32 (contributions are fp64 products).
void apply_contribution(la::DView target, const lr::Tile& p, bool transpose);

/// Extend-add a contribution into a tile at (roff, coff), routed LR2LR or
/// LR2GE by the target's representation. Throws if the target is Factored
/// or P is stored in fp32.
void extend_add(lr::Tile& c, const lr::Tile& p, index_t roff, index_t coff,
                lr::CompressionKind kind, real_t tol, bool transpose);

/// Rank-revealing compression of a dense view; nullopt when the tolerance
/// is unreachable within max_rank.
std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank);

/// lr::compress_svd_warm (SVD seeded with the rank this block reached in the
/// previous numeric pass), counted in the same `compress[ge]` row.
lr::WarmCompressResult compress_svd_warm(la::DConstView a, real_t tol,
                                         index_t max_rank, index_t rank_hint);

/// Triangular-solve diagonal apply on the RHS segment `xk` (DESIGN.md §16):
/// forward (`backward == false`) applies the local pivots (LU) then the
/// lower solve; backward applies Lᵗ (LLᵗ) or U (LU).
void solve_trsm(const lr::Tile& diag, const std::vector<index_t>& piv,
                la::DView xk, bool llt, bool backward);

/// Triangular-solve panel update of one RHS segment by a low-rank tile.
/// `u`/`v` are its factors *already widened to fp64*, `u` cut to the rows
/// the call applies; forward computes xout -= u·(vᵗ·xin), backward
/// xout -= v·(uᵗ·xin). Bytes count the factor rows read at `blk`'s at-rest
/// precision.
void solve_gemm(const lr::Tile& blk, la::DConstView u, la::DConstView v,
                la::DConstView xin, la::DView xout, bool backward);

/// Triangular-solve panel updates by a run of dense tiles, applied in order
/// inside one counted call (one `solve_gemm[ge]` row entry).
void solve_gemm(std::span<const SolveApply> applies, bool backward);

} // namespace dispatch

} // namespace blr::core
