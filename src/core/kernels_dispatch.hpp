#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/stats.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "lowrank/kernels.hpp"

namespace blr::core {

/// The numeric operations the factorization driver issues. Each combines
/// with the operand representations below to select a concrete kernel.
enum class KernelOp : int {
  Getrf,     ///< diagonal-block LU (partial or static pivoting)
  Potrf,     ///< diagonal-block Cholesky
  Trsm,      ///< panel solve against the diagonal (dense: a stacked group)
  Gemm,      ///< contribution product P = A·Bᵗ (dense: one grid, in place)
  Lr2Lr,     ///< extend-add of a contribution into a low-rank tile (§3.3.2)
  Lr2Ge,     ///< extend-add of a contribution into dense storage
  Compress,  ///< rank-revealing compression of a dense tile
  SolveTrsm, ///< triangular-solve diagonal apply on one RHS segment (§16)
  SolveGemm, ///< triangular-solve panel updates of one solve task (§16)
  kCount
};

/// Storage representation of an operand, the first dispatch key dimension.
enum class Rep : int { None = 0, Dense, LowRank, kCount };

inline Rep rep_of(const lr::Tile& t) {
  return t.is_lowrank() ? Rep::LowRank : Rep::Dense;
}

/// At-rest storage precision of an operand, the second dispatch key
/// dimension. All arithmetic runs in fp64 — Fp32 keys select promotion
/// wrappers that widen the stored factors before calling the same fp64
/// math, then (for in-out targets) round the result back (DESIGN.md §10).
/// `None`-rep slots reuse this dimension to carry the precision of the
/// operation's implicit target, so e.g. extend-adds into fp32 tiles get
/// their own counter row.
enum class Prec : int { Fp64 = 0, Fp32, kCount };

inline Prec prec_of(const lr::Tile& t) {
  return t.precision() == lr::Precision::Fp32 ? Prec::Fp32 : Prec::Fp64;
}

const char* kernel_op_name(KernelOp op);

/// One dense panel-tile apply of a solve task: out -= blk·in (forward) or
/// out -= blkᵗ·in (backward).
struct SolveApply {
  const lr::Tile* blk = nullptr;
  la::DConstView in;
  la::DView out;
};

/// Argument bundle passed to every dispatched kernel. Only the fields the
/// selected operation reads need to be set; the rest keep their defaults.
struct KernelCtx {
  lr::Tile* c = nullptr;        ///< in-out tile (diag, panel blok, EA target)
  const lr::Tile* a = nullptr;  ///< left operand / contribution
  const lr::Tile* b = nullptr;  ///< right operand
  la::DView view;               ///< positioned dense destination
  la::DConstView in;            ///< dense input (Compress, SolveGemm)
  std::span<const la::DConstView> rows;  ///< row bloks of Gemm[ge,ge]
  std::span<const la::DConstView> cols;  ///< column bloks of Gemm[ge,ge]
  std::span<const la::GemmTarget<real_t>> targets;  ///< its destinations
  std::span<const la::DView> outs;       ///< the dense bloks of Trsm[ge]
  la::DConstView su, sv;        ///< positioned low-rank factors (SolveGemm):
                                ///< view -= su·(svᵗ·in), always fp64 (fp32
                                ///< tiles pass their widen-cache copies)
  std::span<const SolveApply> applies;  ///< dense tile applies (SolveGemm[ge]),
                                        ///< run in order
  const la::DMatrix* diag = nullptr;       ///< factored diagonal (Trsm)
  std::vector<index_t>* piv = nullptr;     ///< pivots: out (Getrf), in (Trsm)
  index_t roff = 0, coff = 0;   ///< target offsets (extend-add)
  bool transpose = false;       ///< apply the transposed contribution
  bool need_ortho = false;      ///< product must return an orthonormal U
  bool llt = false;             ///< Cholesky-side triangular conventions
  bool upper = false;           ///< U-panel tile (LU mirror; applies pivots)
  lr::CompressionKind kind = lr::CompressionKind::Rrqr;
  real_t tolerance = 0;
  index_t max_rank = -1;        ///< compression rank cap (Compress)
  index_t warm_hint = -1;       ///< >=0: warm-start rank guess (Compress)
  real_t pivot_cutoff = 0;      ///< >0 selects static pivoting (Getrf)
  MemCategory out_cat = MemCategory::Workspace;  ///< category of `out`
  // Outputs.
  lr::Tile out;                 ///< product result (Gemm with a low-rank operand)
  std::optional<lr::LrMatrix> out_lr;  ///< compression result (Compress)
  index_t info = 0;             ///< LAPACK-style status (Getrf/Potrf)
  index_t replaced = 0;         ///< static-pivot replacements (Getrf)
  bool warm_grew = false;       ///< warm guess failed verify, full retry ran
};

using KernelFn = void (*)(KernelCtx&);

/// Registry of numeric kernels keyed on (backend, operation, repA, precA,
/// repB, precB). Every call is counted (invocations, operand bytes touched,
/// wall time) in its own entry and routed to the registered function — so a
/// new kernel (another precision, another compression family) plugs in with
/// register_kernel() and the driver loop never changes. The fp32 keys are
/// exactly such a plug-in: promotion wrappers registered alongside the fp64
/// kernels, giving per-precision call/byte counters for free in snapshot().
/// These counters are the library's only kernel clock: SolverStats::dispatch
/// exports them, and the benches group their rows by kernel-name prefix
/// (Table 2's classes, bench/e2e's layers).
///
/// The backend axis mirrors la::Backend: run() reads
/// la::current_backend() per call, so the same factorization driver reports
/// separate per-kernel counter rows under Reference and Native (A/B runs
/// need no code changes, only a backend switch). The built-in kernels are
/// backend-agnostic — their la:: calls dispatch per-backend one layer down —
/// so register_kernel() installs them under every backend; a kernel written
/// for one backend only (e.g. a future device backend's fused update) uses
/// register_kernel_for().
class KernelDispatch {
public:
  static KernelDispatch& instance();

  /// Install (or replace) the kernel for a key under EVERY backend.
  void register_kernel(KernelOp op, Rep a, Prec pa, Rep b, Prec pb,
                       const char* name, KernelFn fn);

  /// Install (or replace) the kernel for a key under one backend only.
  void register_kernel_for(la::Backend backend, KernelOp op, Rep a, Prec pa,
                           Rep b, Prec pb, const char* name, KernelFn fn);

  /// True when a kernel is registered for the key under `backend` (the
  /// dispatch-table completeness check in tests/test_backends.cpp).
  [[nodiscard]] bool has_kernel(la::Backend backend, KernelOp op, Rep a,
                                Prec pa, Rep b, Prec pb) const;

  /// Dispatch one call: counts, times, and runs the registered kernel.
  /// Operand bytes are measured on the tiles as stored (fp32 operands count
  /// their fp32 size; promotion scratch is charged to the Workspace memory
  /// category, never to the kernel's own byte counter). Throws blr::Error
  /// when no kernel is registered for the key.
  void run(KernelOp op, Rep a, Prec pa, Rep b, Prec pb, KernelCtx& ctx);

  /// Per-kernel counters since the last reset, zero-call entries omitted,
  /// in registration order.
  [[nodiscard]] std::vector<DispatchCount> snapshot() const;
  void reset_counters();

  KernelDispatch(const KernelDispatch&) = delete;
  KernelDispatch& operator=(const KernelDispatch&) = delete;

private:
  KernelDispatch();  // registers the built-in kernels

  struct Entry {
    const char* name = nullptr;
    la::Backend backend = la::Backend::Reference;  ///< table slice this entry lives in
    KernelFn fn = nullptr;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  static constexpr int kBackends = static_cast<int>(la::Backend::kCount);
  static constexpr int kOps = static_cast<int>(KernelOp::kCount);
  static constexpr int kReps = static_cast<int>(Rep::kCount);
  static constexpr int kPrecs = static_cast<int>(Prec::kCount);
  Entry& at(la::Backend be, KernelOp op, Rep a, Prec pa, Rep b, Prec pb) {
    return table_[static_cast<int>(be)][static_cast<int>(op)]
                 [static_cast<int>(a)][static_cast<int>(pa)]
                 [static_cast<int>(b)][static_cast<int>(pb)];
  }
  [[nodiscard]] const Entry& at(la::Backend be, KernelOp op, Rep a, Prec pa,
                                Rep b, Prec pb) const {
    return table_[static_cast<int>(be)][static_cast<int>(op)]
                 [static_cast<int>(a)][static_cast<int>(pa)]
                 [static_cast<int>(b)][static_cast<int>(pb)];
  }

  Entry table_[kBackends][kOps][kReps][kPrecs][kReps][kPrecs];
  std::vector<const Entry*> order_;  ///< registration order for snapshots
};

/// Driver-facing wrappers: each positions a KernelCtx and routes through the
/// registry by the operands' representations.
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
                 std::span<const la::GemmTarget<real_t>> targets);

/// LR2GE onto a positioned dense view: target -= P (or Pᵗ).
void apply_contribution(la::DView target, const lr::Tile& p, bool transpose);

/// Extend-add a contribution into a tile at (roff, coff), routed LR2LR or
/// LR2GE by the target's representation. Throws if the target is Factored.
void extend_add(lr::Tile& c, const lr::Tile& p, index_t roff, index_t coff,
                lr::CompressionKind kind, real_t tol, bool transpose);

/// Rank-revealing compression of a dense view (counted/timed); nullopt when
/// the tolerance is unreachable within max_rank.
std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank);

/// Triangular-solve diagonal apply on the RHS segment `xk` (DESIGN.md §16):
/// forward (`backward == false`) applies the local pivots (LU) then the
/// lower solve; backward applies Lᵗ (LLᵗ) or U (LU).
void solve_trsm(const lr::Tile& diag, const std::vector<index_t>& piv,
                la::DView xk, bool llt, bool backward);

/// Triangular-solve panel update of one RHS segment by a low-rank tile.
/// `u`/`v` are its factors *already widened to fp64*; forward computes
/// xout -= u·(vᵗ·xin), backward xout -= v·(uᵗ·xin).
void solve_gemm(const lr::Tile& blk, la::DConstView u, la::DConstView v,
                la::DConstView xin, la::DView xout, bool backward);

/// Triangular-solve panel updates by a run of dense tiles, applied in order
/// inside one dispatched call (one `solve_gemm[ge]` row entry).
void solve_gemm(std::span<const SolveApply> applies, bool backward);

/// Warm-started variant: seeds the kernel with `rank_guess` (the rank this
/// block reached in the previous numeric pass, plus slack). Verify-and-grow
/// semantics per lr::compress_warm; `*grew` (optional) reports whether the
/// guess failed verification and the full-cap path ran.
std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank,
                                     index_t rank_guess, bool* grew);

} // namespace dispatch

} // namespace blr::core
