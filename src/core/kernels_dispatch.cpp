#include "core/kernels_dispatch.hpp"

#include <chrono>
#include <iterator>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/factorizations.hpp"

namespace blr::core {

namespace {

/// Counter-row names, indexed by KernelRow.
constexpr const char* kRowNames[] = {
    "getrf[ge]",        "potrf[ge]",        "trsm[ge]",         "trsm[lr]",
    "gemm[ge,ge]",      "gemm[lr,ge]",      "gemm[ge,lr]",      "gemm[lr,lr]",
    "lr2lr[ge]",        "lr2lr[lr]",        "lr2ge[ge]",        "lr2ge[lr]",
    "compress[ge]",     "solve_trsm[ge]",   "solve_gemm[ge]",   "solve_gemm[lr]",
    "solve_gemm[lr32]", "trsm[lr32]",       "gemm[lr32,ge]",    "gemm[ge,lr32]",
    "gemm[lr32,lr]",    "gemm[lr,lr32]",    "gemm[lr32,lr32]",  "lr2lr[ge,c32]",
    "lr2lr[lr,c32]"};
static_assert(std::size(kRowNames) == static_cast<std::size_t>(KernelRow::kCount));

template <typename View>
std::uint64_t view_bytes(const View& v) {
  return static_cast<std::uint64_t>(v.rows) *
         static_cast<std::uint64_t>(v.cols) * sizeof(real_t);
}

bool is_fp32(const lr::Tile& t) { return t.precision() == lr::Precision::Fp32; }

} // namespace

class KernelDispatch::Scope {
public:
  Scope(KernelRow row, std::uint64_t bytes)
      : c_(instance().counters_[static_cast<int>(la::current_backend())]
                               [static_cast<int>(row)]) {
    c_.calls.fetch_add(1, std::memory_order_relaxed);
    c_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  ~Scope() {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    c_.nanos.fetch_add(ns, std::memory_order_relaxed);
  }

private:
  Counter& c_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

KernelDispatch& KernelDispatch::instance() {
  static KernelDispatch d;
  return d;
}

std::vector<DispatchCount> KernelDispatch::snapshot() const {
  std::vector<DispatchCount> out;
  for (int row = 0; row < kRows; ++row) {
    for (int be = 0; be < kBackends; ++be) {
      const Counter& c = counters_[be][row];
      const std::uint64_t calls = c.calls.load(std::memory_order_relaxed);
      if (calls == 0) continue;
      DispatchCount d;
      d.kernel = kRowNames[row];
      d.backend = la::backend_name(static_cast<la::Backend>(be));
      d.calls = calls;
      d.bytes = c.bytes.load(std::memory_order_relaxed);
      d.seconds =
          static_cast<double>(c.nanos.load(std::memory_order_relaxed)) * 1e-9;
      out.push_back(std::move(d));
    }
  }
  return out;
}

void KernelDispatch::reset_counters() {
  for (auto& backend : counters_) {
    for (Counter& c : backend) {
      c.calls.store(0, std::memory_order_relaxed);
      c.bytes.store(0, std::memory_order_relaxed);
      c.nanos.store(0, std::memory_order_relaxed);
    }
  }
}

namespace dispatch {

using Row = KernelRow;
using Scope = KernelDispatch::Scope;

index_t factor_diag(lr::Tile& diag, std::vector<index_t>& piv, bool llt,
                    real_t pivot_cutoff, index_t& replaced) {
  replaced = 0;
  const Scope scope(llt ? Row::PotrfGe : Row::GetrfGe, diag.storage_bytes());
  if (llt) return la::potrf(diag.dense().view());
  if (pivot_cutoff > 0) {
    la::getrf_static(diag.dense().view(), piv, pivot_cutoff, replaced);
    return 0;
  }
  return la::getrf(diag.dense().view(), piv);
}

void panel_solve(const lr::Tile& diag, const std::vector<index_t>& piv,
                 lr::Tile& blk, bool llt, bool upper) {
  BLR_CHECK(blk.is_lowrank(), "dense panel rows go through the stacked solve");
  // An fp32 tile is exclusively owned here, so it widens in place, runs the
  // fp64 solve and rounds back down.
  const bool fp32 = is_fp32(blk);
  const Scope scope(fp32 ? Row::TrsmLr32 : Row::TrsmLr, blk.storage_bytes());
  if (fp32) blk.promote_lowrank();
  const la::DConstView d = diag.dense().cview();
  la::DMatrix& v = blk.lr().v;
  if (!upper) {
    if (llt) {
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
               la::Diag::NonUnit, real_t(1), d, v.view());
    } else {
      la::trsm(la::Side::Left, la::Uplo::Upper, la::Trans::Yes,
               la::Diag::NonUnit, real_t(1), d, v.view());
    }
  } else {
    // U-side: V rows carry the width axis — swap V rows, then unit-lower
    // solve.
    for (std::size_t j = 0; j < piv.size(); ++j) {
      const index_t p = piv[j];
      if (p != static_cast<index_t>(j)) {
        for (index_t r = 0; r < v.cols(); ++r)
          std::swap(v(static_cast<index_t>(j), r), v(p, r));
      }
    }
    la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No, la::Diag::Unit,
             real_t(1), d, v.view());
  }
  if (fp32) blk.demote_lowrank();
}

void panel_solve(const lr::Tile& diag, const std::vector<index_t>& piv,
                 std::span<const la::DView> rows, bool llt, bool upper) {
  std::uint64_t bytes = 0;
  for (const la::DView& r : rows) bytes += view_bytes(r);
  const Scope scope(Row::TrsmGe, bytes);
  // One stacked group of dense panel rows (DESIGN.md §12).
  const la::DConstView d = diag.dense().cview();
  if (!upper) {
    if (llt) {
      la::trsm_stacked(la::Uplo::Lower, la::Trans::Yes, la::Diag::NonUnit, d,
                       rows);
    } else {
      la::trsm_stacked(la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit, d,
                       rows);
    }
    return;
  }
  // U-side (LU mirror): local pivoting permutes the supernode's rows = the
  // width axis of the stored transpose, i.e. column swaps here.
  for (const la::DView& r : rows) {
    for (std::size_t j = 0; j < piv.size(); ++j) {
      const index_t p = piv[j];
      if (p != static_cast<index_t>(j)) {
        for (index_t i = 0; i < r.rows; ++i)
          std::swap(r(i, static_cast<index_t>(j)), r(i, p));
      }
    }
  }
  la::trsm_stacked(la::Uplo::Lower, la::Trans::Yes, la::Diag::Unit, d, rows);
}

lr::Tile product(const lr::Tile& a, const lr::Tile& b, lr::CompressionKind kind,
                 real_t tol, bool need_ortho) {
  BLR_CHECK(a.is_lowrank() || b.is_lowrank(),
            "dense x dense products go through gemm_update");
  // Row by each operand's class: 0 dense, 1 low-rank, 2 low-rank in fp32.
  static constexpr Row kProductRows[3][3] = {
      {Row::GemmGeGe, Row::GemmGeLr, Row::GemmGeLr32},
      {Row::GemmLrGe, Row::GemmLrLr, Row::GemmLrLr32},
      {Row::GemmLr32Ge, Row::GemmLr32Lr, Row::GemmLr32Lr32}};
  const auto cls = [](const lr::Tile& t) {
    return !t.is_lowrank() ? 0 : is_fp32(t) ? 2 : 1;
  };
  const Scope scope(kProductRows[cls(a)][cls(b)],
                    a.storage_bytes() + b.storage_bytes());
  // Operands may be read concurrently by other update tasks, so fp32 ones
  // widen into Workspace-tracked copies, never in place.
  lr::Tile sa, sb;
  const lr::Tile* pa = &a;
  const lr::Tile* pb = &b;
  if (is_fp32(a)) {
    sa = lr::promote_copy(a);
    pa = &sa;
  }
  if (is_fp32(b)) {
    sb = lr::promote_copy(b);
    pb = &sb;
  }
  return lr::ab_t_product(*pa, *pb, kind, tol, need_ortho,
                          MemCategory::Workspace);
}

void gemm_update(std::span<const la::DConstView> rows,
                 std::span<const la::DConstView> cols,
                 std::span<const la::GemmTarget> targets) {
  std::uint64_t bytes = 0;
  for (const la::DConstView& r : rows) bytes += view_bytes(r);
  for (const la::DConstView& c : cols) bytes += view_bytes(c);
  for (const la::GemmTarget& t : targets) bytes += view_bytes(t.c);
  const Scope scope(Row::GemmGeGe, bytes);
  // C -= row_p·col_qᵗ (or its transpose) per target, the column bloks
  // packed once.
  la::gemm_batch(real_t(-1), rows, cols, targets);
}

void apply_contribution(la::DView target, const lr::Tile& p, bool transpose) {
  BLR_CHECK(!is_fp32(p), "contributions are fp64 products");
  const Scope scope(p.is_lowrank() ? Row::Lr2GeLr : Row::Lr2GeGe,
                    p.storage_bytes() + view_bytes(target));
  lr::apply_to_dense(p, target, transpose);
}

void extend_add(lr::Tile& c, const lr::Tile& p, index_t roff, index_t coff,
                lr::CompressionKind kind, real_t tol, bool transpose) {
  if (c.state() == lr::TileState::Factored) {
    throw Error("extend-add into a tile that is already Factored");
  }
  BLR_CHECK(!is_fp32(p), "contributions are fp64 products");
  const std::uint64_t bytes = p.storage_bytes() + c.storage_bytes();
  if (!c.is_lowrank()) {
    const Scope scope(p.is_lowrank() ? Row::Lr2GeLr : Row::Lr2GeGe, bytes);
    lr::add_contribution_dense(c.dense(), p, roff, coff, transpose);
    return;
  }
  // An fp32 target is held under its supernode's lock, so it widens in
  // place and, unless the extend-add fell back to dense storage, rounds
  // back down: demotion is sticky.
  const bool c32 = is_fp32(c);
  const Row row = p.is_lowrank() ? (c32 ? Row::Lr2LrLrC32 : Row::Lr2LrLr)
                                 : (c32 ? Row::Lr2LrGeC32 : Row::Lr2LrGe);
  const Scope scope(row, bytes);
  if (c32) c.promote_lowrank();
  lr::lr2lr_add(c, p, roff, coff, kind, tol, transpose);
  if (c32 && c.is_lowrank()) c.demote_lowrank();
}

std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank) {
  const Scope scope(Row::CompressGe, view_bytes(a));
  return lr::compress(kind, a, tol, max_rank);
}

lr::WarmCompressResult compress_svd_warm(la::DConstView a, real_t tol,
                                         index_t max_rank, index_t rank_hint) {
  const Scope scope(Row::CompressGe, view_bytes(a));
  return lr::compress_svd_warm(a, tol, max_rank, rank_hint);
}

// ---- triangular-solve kernels (DESIGN.md §16) ----------------------------
//
// Dense tile applies arrive as one run per task, low-rank ones one tile per
// call; `backward` selects the sweep direction.

void solve_trsm(const lr::Tile& diag, const std::vector<index_t>& piv,
                la::DView xk, bool llt, bool backward) {
  const Scope scope(Row::SolveTrsmGe, view_bytes(xk));
  const la::DConstView d = diag.dense().cview();
  if (!backward) {
    // Forward: local pivot swaps (LU only), then the unit/non-unit lower
    // solve of L.
    if (!llt) {
      for (std::size_t j = 0; j < piv.size(); ++j) {
        const index_t p = piv[j];
        if (p != static_cast<index_t>(j)) {
          for (index_t r = 0; r < xk.cols; ++r)
            std::swap(xk(static_cast<index_t>(j), r), xk(p, r));
        }
      }
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No, la::Diag::Unit,
               real_t(1), d, xk);
    } else {
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
               la::Diag::NonUnit, real_t(1), d, xk);
    }
    return;
  }
  // Backward: Lᵗ for Cholesky, U for LU.
  if (llt) {
    la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::Yes, la::Diag::NonUnit,
             real_t(1), d, xk);
  } else {
    la::trsm(la::Side::Left, la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit,
             real_t(1), d, xk);
  }
}

void solve_gemm(const lr::Tile& blk, la::DConstView u, la::DConstView v,
                la::DConstView xin, la::DView xout, bool backward) {
  // An fp32 tile runs the same fp64 math on its widen-cache copies; its row
  // only separates the counters per at-rest precision.
  const bool fp32 = is_fp32(blk);
  const std::uint64_t factor_entries =
      static_cast<std::uint64_t>(u.rows + v.rows) *
      static_cast<std::uint64_t>(u.cols);
  const Scope scope(fp32 ? Row::SolveGemmLr32 : Row::SolveGemmLr,
                    factor_entries * (fp32 ? sizeof(la::single_t) : sizeof(real_t)) +
                        view_bytes(xin) + view_bytes(xout));
  // Forward applies u·(vᵗ·xin), backward v·(uᵗ·xin): two rank-sized gemvs
  // per RHS column, tmp = svᵗ·xin, xout -= su·tmp. tmp is per-thread scratch
  // that grows to the largest rank × nrhs seen; beta = 0 never reads it.
  const la::DConstView su = backward ? v : u;
  const la::DConstView sv = backward ? u : v;
  thread_local std::vector<real_t> scratch;
  const std::size_t need =
      static_cast<std::size_t>(su.cols) * static_cast<std::size_t>(xin.cols);
  if (scratch.size() < need) scratch.resize(need);
  const la::DView tmp(scratch.data(), su.cols, xin.cols, su.cols);
  la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), sv, xin, real_t(0), tmp);
  la::gemm(la::Trans::No, la::Trans::No, real_t(-1), su, la::DConstView(tmp),
           real_t(1), xout);
}

void solve_gemm(std::span<const SolveApply> applies, bool backward) {
  std::uint64_t bytes = 0;
  for (const SolveApply& ap : applies)
    bytes += view_bytes(ap.a) + view_bytes(ap.in) + view_bytes(ap.out);
  const Scope scope(Row::SolveGemmGe, bytes);
  // Forward: out -= blk·in; backward: out -= blkᵗ·in. In order: applies of
  // one task may accumulate into the same rows.
  const la::Trans ta = backward ? la::Trans::Yes : la::Trans::No;
  for (const SolveApply& ap : applies)
    la::gemm(ta, la::Trans::No, real_t(-1), ap.a, ap.in, real_t(1), ap.out);
}

} // namespace dispatch

} // namespace blr::core
