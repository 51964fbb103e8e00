#include "core/kernels_dispatch.hpp"

#include <chrono>
#include <iterator>
#include <string_view>

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
      : c_(instance().counters_[static_cast<int>(row)]) {
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

std::optional<DispatchCount> KernelDispatch::count(int row) const {
  const Counter& c = counters_[row];
  const std::uint64_t calls = c.calls.load(std::memory_order_relaxed);
  if (calls == 0) return std::nullopt;
  DispatchCount d;
  d.kernel = kRowNames[row];
  d.calls = calls;
  d.bytes = c.bytes.load(std::memory_order_relaxed);
  d.seconds = static_cast<double>(c.nanos.load(std::memory_order_relaxed)) * 1e-9;
  return d;
}

std::vector<DispatchCount> KernelDispatch::snapshot() const {
  std::vector<DispatchCount> out;
  for (int row = 0; row < kRows; ++row) {
    if (std::optional<DispatchCount> d = count(row)) out.push_back(std::move(*d));
  }
  return out;
}

void KernelDispatch::refresh_solve_rows(std::vector<DispatchCount>& rows) const {
  std::vector<DispatchCount> out;
  auto it = rows.begin();  // rows is in KernelRow order
  for (int row = 0; row < kRows; ++row) {
    const bool taken = it != rows.end() && it->kernel == kRowNames[row];
    if (std::string_view(kRowNames[row]).starts_with("solve_")) {
      if (std::optional<DispatchCount> d = count(row)) out.push_back(std::move(*d));
    } else if (taken) {
      out.push_back(std::move(*it));
    }
    if (taken) ++it;
  }
  rows = std::move(out);
}

void KernelDispatch::reset_counters() {
  for (Counter& c : counters_) {
    c.calls.store(0, std::memory_order_relaxed);
    c.bytes.store(0, std::memory_order_relaxed);
    c.nanos.store(0, std::memory_order_relaxed);
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

namespace {

/// An update operand's class: 0 dense, 1 low-rank, 2 low-rank in fp32.
int operand_class(const lr::Tile& t) {
  return !t.is_lowrank() ? 0 : is_fp32(t) ? 2 : 1;
}

/// The counter row of a product A·Bᵗ by its operands' classes.
Row product_row(int a, int b) {
  static constexpr Row kProductRows[3][3] = {
      {Row::GemmGeGe, Row::GemmGeLr, Row::GemmGeLr32},
      {Row::GemmLrGe, Row::GemmLrLr, Row::GemmLrLr32},
      {Row::GemmLr32Ge, Row::GemmLr32Lr, Row::GemmLr32Lr32}};
  return kProductRows[a][b];
}

} // namespace

lr::Tile product(const lr::Tile& a, const lr::Tile& b, lr::CompressionKind kind,
                 real_t tol, bool need_ortho) {
  BLR_CHECK(a.is_lowrank() || b.is_lowrank(),
            "dense x dense products go through gemm_update");
  const Scope scope(product_row(operand_class(a), operand_class(b)),
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

namespace {

/// lowrank_update on one chunk of pairs, whose W (Z) factors are one
/// Workspace buffer.
void lowrank_chunk(const lr::Tile& xs, const lr::LrMatrix& xf, bool row_side,
                   std::span<const LrGridPair> pairs) {
  const index_t r = xf.rank();
  // The pairs' W (Z) factors, stacked: pair p's rows start at w0[p].
  std::vector<index_t> w0(pairs.size() + 1, 0);
  for (std::size_t p = 0; p < pairs.size(); ++p)
    w0[p + 1] = w0[p] + pairs[p].other.wide->rows();
  lr::Tile wbuf = lr::Tile::make_dense(w0.back(), r, MemCategory::Workspace);
  la::DMatrix& w = wbuf.dense();
  const auto wp = [&](std::size_t p) {
    return w.sub(w0[p], 0, w0[p + 1] - w0[p], r);
  };

  // W = B·V (Z = A·V) of the dense partners as one grid against Vᵗ, which
  // runs each product in the order of the single gemm(No, No) call.
  std::vector<la::DConstView> dense;
  std::vector<la::GemmTarget> targets;
  std::uint64_t bytes = xs.storage_bytes();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const lr::Tile& o = *pairs[p].other.wide;
    if (o.is_lowrank()) continue;
    targets.push_back({static_cast<index_t>(dense.size()), 0, wp(p), false});
    dense.push_back(o.dense().cview());
    bytes += o.storage_bytes();
  }
  if (!targets.empty()) {
    const int cx = operand_class(xs);
    const Scope scope(row_side ? product_row(cx, 0) : product_row(0, cx), bytes);
    // Vᵗ is per-thread scratch, like the engine's packed operands.
    thread_local la::DMatrix vt;
    vt.reshape(r, xf.v.rows());
    la::transpose<real_t>(xf.v.cview(), vt.view());
    const la::DConstView vtv = vt.cview();
    la::gemm_batch(real_t(1), dense, std::span(&vtv, 1), targets);
  }

  // A low-rank partner Y: T = V_Aᵗ·V_B, then W = U_Y·Tᵗ (Z = U_Y·T).
  la::DMatrix t;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const LrGridPair& pr = pairs[p];
    const lr::Tile& o = *pr.other.wide;
    if (!o.is_lowrank()) continue;
    const lr::LrMatrix& of = o.lr();
    BLR_CHECK(row_side ? r <= of.rank() : r < of.rank(),
              "a low-rank pair runs on the side of its lower rank");
    const lr::Tile& a = row_side ? xs : *pr.other.stored;
    const lr::Tile& b = row_side ? *pr.other.stored : xs;
    const Scope scope(product_row(operand_class(a), operand_class(b)),
                      a.storage_bytes() + b.storage_bytes());
    const lr::LrMatrix& af = row_side ? xf : of;
    const lr::LrMatrix& bf = row_side ? of : xf;
    t.reshape(af.rank(), bf.rank());
    la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), af.v.cview(),
             bf.v.cview(), real_t(0), t.view());
    la::gemm(la::Trans::No, row_side ? la::Trans::Yes : la::Trans::No,
             real_t(1), of.u.cview(), t.cview(), real_t(0), wp(p));
  }

  // C -= U·Wᵗ (C -= Z·Uᵗ), or the transpose, per pair: one grid of depth r.
  bytes = view_bytes(xf.u.cview()) + view_bytes(w.cview());
  std::vector<la::DConstView> ws(pairs.size());
  targets.clear();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    ws[p] = wp(p);
    const auto q = static_cast<index_t>(p);
    targets.push_back({row_side ? 0 : q, row_side ? q : 0, pairs[p].c,
                       pairs[p].transposed});
    bytes += view_bytes(pairs[p].c);
  }
  const Scope scope(Row::Lr2GeLr, bytes);
  const la::DConstView u = xf.u.cview();
  if (row_side) {
    la::gemm_batch(real_t(-1), std::span(&u, 1), ws, targets);
  } else {
    la::gemm_batch(real_t(-1), ws, std::span(&u, 1), targets);
  }
}

} // namespace

void lowrank_update(UpdateOperand x, bool row_side,
                    std::span<const LrGridPair> pairs) {
  const lr::LrMatrix& xf = x.wide->lr();
  BLR_CHECK(x.wide->is_lowrank() && !is_fp32(*x.wide),
            "a low-rank grid runs on an fp64 low-rank blok");
  if (xf.rank() == 0) return;
  // Chunks of at most kStackRows rows of W (Z), or one partner, so the
  // buffer stays near one product's size whatever the number of partners.
  for (std::size_t p0 = 0, p1 = 0; p0 < pairs.size(); p0 = p1) {
    index_t rows = pairs[p0].other.wide->rows();
    for (p1 = p0 + 1; p1 < pairs.size() &&
                      rows + pairs[p1].other.wide->rows() <= la::kStackRows;
         ++p1)
      rows += pairs[p1].other.wide->rows();
    lowrank_chunk(*x.stored, xf, row_side, pairs.subspan(p0, p1 - p0));
  }
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
