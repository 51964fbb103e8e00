#include "lowrank/kernels.hpp"

#include <cmath>

#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace blr::lr {

namespace {

/// Zero-padded embedding of `u` (m x r) into a taller matrix (total x r)
/// with its rows placed at offset `roff` — the alignment step of Figure 4.
la::DMatrix pad_rows(la::DConstView u, index_t total, index_t roff) {
  la::DMatrix out(total, u.cols);
  for (index_t j = 0; j < u.cols; ++j)
    std::copy_n(u.col(j), u.rows, out.data() + j * total + roff);
  return out;
}

/// Same with every entry negated (used for the v side of C - P).
la::DMatrix pad_rows_negated(la::DConstView u, index_t total, index_t roff) {
  la::DMatrix out(total, u.cols);
  for (index_t j = 0; j < u.cols; ++j) {
    const real_t* src = u.col(j);
    real_t* dst = out.data() + j * total + roff;
    for (index_t i = 0; i < u.rows; ++i) dst[i] = -src[i];
  }
  return out;
}

/// Convert c to dense and subtract the contribution at the given offsets.
void densify_and_apply(Tile& c, const Tile& p, index_t roff, index_t coff,
                       bool transpose) {
  la::DMatrix d(c.rows(), c.cols());
  c.to_dense(d.view());
  add_contribution_dense(d, p, roff, coff, transpose);
  // add_contribution_dense works on the tile's own dense storage; here we
  // applied to a scratch matrix, so install it.
  c.set_dense(std::move(d));
}

/// Extract the upper-triangular R factor (k x n) left in `a` by geqrf.
la::DMatrix extract_r(la::DConstView a, index_t k) {
  la::DMatrix r(k, a.cols);
  for (index_t j = 0; j < a.cols; ++j) {
    const index_t iend = std::min(j + 1, k);
    for (index_t i = 0; i < iend; ++i) r(i, j) = a(i, j);
  }
  return r;
}

} // namespace

Tile ab_t_product(const Tile& a, const Tile& b, CompressionKind kind,
                  real_t tol_rel, bool need_ortho, MemCategory cat) {
  const index_t m = a.rows();
  const index_t n = b.rows();

  if (!a.is_lowrank() && !b.is_lowrank()) {
    Tile out = Tile::make_dense(m, n, cat);
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), a.dense().cview(),
             b.dense().cview(), real_t(0), out.dense().view());
    return out;
  }

  LrMatrix lr;
  if (a.is_lowrank() && !b.is_lowrank()) {
    // P = U_A·(B·V_A)ᵗ; U_A stays orthonormal.
    lr.u = a.lr().u;
    lr.v = la::DMatrix(n, a.rank());
    la::gemm(la::Trans::No, la::Trans::No, real_t(1), b.dense().cview(),
             a.lr().v.cview(), real_t(0), lr.v.view());
    return Tile::make_lowrank(m, n, std::move(lr), cat);
  }
  if (!a.is_lowrank() && b.is_lowrank()) {
    // P = (A·V_B)·U_Bᵗ.
    la::DMatrix u0(m, b.rank());
    la::gemm(la::Trans::No, la::Trans::No, real_t(1), a.dense().cview(),
             b.lr().v.cview(), real_t(0), u0.view());
    if (!need_ortho || b.rank() == 0) {
      lr.u = std::move(u0);
      lr.v = b.lr().u;
      return Tile::make_lowrank(m, n, std::move(lr), cat);
    }
    // Re-orthogonalize: u0 = Q·R, then P = Q·(U_B·Rᵗ)ᵗ.
    const index_t k = std::min(m, b.rank());
    std::vector<real_t> tau;
    la::geqrf(u0.view(), tau);
    const la::DMatrix r = extract_r(u0.cview(), k);
    lr.v = la::DMatrix(n, k);
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), b.lr().u.cview(), r.cview(),
             real_t(0), lr.v.view());
    la::DMatrix q(u0.cview().sub(0, 0, m, k));
    tau.resize(static_cast<std::size_t>(k));
    la::orgqr(q.view(), tau);
    lr.u = std::move(q);
    return Tile::make_lowrank(m, n, std::move(lr), cat);
  }

  // Both low-rank: P = U_A·(V_Aᵗ·V_B)·U_Bᵗ, T = V_Aᵗ·V_B (eqs (1)-(4)).
  const index_t ra = a.rank();
  const index_t rb = b.rank();
  la::DMatrix t(ra, rb);
  la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), a.lr().v.cview(),
           b.lr().v.cview(), real_t(0), t.view());

  if (need_ortho && ra > 0 && rb > 0) {
    auto that = compress(kind, t.cview(), tol_rel, std::min(ra, rb));
    if (that && that->rank() < std::min(ra, rb)) {
      const index_t rt = that->rank();
      lr.u = la::DMatrix(m, rt);
      la::gemm(la::Trans::No, la::Trans::No, real_t(1), a.lr().u.cview(),
               that->u.cview(), real_t(0), lr.u.view());
      lr.v = la::DMatrix(n, rt);
      la::gemm(la::Trans::No, la::Trans::No, real_t(1), b.lr().u.cview(),
               that->v.cview(), real_t(0), lr.v.view());
      return Tile::make_lowrank(m, n, std::move(lr), cat);
    }
    // Recompression did not pay off: keep the smaller-rank representation.
    if (ra <= rb) {
      lr.u = a.lr().u;  // already orthonormal
      lr.v = la::DMatrix(n, ra);
      la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), b.lr().u.cview(), t.cview(),
               real_t(0), lr.v.view());
      return Tile::make_lowrank(m, n, std::move(lr), cat);
    }
    // rb < ra: orthonormalize U_A·T so the result basis has rank rb.
    la::DMatrix u0(m, rb);
    la::gemm(la::Trans::No, la::Trans::No, real_t(1), a.lr().u.cview(), t.cview(),
             real_t(0), u0.view());
    const index_t k = std::min(m, rb);
    std::vector<real_t> tau;
    la::geqrf(u0.view(), tau);
    const la::DMatrix r = extract_r(u0.cview(), k);
    lr.v = la::DMatrix(n, k);
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), b.lr().u.cview(), r.cview(),
             real_t(0), lr.v.view());
    la::DMatrix q(u0.cview().sub(0, 0, m, k));
    tau.resize(static_cast<std::size_t>(k));
    la::orgqr(q.view(), tau);
    lr.u = std::move(q);
    return Tile::make_lowrank(m, n, std::move(lr), cat);
  }

  // No orthogonality requirement: pick the representation with smaller rank.
  if (ra <= rb) {
    lr.u = a.lr().u;
    lr.v = la::DMatrix(n, ra);
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), b.lr().u.cview(), t.cview(),
             real_t(0), lr.v.view());
  } else {
    lr.u = la::DMatrix(m, rb);
    la::gemm(la::Trans::No, la::Trans::No, real_t(1), a.lr().u.cview(), t.cview(),
             real_t(0), lr.u.view());
    lr.v = b.lr().u;
  }
  return Tile::make_lowrank(m, n, std::move(lr), cat);
}

void apply_to_dense(const Tile& p, la::DView target, bool transpose) {
  if (p.is_lowrank()) {
    if (p.rank() == 0) return;
    p.lr().subtract_from(target, transpose);
    return;
  }
  const la::DConstView d = p.dense().cview();
  if (!transpose) {
    assert(target.rows == d.rows && target.cols == d.cols);
    for (index_t j = 0; j < d.cols; ++j)
      la::axpy(d.rows, real_t(-1), d.col(j), target.col(j));
  } else {
    assert(target.rows == d.cols && target.cols == d.rows);
    for (index_t j = 0; j < target.cols; ++j)
      for (index_t i = 0; i < target.rows; ++i) target(i, j) -= d(j, i);
  }
}

void add_contribution_dense(la::DMatrix& target, const Tile& p,
                            index_t roff, index_t coff, bool transpose) {
  const index_t pm = transpose ? p.cols() : p.rows();
  const index_t pn = transpose ? p.rows() : p.cols();
  apply_to_dense(p, target.sub(roff, coff, pm, pn), transpose);
}

namespace {

/// SVD-recompressed extend-add of §3.3.2 (eqs (7)-(8)).
/// Returns false when the target should fall back to dense.
bool lr2lr_svd(Tile& c, la::DConstView pu, la::DConstView pv, index_t roff,
               index_t coff, real_t tol_rel, index_t max_rank) {
  const index_t mc = c.rows();
  const index_t nc = c.cols();
  const index_t rc = c.rank();
  const index_t rp = pu.cols;
  const index_t k = rc + rp;

  // u1 = [u_C | padded u_P], v1 = [v_C | -padded v_P].
  la::DMatrix u1(mc, k);
  la::copy<real_t>(c.lr().u.cview(), u1.sub(0, 0, mc, rc));
  for (index_t j = 0; j < rp; ++j)
    std::copy_n(pu.col(j), pu.rows, u1.data() + (rc + j) * mc + roff);
  la::DMatrix v1(nc, k);
  la::copy<real_t>(c.lr().v.cview(), v1.sub(0, 0, nc, rc));
  for (index_t j = 0; j < rp; ++j) {
    const real_t* src = pv.col(j);
    real_t* dst = v1.data() + (rc + j) * nc + coff;
    for (index_t i = 0; i < pv.rows; ++i) dst[i] = -src[i];
  }

  // Two QRs (eq. (7)), then the small SVD of T = R1·R2ᵗ.
  std::vector<real_t> tau1, tau2;
  la::geqrf(u1.view(), tau1);
  la::geqrf(v1.view(), tau2);
  const index_t k1 = std::min(mc, k);
  const index_t k2 = std::min(nc, k);
  const la::DMatrix r1 = extract_r(u1.cview(), k1);
  const la::DMatrix r2 = extract_r(v1.cview(), k2);
  la::DMatrix t(k1, k2);
  la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), r1.cview(), r2.cview(),
           real_t(0), t.view());

  auto that = compress_svd(t.cview(), tol_rel, std::min(k1, k2));
  assert(that.has_value());  // cap = min(k1,k2) always reachable
  if (that->rank() > max_rank) return false;
  const index_t rnew = that->rank();

  // u_C' = Q1·u_T and v_C' = Q2·v_T (eq. (8)), via the stored reflectors.
  la::DMatrix unew(mc, rnew);
  la::copy<real_t>(that->u.cview(), unew.sub(0, 0, k1, rnew));
  la::ormqr_left(la::Trans::No, u1.cview(), tau1, unew.view());
  la::DMatrix vnew(nc, rnew);
  la::copy<real_t>(that->v.cview(), vnew.sub(0, 0, k2, rnew));
  la::ormqr_left(la::Trans::No, v1.cview(), tau2, vnew.view());

  c.set_lowrank(LrMatrix(std::move(unew), std::move(vnew)));
  return true;
}

/// RRQR-recompressed extend-add of §3.3.2 (eqs (9)-(12)).
bool lr2lr_rrqr(Tile& c, la::DConstView pu, la::DConstView pv, index_t roff,
                index_t coff, real_t tol_rel, index_t max_rank) {
  const index_t mc = c.rows();
  const index_t nc = c.cols();
  const index_t rc = c.rank();
  const index_t rp = pu.cols;

  // Orthogonalize the padded u_P against the orthonormal u_C (eq. (9)).
  la::DMatrix up = pad_rows(pu, mc, roff);
  la::DMatrix w(rc, rp);
  la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), c.lr().u.cview(), up.cview(),
           real_t(0), w.view());
  la::DMatrix ustar = up;  // u* = u_P - u_C·w
  la::gemm(la::Trans::No, la::Trans::No, real_t(-1), c.lr().u.cview(), w.cview(),
           real_t(1), ustar.view());
  // QR of u* gives an orthonormal completion Q_S and its coefficients R_S
  // (this keeps [u_C, Q_S] orthonormal even though u* is not).
  std::vector<real_t> taus;
  la::geqrf(ustar.view(), taus);
  const index_t ks = std::min(mc, rp);
  const la::DMatrix rs = extract_r(ustar.cview(), ks);

  // M = [[I, w], [0, R_S]] so that [u_C, pad(u_P)] = [u_C, Q_S]·M (eq. (10)).
  const index_t krow = rc + ks;
  const index_t kcol = rc + rp;
  la::DMatrix m(krow, kcol);
  for (index_t i = 0; i < rc; ++i) m(i, i) = real_t(1);
  for (index_t j = 0; j < rp; ++j) {
    for (index_t i = 0; i < rc; ++i) m(i, rc + j) = w(i, j);
    for (index_t i = 0; i < ks; ++i) m(rc + i, rc + j) = rs(i, j);
  }

  // W = M·[v_C, -pad(v_P)]ᵗ, the matrix the RRQR is applied to (eq. (11)).
  la::DMatrix v1(nc, kcol);
  la::copy<real_t>(c.lr().v.cview(), v1.sub(0, 0, nc, rc));
  for (index_t j = 0; j < rp; ++j) {
    const real_t* src = pv.col(j);
    real_t* dst = v1.data() + (rc + j) * nc + coff;
    for (index_t i = 0; i < pv.rows; ++i) dst[i] = -src[i];
  }
  la::DMatrix big_w(krow, nc);
  la::gemm(la::Trans::No, la::Trans::Yes, real_t(1), m.cview(), v1.cview(),
           real_t(0), big_w.view());

  const real_t tol_abs = tol_rel * la::norm_fro(big_w.cview());
  const index_t cap = std::min({krow, nc, max_rank});
  std::vector<index_t> jpvt;
  std::vector<real_t> tauw;
  const index_t rnew = la::geqp3_trunc(big_w.view(), jpvt, tauw, tol_abs, cap);
  if (rnew == cap && cap < std::min(krow, nc)) {
    const real_t trailing = la::norm_fro(big_w.sub(rnew, rnew, krow - rnew, nc - rnew));
    if (trailing > tol_abs) return false;
  }

  // Q_k from the first rnew reflectors of W.
  la::DMatrix qw(big_w.cview().sub(0, 0, krow, rnew));
  std::vector<real_t> tau_r(tauw.begin(), tauw.begin() + rnew);
  la::orgqr(qw.view(), tau_r);

  // u_C' = [u_C, Q_S]·Q_k (eq. (12)); split the product into the two panels.
  la::DMatrix qs(ustar.cview().sub(0, 0, mc, ks));
  std::vector<real_t> taus_r(taus.begin(), taus.begin() + ks);
  la::orgqr(qs.view(), taus_r);
  la::DMatrix unew(mc, rnew);
  la::gemm(la::Trans::No, la::Trans::No, real_t(1), c.lr().u.cview(),
           qw.cview().sub(0, 0, rc, rnew), real_t(0), unew.view());
  la::gemm(la::Trans::No, la::Trans::No, real_t(1), qs.cview(),
           qw.cview().sub(rc, 0, ks, rnew), real_t(1), unew.view());

  // v_C'ᵗ = R_k·Pᵗ: scatter R rows to original column positions.
  la::DMatrix vnew(nc, rnew);
  for (index_t j = 0; j < nc; ++j) {
    const index_t orig = jpvt[static_cast<std::size_t>(j)];
    const index_t kend = std::min(j + 1, rnew);
    for (index_t kk = 0; kk < kend; ++kk) vnew(orig, kk) = big_w(kk, j);
  }

  c.set_lowrank(LrMatrix(std::move(unew), std::move(vnew)));
  return true;
}

} // namespace

void lr2lr_add(Tile& c, const Tile& p, index_t roff, index_t coff,
               CompressionKind kind, real_t tol_rel, bool transpose) {
  if (c.state() == TileState::Factored) {
    throw Error("extend-add into a tile that is already Factored");
  }
  if (!c.is_lowrank()) {
    add_contribution_dense(c.dense(), p, roff, coff, transpose);
    return;
  }

  // Bring the contribution into low-rank (u, v) form, transposed if needed.
  la::DMatrix udense, vdense;  // storage when p is dense or transposed
  la::DConstView pu, pv;
  if (p.is_lowrank()) {
    if (p.rank() == 0) return;
    pu = transpose ? p.lr().v.cview() : p.lr().u.cview();
    pv = transpose ? p.lr().u.cview() : p.lr().v.cview();
  } else {
    // Compress the dense contribution: only the transposed case needs a
    // scratch copy, the plain case reads straight from p's storage.
    const index_t pm = transpose ? p.dense().cols() : p.dense().rows();
    const index_t pn = transpose ? p.dense().rows() : p.dense().cols();
    std::optional<LrMatrix> plr;
    if (transpose) {
      la::DMatrix pd(pm, pn);
      la::transpose<real_t>(p.dense().cview(), pd.view());
      plr = compress(kind, pd.cview(), tol_rel, beneficial_rank_limit(pm, pn));
    } else {
      plr = compress(kind, p.dense().cview(), tol_rel,
                     beneficial_rank_limit(pm, pn));
    }
    if (!plr) {
      densify_and_apply(c, p, roff, coff, transpose);
      return;
    }
    if (plr->rank() == 0) return;
    udense = std::move(plr->u);
    vdense = std::move(plr->v);
    pu = udense.cview();
    pv = vdense.cview();
  }

  const index_t max_rank = beneficial_rank_limit(c.rows(), c.cols());

  if (c.rank() == 0) {
    // C was empty: adopt the (negated, padded) contribution directly.
    if (pu.cols > max_rank) {
      densify_and_apply(c, p, roff, coff, transpose);
      return;
    }
    la::DMatrix u = pad_rows(pu, c.rows(), roff);
    la::DMatrix v = pad_rows_negated(pv, c.cols(), coff);
    c.set_lowrank(LrMatrix(std::move(u), std::move(v)));
    return;
  }

  const bool ok = (kind == CompressionKind::Svd)
                      ? lr2lr_svd(c, pu, pv, roff, coff, tol_rel, max_rank)
                      : lr2lr_rrqr(c, pu, pv, roff, coff, tol_rel, max_rank);
  if (!ok) densify_and_apply(c, p, roff, coff, transpose);
}

} // namespace blr::lr
