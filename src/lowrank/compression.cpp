#include "lowrank/compression.hpp"

#include <algorithm>
#include <cmath>

#include "common/prng.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace blr::lr {

std::optional<LrMatrix> compress_svd(la::DConstView a, real_t tol_rel, index_t max_rank) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t kmax = std::min(m, n);

  la::DMatrix u;
  la::DMatrix v;
  std::vector<real_t> sigma;
  la::svd(a, u, sigma, v);

  // ‖A‖_F² = Σ σ_k²; pick the smallest r with the tail below tol_rel·‖A‖_F.
  // The tails are accumulated smallest-first (suffix sums): subtracting from
  // the total instead would leave an O(eps·‖A‖²) cancellation floor that can
  // never pass tolerances near machine precision.
  std::vector<real_t> suffix_sq(static_cast<std::size_t>(kmax) + 1, 0);
  for (index_t k = kmax - 1; k >= 0; --k) {
    const real_t s = sigma[static_cast<std::size_t>(k)];
    suffix_sq[static_cast<std::size_t>(k)] = suffix_sq[static_cast<std::size_t>(k) + 1] + s * s;
  }
  const real_t tol_sq = tol_rel * tol_rel * suffix_sq[0];

  index_t rank = 0;
  while (rank < kmax && suffix_sq[static_cast<std::size_t>(rank)] > tol_sq) ++rank;
  if (rank > max_rank) return std::nullopt;

  LrMatrix out;
  out.u = la::DMatrix(m, rank);
  out.v = la::DMatrix(n, rank);
  for (index_t k = 0; k < rank; ++k) {
    std::copy_n(u.data() + k * m, m, out.u.data() + k * m);
    const real_t s = sigma[static_cast<std::size_t>(k)];
    const real_t* vk = v.data() + k * n;
    real_t* ok = out.v.data() + k * n;
    for (index_t i = 0; i < n; ++i) ok[i] = s * vk[i];
  }
  return out;
}

std::optional<LrMatrix> compress_rrqr(la::DConstView a, real_t tol_rel, index_t max_rank) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t kmax = std::min(m, n);
  const index_t cap = std::min(kmax, std::max<index_t>(max_rank, 0));

  la::DMatrix w(a);  // working copy
  const real_t tol_abs = tol_rel * la::norm_fro(a);

  std::vector<index_t> jpvt;
  std::vector<real_t> tau;
  const index_t rank = la::geqp3_trunc(w.view(), jpvt, tau, tol_abs, cap);

  if (rank == cap && cap < kmax) {
    // Stopped by the rank cap, not the tolerance: check the trailing block.
    const real_t trailing = la::norm_fro(w.sub(rank, rank, m - rank, n - rank));
    if (trailing > tol_abs) return std::nullopt;
  }

  LrMatrix out;
  // U = the first `rank` Householder columns expanded.
  out.u = la::DMatrix(m, rank);
  if (rank > 0) {
    la::copy<real_t>(w.sub(0, 0, m, rank), out.u.view());
    std::vector<real_t> tau_r(tau.begin(), tau.begin() + rank);
    la::orgqr(out.u.view(), tau_r);
  }
  // Vᵗ = R·Pᵗ: scatter the rows of R into the original column positions.
  out.v = la::DMatrix(n, rank);
  for (index_t j = 0; j < n; ++j) {
    const index_t orig = jpvt[static_cast<std::size_t>(j)];
    const index_t kend = std::min(j + 1, rank);
    for (index_t k = 0; k < kend; ++k) out.v(orig, k) = w(k, j);
  }
  return out;
}

std::optional<LrMatrix> compress_randomized_from(la::DConstView a, real_t tol_rel,
                                                 index_t max_rank, index_t sketch0) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t kmax = std::min(m, n);
  constexpr index_t oversample = 8;

  const real_t anorm = la::norm_fro(a);
  if (anorm == real_t(0)) {
    return LrMatrix(la::DMatrix(m, 0), la::DMatrix(n, 0));
  }
  const real_t tol_abs_sq = tol_rel * tol_rel * anorm * anorm;

  // Deterministic sketch: reproducibility matters more than independence
  // between calls here.
  Prng rng(0x5deece66dull ^ (static_cast<std::uint64_t>(m) << 20) ^
           static_cast<std::uint64_t>(n));

  index_t l = std::clamp<index_t>(sketch0, 1, kmax);
  for (;;) {
    // Sample the range: Y = A·G, orthonormalize, project B = Qᵗ·A.
    la::DMatrix g(n, l);
    for (index_t j = 0; j < l; ++j)
      for (index_t i = 0; i < n; ++i) g(i, j) = static_cast<real_t>(rng.normal());
    la::DMatrix y(m, l);
    la::gemm(la::Trans::No, la::Trans::No, real_t(1), a, g.cview(), real_t(0), y.view());
    std::vector<real_t> tau;
    la::geqrf(y.view(), tau);
    la::orgqr(y.view(), tau);  // y := Q (m x l)
    la::DMatrix b(l, n);
    la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), y.cview(), a, real_t(0), b.view());

    // Residual ‖A − Q·B‖ computed directly: the cheaper ‖A‖² − ‖B‖² identity
    // has an O(eps·‖A‖²) cancellation floor that cannot certify tolerances
    // below ~sqrt(eps).
    la::DMatrix resid(m, n);
    la::copy<real_t>(a, resid.view());
    la::gemm(la::Trans::No, la::Trans::No, real_t(-1), y.cview(), b.cview(),
             real_t(1), resid.view());
    const real_t rnorm = la::norm_fro(resid.cview());
    const real_t resid_sq = rnorm * rnorm;

    if (resid_sq <= tol_abs_sq || l >= kmax) {
      if (resid_sq > tol_abs_sq) return std::nullopt;  // full width, still short
      // Truncate B with a small SVD, spending the remaining error budget.
      la::DMatrix ub, vb;
      std::vector<real_t> sigma;
      la::svd(b.cview(), ub, sigma, vb);
      std::vector<real_t> suffix_sq(sigma.size() + 1, 0);
      for (index_t k = static_cast<index_t>(sigma.size()) - 1; k >= 0; --k) {
        const real_t s = sigma[static_cast<std::size_t>(k)];
        suffix_sq[static_cast<std::size_t>(k)] =
            suffix_sq[static_cast<std::size_t>(k) + 1] + s * s;
      }
      index_t rank = 0;
      while (rank < static_cast<index_t>(sigma.size()) &&
             resid_sq + suffix_sq[static_cast<std::size_t>(rank)] > tol_abs_sq) {
        ++rank;
      }
      if (rank > max_rank) return std::nullopt;

      LrMatrix out;
      out.u = la::DMatrix(m, rank);
      la::gemm(la::Trans::No, la::Trans::No, real_t(1), y.cview(),
               ub.cview().sub(0, 0, l, rank), real_t(0), out.u.view());
      out.v = la::DMatrix(n, rank);
      for (index_t k = 0; k < rank; ++k) {
        const real_t s = sigma[static_cast<std::size_t>(k)];
        for (index_t i = 0; i < n; ++i) out.v(i, k) = s * vb(i, k);
      }
      return out;
    }
    // Not enough range captured: give up early once the sketch is already
    // well past the useful rank, otherwise double it.
    if (l >= std::min(kmax, 2 * max_rank + oversample)) return std::nullopt;
    l = std::min(kmax, 2 * l);
  }
}

std::optional<LrMatrix> compress(CompressionKind kind, la::DConstView a,
                                 real_t tol_rel, index_t max_rank) {
  switch (kind) {
    case CompressionKind::Svd: return compress_svd(a, tol_rel, max_rank);
    case CompressionKind::Rrqr: return compress_rrqr(a, tol_rel, max_rank);
  }
  return std::nullopt;
}

WarmCompressResult compress_svd_warm(la::DConstView a, real_t tol_rel,
                                     index_t max_rank, index_t rank_hint) {
  // One sketch sized by the hint, verified by its explicit residual; only
  // when the values moved enough to outgrow it do we pay the full
  // deterministic SVD again.
  auto sketch = compress_randomized_from(
      a, tol_rel, max_rank, std::min(rank_hint + kWarmSketchSlack, max_rank));
  if (sketch) return {std::move(sketch), false};
  return {compress_svd(a, tol_rel, max_rank), true};
}

Tile compress_to_tile(CompressionKind kind, la::DConstView a, real_t tol_rel,
                      MemCategory cat) {
  auto lr = compress(kind, a, tol_rel, beneficial_rank_limit(a.rows, a.cols));
  if (lr) return Tile::make_lowrank(a.rows, a.cols, std::move(*lr), cat);
  Tile t = Tile::make_dense(a.rows, a.cols, cat);
  la::copy<real_t>(a, t.dense().view());
  return t;
}

} // namespace blr::lr
