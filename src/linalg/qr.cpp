#include "linalg/qr.hpp"

#include <cmath>
#include <limits>
#include <numeric>

namespace blr::la {

real_t larfg(real_t alpha, index_t n, real_t* x, real_t& tau) {
  const real_t xnorm = nrm2(n, x);
  if (xnorm == real_t(0)) {
    tau = real_t(0);
    return alpha;
  }
  real_t beta = std::sqrt(alpha * alpha + xnorm * xnorm);
  if (alpha > real_t(0)) beta = -beta;
  tau = (beta - alpha) / beta;
  scal(n, real_t(1) / (alpha - beta), x);
  return beta;
}

namespace {

/// Apply reflector (implicit v0 = 1, tail v, factor tau) to columns of c.
/// Columns run eight at a time with their dot chains interleaved, which
/// hides the latency of a single chain; each column keeps dot's order
/// (s from 0, ascending i, then w = c[0] + s), so the bits are those of the
/// column-at-a-time loop that handles the remainder.
void apply_reflector(index_t m, const real_t* v, real_t tau, DView c) {
  if (tau == real_t(0)) return;
  constexpr index_t kChains = 8;
  index_t j = 0;
  for (; j + kChains <= c.cols; j += kChains) {
    real_t* cj[kChains];
    real_t s[kChains];
    for (index_t r = 0; r < kChains; ++r) {
      cj[r] = c.col(j + r);
      s[r] = real_t(0);
    }
    for (index_t i = 0; i + 1 < m; ++i) {
      const real_t vi = v[i];
      for (index_t r = 0; r < kChains; ++r) s[r] += vi * cj[r][i + 1];
    }
    for (index_t r = 0; r < kChains; ++r) {
      real_t w = cj[r][0] + s[r];
      w *= tau;
      cj[r][0] -= w;
      axpy(m - 1, -w, v, cj[r] + 1);
    }
  }
  for (; j < c.cols; ++j) {
    real_t* cj = c.col(j);
    real_t w = cj[0] + dot(m - 1, v, cj + 1);
    w *= tau;
    cj[0] -= w;
    axpy(m - 1, -w, v, cj + 1);
  }
}

} // namespace

void geqrf(DView a, std::vector<real_t>& tau) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), real_t(0));

  for (index_t j = 0; j < k; ++j) {
    real_t* col = a.col(j) + j;
    a(j, j) = larfg(col[0], m - j - 1, col + 1, tau[static_cast<std::size_t>(j)]);
    if (j + 1 < n) {
      apply_reflector(m - j, col + 1, tau[static_cast<std::size_t>(j)],
                      a.sub(j, j + 1, m - j, n - j - 1));
    }
  }
}

void orgqr(DView a, const std::vector<real_t>& tau) {
  const index_t m = a.rows;
  const index_t k = a.cols;
  assert(static_cast<index_t>(tau.size()) >= k);

  // Backward accumulation: Q = H_0 ... H_{k-1} * I_{m x k}.
  for (index_t j = k - 1; j >= 0; --j) {
    const real_t tj = tau[static_cast<std::size_t>(j)];
    // Apply H_j to columns j+1..k (rows j..m), then build column j.
    if (j + 1 < k) {
      apply_reflector(m - j, a.col(j) + j + 1, tj, a.sub(j, j + 1, m - j, k - j - 1));
    }
    // Column j of Q = H_j e_j = e_j - tau * v.
    real_t* cj = a.col(j);
    for (index_t i = 0; i < j; ++i) cj[i] = real_t(0);
    const index_t tail = m - j - 1;
    // v = (1, a(j+1:m, j)); H_j e_j = e_j - tau v (since vᵗ e_j = 1).
    scal(tail, -tj, cj + j + 1);
    cj[j] = real_t(1) - tj;
  }
}

void ormqr_left(Trans trans, DConstView a, const std::vector<real_t>& tau, DView c) {
  const index_t m = a.rows;
  const index_t k = static_cast<index_t>(tau.size());
  assert(c.rows == m);

  if (trans == Trans::Yes) {
    // Qᵗ C = H_{k-1} ... H_0 C.
    for (index_t j = 0; j < k; ++j) {
      apply_reflector(m - j, a.col(j) + j + 1, tau[static_cast<std::size_t>(j)],
                      c.block_rows(j, m - j));
    }
  } else {
    // Q C = H_0 ... H_{k-1} C.
    for (index_t j = k - 1; j >= 0; --j) {
      apply_reflector(m - j, a.col(j) + j + 1, tau[static_cast<std::size_t>(j)],
                      c.block_rows(j, m - j));
    }
  }
}

index_t geqp3_trunc(DView a, std::vector<index_t>& jpvt, std::vector<real_t>& tau,
                    real_t tol, index_t max_rank) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t kmax = std::min({m, n, std::max<index_t>(max_rank, 0)});
  jpvt.resize(static_cast<std::size_t>(n));
  std::iota(jpvt.begin(), jpvt.end(), index_t{0});
  tau.assign(static_cast<std::size_t>(std::min(m, n)), real_t(0));

  // Partial column norms with the classic downdate + recompute safeguard.
  std::vector<real_t> cnorm(static_cast<std::size_t>(n));
  std::vector<real_t> cnorm_ref(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    cnorm[static_cast<std::size_t>(j)] = nrm2(m, a.col(j));
    cnorm_ref[static_cast<std::size_t>(j)] = cnorm[static_cast<std::size_t>(j)];
  }
  const real_t tol3z = std::sqrt(std::numeric_limits<real_t>::epsilon());

  index_t rank = 0;
  for (index_t kk = 0; kk < kmax; ++kk) {
    // Early exit: Frobenius norm of the trailing submatrix <= tol.
    real_t trailing_sq = real_t(0);
    for (index_t j = kk; j < n; ++j) {
      const real_t c = cnorm[static_cast<std::size_t>(j)];
      trailing_sq += c * c;
    }
    if (std::sqrt(trailing_sq) <= tol) break;

    // Pivot: column with largest partial norm.
    index_t piv = kk;
    for (index_t j = kk + 1; j < n; ++j) {
      if (cnorm[static_cast<std::size_t>(j)] > cnorm[static_cast<std::size_t>(piv)]) piv = j;
    }
    if (piv != kk) {
      for (index_t i = 0; i < m; ++i) std::swap(a(i, kk), a(i, piv));
      std::swap(jpvt[static_cast<std::size_t>(kk)], jpvt[static_cast<std::size_t>(piv)]);
      std::swap(cnorm[static_cast<std::size_t>(kk)], cnorm[static_cast<std::size_t>(piv)]);
      std::swap(cnorm_ref[static_cast<std::size_t>(kk)], cnorm_ref[static_cast<std::size_t>(piv)]);
    }

    real_t* col = a.col(kk) + kk;
    a(kk, kk) = larfg(col[0], m - kk - 1, col + 1, tau[static_cast<std::size_t>(kk)]);
    if (kk + 1 < n) {
      apply_reflector(m - kk, col + 1, tau[static_cast<std::size_t>(kk)],
                      a.sub(kk, kk + 1, m - kk, n - kk - 1));
    }
    ++rank;

    // Downdate partial norms of trailing columns.
    for (index_t j = kk + 1; j < n; ++j) {
      auto& cn = cnorm[static_cast<std::size_t>(j)];
      if (cn == real_t(0)) continue;
      real_t temp = std::abs(a(kk, j)) / cn;
      temp = std::max(real_t(0), (real_t(1) + temp) * (real_t(1) - temp));
      const real_t ratio = cn / cnorm_ref[static_cast<std::size_t>(j)];
      const real_t temp2 = temp * ratio * ratio;
      if (temp2 <= tol3z) {
        // Cancellation risk: recompute from scratch over the remaining rows.
        cn = (kk + 1 < m) ? nrm2(m - kk - 1, a.col(j) + kk + 1) : real_t(0);
        cnorm_ref[static_cast<std::size_t>(j)] = cn;
      } else {
        cn *= std::sqrt(temp);
      }
    }
  }
  return rank;
}

} // namespace blr::la
