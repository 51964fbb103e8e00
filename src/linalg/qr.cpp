#include "linalg/qr.hpp"

#include <cmath>
#include <limits>
#include <numeric>

namespace blr::la {

template <typename T>
T larfg(T alpha, index_t n, T* x, T& tau) {
  const T xnorm = nrm2(n, x);
  if (xnorm == T(0)) {
    tau = T(0);
    return alpha;
  }
  T beta = std::sqrt(alpha * alpha + xnorm * xnorm);
  if (alpha > T(0)) beta = -beta;
  tau = (beta - alpha) / beta;
  scal(n, T(1) / (alpha - beta), x);
  return beta;
}

namespace {

/// Apply reflector (implicit v0 = 1, tail v, factor tau) to columns of c.
/// Columns run eight at a time with their dot chains interleaved, which
/// hides the latency of a single chain; each column keeps dot's order
/// (s from 0, ascending i, then w = c[0] + s), so the bits are those of the
/// column-at-a-time loop that handles the remainder.
template <typename T>
void apply_reflector(index_t m, const T* v, T tau, MatView<T> c) {
  if (tau == T(0)) return;
  constexpr index_t kChains = 8;
  index_t j = 0;
  for (; j + kChains <= c.cols; j += kChains) {
    T* cj[kChains];
    T s[kChains];
    for (index_t r = 0; r < kChains; ++r) {
      cj[r] = c.col(j + r);
      s[r] = T(0);
    }
    for (index_t i = 0; i + 1 < m; ++i) {
      const T vi = v[i];
      for (index_t r = 0; r < kChains; ++r) s[r] += vi * cj[r][i + 1];
    }
    for (index_t r = 0; r < kChains; ++r) {
      T w = cj[r][0] + s[r];
      w *= tau;
      cj[r][0] -= w;
      axpy(m - 1, -w, v, cj[r] + 1);
    }
  }
  for (; j < c.cols; ++j) {
    T* cj = c.col(j);
    T w = cj[0] + dot(m - 1, v, cj + 1);
    w *= tau;
    cj[0] -= w;
    axpy(m - 1, -w, v, cj + 1);
  }
}

} // namespace

template <typename T>
void geqrf(MatView<T> a, std::vector<T>& tau) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), T(0));

  for (index_t j = 0; j < k; ++j) {
    T* col = a.col(j) + j;
    a(j, j) = larfg(col[0], m - j - 1, col + 1, tau[static_cast<std::size_t>(j)]);
    if (j + 1 < n) {
      apply_reflector(m - j, col + 1, tau[static_cast<std::size_t>(j)],
                      a.sub(j, j + 1, m - j, n - j - 1));
    }
  }
}

template <typename T>
void orgqr(MatView<T> a, const std::vector<T>& tau) {
  const index_t m = a.rows;
  const index_t k = a.cols;
  assert(static_cast<index_t>(tau.size()) >= k);

  // Backward accumulation: Q = H_0 ... H_{k-1} * I_{m x k}.
  for (index_t j = k - 1; j >= 0; --j) {
    const T tj = tau[static_cast<std::size_t>(j)];
    // Apply H_j to columns j+1..k (rows j..m), then build column j.
    if (j + 1 < k) {
      apply_reflector(m - j, a.col(j) + j + 1, tj, a.sub(j, j + 1, m - j, k - j - 1));
    }
    // Column j of Q = H_j e_j = e_j - tau * v.
    T* cj = a.col(j);
    for (index_t i = 0; i < j; ++i) cj[i] = T(0);
    const index_t tail = m - j - 1;
    // v = (1, a(j+1:m, j)); H_j e_j = e_j - tau v (since vᵗ e_j = 1).
    scal(tail, -tj, cj + j + 1);
    cj[j] = T(1) - tj;
  }
}

template <typename T>
void ormqr_left(Trans trans, ConstView<T> a, const std::vector<T>& tau, MatView<T> c) {
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

template <typename T>
index_t geqp3_trunc(MatView<T> a, std::vector<index_t>& jpvt, std::vector<T>& tau,
                    T tol, index_t max_rank) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t kmax = std::min({m, n, std::max<index_t>(max_rank, 0)});
  jpvt.resize(static_cast<std::size_t>(n));
  std::iota(jpvt.begin(), jpvt.end(), index_t{0});
  tau.assign(static_cast<std::size_t>(std::min(m, n)), T(0));

  // Partial column norms with the classic downdate + recompute safeguard.
  std::vector<T> cnorm(static_cast<std::size_t>(n));
  std::vector<T> cnorm_ref(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    cnorm[static_cast<std::size_t>(j)] = nrm2(m, a.col(j));
    cnorm_ref[static_cast<std::size_t>(j)] = cnorm[static_cast<std::size_t>(j)];
  }
  const T tol3z = std::sqrt(std::numeric_limits<T>::epsilon());

  index_t rank = 0;
  for (index_t kk = 0; kk < kmax; ++kk) {
    // Early exit: Frobenius norm of the trailing submatrix <= tol.
    T trailing_sq = T(0);
    for (index_t j = kk; j < n; ++j) {
      const T c = cnorm[static_cast<std::size_t>(j)];
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

    T* col = a.col(kk) + kk;
    a(kk, kk) = larfg(col[0], m - kk - 1, col + 1, tau[static_cast<std::size_t>(kk)]);
    if (kk + 1 < n) {
      apply_reflector(m - kk, col + 1, tau[static_cast<std::size_t>(kk)],
                      a.sub(kk, kk + 1, m - kk, n - kk - 1));
    }
    ++rank;

    // Downdate partial norms of trailing columns.
    for (index_t j = kk + 1; j < n; ++j) {
      auto& cn = cnorm[static_cast<std::size_t>(j)];
      if (cn == T(0)) continue;
      T temp = std::abs(a(kk, j)) / cn;
      temp = std::max(T(0), (T(1) + temp) * (T(1) - temp));
      const T ratio = cn / cnorm_ref[static_cast<std::size_t>(j)];
      const T temp2 = temp * ratio * ratio;
      if (temp2 <= tol3z) {
        // Cancellation risk: recompute from scratch over the remaining rows.
        cn = (kk + 1 < m) ? nrm2(m - kk - 1, a.col(j) + kk + 1) : T(0);
        cnorm_ref[static_cast<std::size_t>(j)] = cn;
      } else {
        cn *= std::sqrt(temp);
      }
    }
  }
  return rank;
}

#define BLR_INSTANTIATE_QR(T)                                                            \
  template T larfg<T>(T, index_t, T*, T&);                                               \
  template void geqrf<T>(MatView<T>, std::vector<T>&);                                   \
  template void orgqr<T>(MatView<T>, const std::vector<T>&);                             \
  template void ormqr_left<T>(Trans, ConstView<T>, const std::vector<T>&, MatView<T>);   \
  template index_t geqp3_trunc<T>(MatView<T>, std::vector<index_t>&, std::vector<T>&, T, \
                                  index_t);

BLR_INSTANTIATE_QR(float)
BLR_INSTANTIATE_QR(double)

#undef BLR_INSTANTIATE_QR

} // namespace blr::la
