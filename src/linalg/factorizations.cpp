#include "linalg/factorizations.hpp"

#include <cmath>

namespace blr::la {

index_t getrf(DView a, std::vector<index_t>& ipiv) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t k = std::min(m, n);
  ipiv.assign(static_cast<std::size_t>(k), 0);
  index_t info = 0;

  for (index_t j = 0; j < k; ++j) {
    // Pivot search in column j, rows j..m.
    index_t piv = j;
    real_t pmax = std::abs(a(j, j));
    for (index_t i = j + 1; i < m; ++i) {
      const real_t v = std::abs(a(i, j));
      if (v > pmax) {
        pmax = v;
        piv = i;
      }
    }
    ipiv[static_cast<std::size_t>(j)] = piv;
    if (pmax == real_t(0)) {
      if (info == 0) info = j + 1;
      continue;  // LAPACK semantics: record and proceed
    }
    if (piv != j) {
      for (index_t c = 0; c < n; ++c) std::swap(a(j, c), a(piv, c));
    }
    // Scale multipliers and rank-1 update of the trailing submatrix.
    const real_t inv_pivot = real_t(1) / a(j, j);
    scal(m - j - 1, inv_pivot, a.col(j) + j + 1);
    for (index_t c = j + 1; c < n; ++c) {
      const real_t ajc = a(j, c);
      if (ajc != real_t(0)) axpy(m - j - 1, -ajc, a.col(j) + j + 1, a.col(c) + j + 1);
    }
  }
  return info;
}

void getrf_static(DView a, std::vector<index_t>& ipiv, real_t threshold,
                  index_t& replaced) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t k = std::min(m, n);
  ipiv.assign(static_cast<std::size_t>(k), 0);

  for (index_t j = 0; j < k; ++j) {
    index_t piv = j;
    real_t pmax = std::abs(a(j, j));
    for (index_t i = j + 1; i < m; ++i) {
      const real_t v = std::abs(a(i, j));
      if (v > pmax) {
        pmax = v;
        piv = i;
      }
    }
    ipiv[static_cast<std::size_t>(j)] = piv;
    if (piv != j) {
      for (index_t c = 0; c < n; ++c) std::swap(a(j, c), a(piv, c));
    }
    if (pmax < threshold) {
      // Static pivoting: perturb instead of failing; iterative refinement
      // absorbs the O(threshold) backward-error contribution.
      a(j, j) = (a(j, j) < real_t(0)) ? -threshold : threshold;
      ++replaced;
    }
    const real_t inv_pivot = real_t(1) / a(j, j);
    scal(m - j - 1, inv_pivot, a.col(j) + j + 1);
    for (index_t c = j + 1; c < n; ++c) {
      const real_t ajc = a(j, c);
      if (ajc != real_t(0)) axpy(m - j - 1, -ajc, a.col(j) + j + 1, a.col(c) + j + 1);
    }
  }
}

void laswp(DView b, const std::vector<index_t>& ipiv) {
  for (std::size_t j = 0; j < ipiv.size(); ++j) {
    const auto i = static_cast<index_t>(j);
    const index_t p = ipiv[j];
    if (p != i) {
      for (index_t c = 0; c < b.cols; ++c) std::swap(b(i, c), b(p, c));
    }
  }
}

index_t potrf(DView a) {
  const index_t n = a.rows;
  assert(a.cols == n);
  for (index_t j = 0; j < n; ++j) {
    real_t s = a(j, j);
    for (index_t p = 0; p < j; ++p) s -= a(j, p) * a(j, p);
    if (s <= real_t(0) || !std::isfinite(s)) return j + 1;
    const real_t ljj = std::sqrt(s);
    a(j, j) = ljj;
    // Column update: a(j+1:n, j) = (a(j+1:n, j) - L(j+1:n, 0:j) * L(j, 0:j)ᵗ) / ljj
    for (index_t p = 0; p < j; ++p) {
      const real_t ljp = a(j, p);
      if (ljp != real_t(0)) axpy(n - j - 1, -ljp, a.col(p) + j + 1, a.col(j) + j + 1);
    }
    scal(n - j - 1, real_t(1) / ljj, a.col(j) + j + 1);
  }
  return 0;
}

void getrs(DConstView lu, const std::vector<index_t>& ipiv, DView b) {
  laswp(b, ipiv);
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, real_t(1), lu, b);
  trsm(Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit, real_t(1), lu, b);
}

void potrs(DConstView l, DView b) {
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, real_t(1), l, b);
  trsm(Side::Left, Uplo::Lower, Trans::Yes, Diag::NonUnit, real_t(1), l, b);
}

void lu_inverse(DConstView lu, const std::vector<index_t>& ipiv, DView inv) {
  assert(inv.rows == lu.rows && inv.cols == lu.cols);
  set_identity(inv);
  getrs(lu, ipiv, inv);
}

} // namespace blr::la
