#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/blas.hpp"

namespace blr::la {

namespace {

/// One-sided Jacobi on B (m x n, m >= n): orthogonalizes the columns of B by
/// plane rotations, accumulating them into V. On exit B = U·diag(sigma) with
/// orthogonal columns and A = B·Vᵗ.
void jacobi_orthogonalize(DView b, DView v) {
  const index_t m = b.rows;
  const index_t n = b.cols;
  const real_t eps = std::numeric_limits<real_t>::epsilon();
  const int max_sweeps = 42;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        real_t* bp = b.col(p);
        real_t* bq = b.col(q);
        const real_t app = nrm2_sq(m, bp);
        const real_t aqq = nrm2_sq(m, bq);
        const real_t apq = dot(m, bp, bq);
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == real_t(0)) continue;
        rotated = true;

        const real_t zeta = (aqq - app) / (real_t(2) * apq);
        const real_t t =
            (zeta >= real_t(0))
                ? real_t(1) / (zeta + std::sqrt(real_t(1) + zeta * zeta))
                : real_t(-1) / (-zeta + std::sqrt(real_t(1) + zeta * zeta));
        const real_t cs = real_t(1) / std::sqrt(real_t(1) + t * t);
        const real_t sn = cs * t;

        for (index_t i = 0; i < m; ++i) {
          const real_t bip = bp[i];
          const real_t biq = bq[i];
          bp[i] = cs * bip - sn * biq;
          bq[i] = sn * bip + cs * biq;
        }
        real_t* vp = v.col(p);
        real_t* vq = v.col(q);
        for (index_t i = 0; i < v.rows; ++i) {
          const real_t vip = vp[i];
          const real_t viq = vq[i];
          vp[i] = cs * vip - sn * viq;
          vq[i] = sn * vip + cs * viq;
        }
      }
    }
    if (!rotated) break;
  }
}

/// Extract U, sigma from the orthogonalized B and sort everything descending.
void finalize_svd(DMatrix& b, DMatrix& v, std::vector<real_t>& sigma) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  sigma.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const real_t s = nrm2(m, b.view().col(j));
    sigma[static_cast<std::size_t>(j)] = s;
    if (s > real_t(0)) scal(m, real_t(1) / s, b.view().col(j));
  }
  // Sort by descending singular value (stable permutation of columns).
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t i, index_t j) {
    return sigma[static_cast<std::size_t>(i)] > sigma[static_cast<std::size_t>(j)];
  });
  DMatrix bs(m, n);
  DMatrix vs(v.rows(), n);
  std::vector<real_t> ss(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const index_t src = order[static_cast<std::size_t>(j)];
    std::copy_n(b.data() + src * m, m, bs.data() + j * m);
    std::copy_n(v.data() + src * v.rows(), v.rows(), vs.data() + j * v.rows());
    ss[static_cast<std::size_t>(j)] = sigma[static_cast<std::size_t>(src)];
  }
  b = std::move(bs);
  v = std::move(vs);
  sigma = std::move(ss);
}

} // namespace

void svd(DConstView a, DMatrix& u, std::vector<real_t>& sigma, DMatrix& v) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  if (m >= n) {
    u = DMatrix(a);  // working copy, becomes U
    v.reshape(n, n);
    set_identity(v.view());
    jacobi_orthogonalize(u.view(), v.view());
    finalize_svd(u, v, sigma);
  } else {
    // SVD of Aᵗ = U'·S·V'ᵗ gives A = V'·S·U'ᵗ.
    DMatrix at(n, m);
    transpose(a, at.view());
    DMatrix up;  // n x m
    DMatrix vp;  // m x m
    svd(at.view(), up, sigma, vp);
    u = std::move(vp);
    v = std::move(up);
  }
}

std::vector<real_t> singular_values(DConstView a) {
  DMatrix u;
  DMatrix v;
  std::vector<real_t> sigma;
  svd(a, u, sigma, v);
  return sigma;
}

} // namespace blr::la
