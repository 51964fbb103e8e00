#pragma once

#include <cmath>
#include <limits>

#include "common/prng.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace blr::la {

/// Fill a view with i.i.d. standard normal entries. Element-generic: it also
/// fills the fp32 tiles at rest; the generators below compute in real_t.
template <typename T>
void random_normal(MatView<T> a, Prng& rng) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) a(i, j) = static_cast<T>(rng.normal());
}

/// Random m x n matrix of exact rank r (product of two Gaussian factors).
inline DMatrix random_rank_k(index_t m, index_t n, index_t r, Prng& rng) {
  DMatrix x(m, r);
  DMatrix y(n, r);
  random_normal(x.view(), rng);
  random_normal(y.view(), rng);
  DMatrix a(m, n);
  gemm(Trans::No, Trans::Yes, real_t(1), x.cview(), y.cview(), real_t(0), a.view());
  return a;
}

/// Random m x n matrix with geometrically decaying singular values
/// sigma_k = decay^k — the spectrum shape of the long-distance interaction
/// blocks the paper compresses.
inline DMatrix random_decaying(index_t m, index_t n, real_t decay, Prng& rng) {
  const index_t k = std::min(m, n);
  DMatrix a(m, n);
  real_t scale = real_t(1);
  // Sum of rank-1 Gaussian outer products with decaying weights: yields a
  // matrix whose singular values decay at the prescribed geometric rate
  // (up to small Gaussian-mixing factors), which is all the compression
  // kernels care about.
  DMatrix x(m, 1);
  DMatrix y(n, 1);
  for (index_t p = 0; p < k; ++p) {
    random_normal(x.view(), rng);
    random_normal(y.view(), rng);
    gemm(Trans::No, Trans::Yes, scale, x.cview(), y.cview(), real_t(1), a.view());
    scale *= decay;
    if (scale < std::numeric_limits<real_t>::min() * real_t(1e6)) break;
  }
  return a;
}

/// Random symmetric positive definite n x n matrix: Aᵗ·A + n·I.
inline DMatrix random_spd(index_t n, Prng& rng) {
  DMatrix g(n, n);
  random_normal(g.view(), rng);
  DMatrix a(n, n);
  gemm(Trans::Yes, Trans::No, real_t(1), g.cview(), g.cview(), real_t(0), a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
  return a;
}

/// Random well-conditioned square matrix (Gaussian + dominant diagonal).
inline DMatrix random_diagdom(index_t n, Prng& rng) {
  DMatrix a(n, n);
  random_normal(a.view(), rng);
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(2 * n);
  return a;
}

} // namespace blr::la
