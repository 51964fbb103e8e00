#include "linalg/norms.hpp"

#include <cmath>

#include "linalg/blas.hpp"

namespace blr::la {

real_t norm_fro(DConstView a) {
  // Scaled accumulation to avoid overflow on large well-conditioned blocks
  // is unnecessary at the magnitudes this solver handles; plain sum suffices.
  real_t s = real_t(0);
  for (index_t j = 0; j < a.cols; ++j) s += nrm2_sq(a.rows, a.col(j));
  return std::sqrt(s);
}

real_t norm_max(DConstView a) {
  real_t m = real_t(0);
  for (index_t j = 0; j < a.cols; ++j) {
    const real_t* cj = a.col(j);
    for (index_t i = 0; i < a.rows; ++i) m = std::max(m, std::abs(cj[i]));
  }
  return m;
}

real_t norm_one(DConstView a) {
  real_t m = real_t(0);
  for (index_t j = 0; j < a.cols; ++j) {
    real_t s = real_t(0);
    const real_t* cj = a.col(j);
    for (index_t i = 0; i < a.rows; ++i) s += std::abs(cj[i]);
    m = std::max(m, s);
  }
  return m;
}

real_t diff_fro(DConstView a, DConstView b) {
  assert(a.rows == b.rows && a.cols == b.cols);
  real_t s = real_t(0);
  for (index_t j = 0; j < a.cols; ++j) {
    const real_t* aj = a.col(j);
    const real_t* bj = b.col(j);
    for (index_t i = 0; i < a.rows; ++i) {
      const real_t d = aj[i] - bj[i];
      s += d * d;
    }
  }
  return std::sqrt(s);
}

} // namespace blr::la
