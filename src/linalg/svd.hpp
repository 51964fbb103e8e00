#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace blr::la {

/// Thin singular value decomposition A = U · diag(sigma) · Vᵗ computed with
/// the one-sided Jacobi method (robust, no bidiagonalization needed).
///
/// On exit, with k = min(m, n):
///   u     : m x k, orthonormal columns
///   sigma : k singular values, non-increasing
///   v     : n x k, orthonormal columns
void svd(DConstView a, DMatrix& u, std::vector<real_t>& sigma, DMatrix& v);

/// Singular values only (same algorithm, skips U/V assembly where possible).
std::vector<real_t> singular_values(DConstView a);

} // namespace blr::la
