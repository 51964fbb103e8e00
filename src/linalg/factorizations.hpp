#pragma once

#include <vector>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace blr::la {

/// LU factorization with partial pivoting, in place (LAPACK getrf layout:
/// unit-lower L below the diagonal, U on and above). @p ipiv receives the
/// row swapped with row i at step i.
/// Returns 0 on success, or 1 + the index of the first zero pivot.
index_t getrf(DView a, std::vector<index_t>& ipiv);

/// Apply the row interchanges recorded by getrf to @p b (forward order).
void laswp(DView b, const std::vector<index_t>& ipiv);

/// LU with partial pivoting and *static pivoting*: pivots whose magnitude
/// falls below @p threshold are replaced by ±threshold (the PaStiX approach
/// for factoring without inter-supernode pivoting). The number of replaced
/// pivots is accumulated into @p replaced. Always succeeds.
void getrf_static(DView a, std::vector<index_t>& ipiv, real_t threshold,
                  index_t& replaced);

/// Cholesky factorization in place on the lower triangle: A = L·Lᵗ.
/// The strict upper triangle is not referenced.
/// Returns 0 on success, or 1 + the index of the first non-positive pivot.
index_t potrf(DView a);

/// Solve A X = B given the getrf output (factors + pivots); B is overwritten.
void getrs(DConstView lu, const std::vector<index_t>& ipiv, DView b);

/// Solve A X = B given the potrf output; B is overwritten.
void potrs(DConstView l, DView b);

/// Invert a factored (getrf) square matrix into @p inv. Convenience for tests.
void lu_inverse(DConstView lu, const std::vector<index_t>& ipiv, DView inv);

} // namespace blr::la
