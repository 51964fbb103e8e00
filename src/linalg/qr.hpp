#pragma once

#include <vector>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace blr::la {

/// Householder QR in place (LAPACK geqrf layout): R in the upper triangle,
/// the Householder vectors below the diagonal (implicit unit leading 1),
/// scalar factors in @p tau.
void geqrf(DView a, std::vector<real_t>& tau);

/// Overwrite the factored matrix (m x k columns of Householder vectors) with
/// the thin orthonormal factor Q (m x k).
void orgqr(DView a, const std::vector<real_t>& tau);

/// Apply Q (or Qᵗ) from a geqrf factorization to C from the left:
/// C := op(Q) * C, where Q is held as @p k Householder reflectors in @p a.
void ormqr_left(Trans trans, DConstView a, const std::vector<real_t>& tau, DView c);

/// Truncated column-pivoted Householder QR (the RRQR compression kernel,
/// LAPACK xGEQP3-style with the early exit of §3.1.2 of the paper).
///
/// Factors A·P = Q·R but stops as soon as the Frobenius norm of the trailing
/// submatrix drops to @p tol (absolute), or @p max_rank reflectors have been
/// applied. On exit the first r columns of @p a hold the reflectors/R rows;
/// @p jpvt[j] is the original index of the column moved to position j
/// (full-length permutation over all columns).
///
/// Returns the numerical rank r (0 <= r <= min(max_rank, min(m,n))).
index_t geqp3_trunc(DView a, std::vector<index_t>& jpvt, std::vector<real_t>& tau,
                    real_t tol, index_t max_rank);

/// Generate and apply a single Householder reflector: given the vector
/// (alpha, x), produces beta, tau and overwrites x with the reflector tail
/// such that H·(alpha, x)ᵗ = (beta, 0)ᵗ. Exposed for testing.
real_t larfg(real_t alpha, index_t n, real_t* x, real_t& tau);

} // namespace blr::la
