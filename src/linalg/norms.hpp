#pragma once

#include "linalg/matrix.hpp"

namespace blr::la {

/// Frobenius norm of a (possibly strided) view.
real_t norm_fro(DConstView a);

/// Largest absolute entry.
real_t norm_max(DConstView a);

/// 1-norm (max absolute column sum).
real_t norm_one(DConstView a);

/// Frobenius norm of (A - B); shapes must match.
real_t diff_fro(DConstView a, DConstView b);

} // namespace blr::la
