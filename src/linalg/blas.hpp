#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "linalg/matrix.hpp"

namespace blr::la {

enum class Trans { No, Yes };
enum class Side { Left, Right };
enum class Uplo { Lower, Upper };
enum class Diag { NonUnit, Unit };

/// General matrix-matrix multiply: C = alpha * op(A) * op(B) + beta * C.
/// Sequential. op(X) is X or Xᵗ according to the flags. Dispatches through
/// the selected kernel backend (backend.hpp): Reference runs the loop
/// nests; Native routes problems past a small size threshold through the
/// packed, register-blocked microkernel of the CPUID-selected ISA tier (all
/// four transpose cases) and tiny ones through the same loop nests. Every
/// backend produces bit-identical results.
void gemm(Trans trans_a, Trans trans_b, real_t alpha, DConstView a,
          DConstView b, real_t beta, DView c);

/// Rows of one stacked group of gemm_batch and trsm_stacked: row blocks are
/// stacked, and tall ones split, into groups of at most this many rows, so
/// their per-thread scratch stays bounded at kStackRows rows.
inline constexpr index_t kStackRows = 256;

/// One destination of gemm_batch: row block p against column block q.
struct GemmTarget {
  index_t p = 0;
  index_t q = 0;
  DView c;
  bool transposed = false;  ///< c is the transposed product
};

/// A grid of GEMMs over shared operands: row blocks A_p and column blocks
/// B_q, all with the same number of columns, and for every target
///   C += alpha · A_p · B_qᵗ   (transposed == false)
///   C += alpha · B_q · A_pᵗ   (transposed == true)
/// Each product keeps the per-element accumulation order of the matching
/// single call, gemm(No, Yes, alpha, A_p, B_q, 1, C) resp. gemm(No, Yes,
/// alpha, B_q, A_p, 1, C), so the results are bit-identical to issuing those
/// calls one by one, under every backend.
///
/// Native runs the transposed targets as a second grid with the roles of
/// A_p and B_q swapped, so every target is plain. Each grid packs its column
/// blocks once as one stacked operand and its row blocks once per group of
/// at most kStackRows rows; the microkernel walk loads and stores every
/// target entry at its own address, in place. A group computes the columns
/// its targets reach; products without a target are discarded, and a
/// micro-tile without any target is skipped.
void gemm_batch(real_t alpha, std::span<const DConstView> a,
                std::span<const DConstView> b,
                std::span<const GemmTarget> targets);

/// Target entries the Native backend's gemm_batch has updated in this
/// process, counted once per kKC-deep k-slab: all of them, those loaded and
/// stored in place as whole micro-tile columns (or by the loop nests of a
/// shallow grid), and those loaded and stored through per-row addresses.
/// The last two add up to the first; entries - in_place - per_row counts
/// entries that reached their target through a gathered copy, of which the
/// grid GEMM makes none.
struct GridGemmCounts {
  std::uint64_t entries = 0;
  std::uint64_t in_place = 0;
  std::uint64_t per_row = 0;
};
GridGemmCounts grid_gemm_counts();

/// The Native backend's micro-tile on the active ISA tier: mr rows (of its
/// full row panels; shorter tails have 8 rows) by nr columns.
struct NativeTile {
  index_t mr = 0;
  index_t nr = 0;
};
NativeTile native_tile();

/// The plain gemm loop nests — the Reference backend's implementation
/// (la::gemm with backend Reference lands here), also used directly as the
/// perfsmoke baseline the packed path is measured against.
void gemm_unpacked(Trans trans_a, Trans trans_b, real_t alpha, DConstView a,
                   DConstView b, real_t beta, DView c);

/// Triangular solve with multiple right-hand sides:
///   Side::Left : op(A) * X = alpha * B,  X overwrites B
///   Side::Right: X * op(A) = alpha * B,  X overwrites B
/// A is triangular per (uplo, diag); only the referenced triangle is read.
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, real_t alpha,
          DConstView a, DView b);

/// trsm(Side::Right, uplo, trans, diag, 1, a, b_p) for every block b_p of a
/// vertical stack, bit-identical to those calls under every backend, for
/// the forward variants only: (Lower, Yes) and (Upper, No), the panel
/// solves. The blocks are stacked into groups of at most kStackRows rows
/// (gathered into per-thread scratch, tall blocks split); each group is
/// solved blocked: a strip of columns by substitution, the columns right of
/// it updated by one GEMM.
void trsm_stacked(Uplo uplo, Trans trans, Diag diag, DConstView a,
                  std::span<const DView> b);

/// Symmetric rank-k update on one triangle:
///   C = beta * C + alpha * A * Aᵗ (trans == No)
///   C = beta * C + alpha * Aᵗ * A (trans == Yes)
/// Only the (uplo) triangle of C is referenced and updated.
void syrk(Uplo uplo, Trans trans, real_t alpha, DConstView a, real_t beta,
          DView c);

// ---- Level-1 style helpers over raw ranges -------------------------------

inline real_t dot(index_t n, const real_t* x, const real_t* y) {
  real_t s = 0;
  for (index_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

inline void axpy(index_t n, real_t alpha, const real_t* x, real_t* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

inline void scal(index_t n, real_t alpha, real_t* x) {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

inline real_t nrm2_sq(index_t n, const real_t* x) {
  real_t s = 0;
  for (index_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

inline real_t nrm2(index_t n, const real_t* x) {
  return std::sqrt(nrm2_sq(n, x));
}

} // namespace blr::la
