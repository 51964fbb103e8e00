#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "linalg/backend.hpp"

namespace blr::la::detail {

// ---- Packed-gemm blocking geometry ---------------------------------------
//
// Shared between the packing code (blas.cpp, baseline flags) and the per-ISA
// microkernel translation units: both sides must agree on the panel layout.
// Everything here is constexpr — no code is generated from this header, so
// including it from an AVX-compiled TU cannot leak vector instructions into
// the portable path through a shared (comdat) symbol.

constexpr index_t kKC = 256;  ///< k-block: packed B panel rows (== the loop nests' k-blocking)
constexpr index_t kMC = 128;  ///< m-block: rows of the resident packed A block

/// MR×NR register block of the fp64 micro-tile (the kernels' one scalar
/// type is real_t).
constexpr index_t kMR = 8;  // one AVX-512 lane (two AVX2 lanes)
constexpr index_t kNR = 4;

/// Full-panel height of the AVX-512 tier's micro-tile: 32×4 holds 128
/// accumulators in 16 of the 32 zmm registers. Every other tier packs kMR
/// rows per panel.
constexpr index_t kWideMR = 32;

constexpr index_t round_up(index_t x, index_t step) {
  return ((x + step - 1) / step) * step;
}

/// Packed rows of an m-row block cut into panels of `mr` rows while at
/// least mr remain, then tail panels of `tail` rows (the last zero-padded).
/// With mr == tail this is round_up(m, mr). Both sizes divide kMC, so the
/// kMC blocks of a longer stack add no padding of their own.
constexpr index_t panel_rows(index_t m, index_t mr, index_t tail) {
  return (m / mr) * mr + round_up(m % mr, tail);
}

/// Where the entries of one grid GEMM row group live, for the microkernel
/// walk to load and store each at its own address. The group has m rows,
/// mp = panel_rows(m) packed, and n columns; column j is column col_off[j]
/// of column block col_blk[j]. Row i in block q's target: entry x = q*mp + i
/// of the tables, the entry for column c at byte address addr[x] +
/// c*step[x] (addr[x] is 0 where row i has no target in block q, and for
/// the padded rows). run[x] > 0 counts the rows from i on whose entries are
/// consecutive in memory (a run of one target's rows); run[x] < 0 counts
/// the rows from i on without a target, negated. The packed B holds
/// b_cols ≥ n columns. The walk adds to counts[0] the entries it loaded and
/// stored in place as whole columns, to counts[1] those it loaded and
/// stored through per-row addresses.
struct GridC {
  index_t m = 0;
  index_t mp = 0;
  index_t n = 0;
  index_t b_cols = 0;
  const index_t* col_blk = nullptr;
  const index_t* col_off = nullptr;
  const std::intptr_t* addr = nullptr;
  const std::intptr_t* step = nullptr;
  const index_t* run = nullptr;
  std::uint64_t* counts = nullptr;
};

// ---- Per-ISA kernel tables -----------------------------------------------
//
// One table per ISA tier of the Native backend. Each tier is one dedicated
// translation unit compiling the same kernel bodies (kernels_isa_body.inc)
// with that tier's arch flags; the bodies live in an anonymous namespace so
// every tier gets its own internal-linkage copy — the linker can never
// substitute one tier's code for another's. All tiers are built with
// -ffp-contract=off and share one canonical per-element accumulation order
// with the Reference loop nests, so results are bit-identical across tiers
// and backends (the memcmp contract in backend.hpp).
//
// The signatures are raw-pointer C style on purpose: the ISA TUs must not
// instantiate any inline function from shared headers (same comdat hazard).

struct IsaKernels {
  const char* name = nullptr;
  NativeIsa isa = NativeIsa::Portable;

  /// Full-panel rows of this tier's packed A (the tails have kMR).
  index_t mr = kMR;

  /// C += packedA · packedB over images laid out by pack_a/pack_b in
  /// blas.cpp (kKC×kMC blocked, panel_rows-shaped row panels, NR-column
  /// zero-padded panels, alpha folded into packedB).
  void (*gemm_packed)(index_t m, index_t n, index_t kk, const real_t* ap,
                      const real_t* bp, real_t* c, index_t ldc) = nullptr;

  /// The same walk over a grid GEMM row group: packed A of grid.m rows,
  /// packed B of grid.n columns, both over all kk, and each entry loaded
  /// from and stored to its target in place (GridC).
  void (*gemm_grid)(index_t kk, const real_t* ap, const real_t* bp,
                    const GridC& grid) = nullptr;

  /// Triangular substitution, alpha already applied to B by the caller.
  /// Flags are 0/1 ints: side_right, upper, trans, unit. A is m×m (left) or
  /// n×n (right); B is m×n.
  void (*trsm)(int side_right, int upper, int trans, int unit, const real_t* a,
               index_t lda, real_t* b, index_t ldb, index_t m,
               index_t n) = nullptr;

  /// C(triangle) += alpha * A·Aᵗ (trans == 0) or alpha * Aᵗ·A (trans == 1);
  /// the caller has already scaled the triangle by beta. C is n×n.
  void (*syrk)(int upper, int trans, real_t alpha, const real_t* a,
               index_t lda, index_t a_rows, index_t a_cols, real_t* c,
               index_t ldc, index_t n) = nullptr;
};

/// The always-compiled baseline tier (no arch flags — runs anywhere the
/// binary does). Also serves as the Reference backend's trsm/syrk body: it
/// is literally the pre-backend portable code, moved.
const IsaKernels& isa_portable();
#if defined(BLR_HAVE_ISA_AVX2)
const IsaKernels& isa_avx2();
#endif
#if defined(BLR_HAVE_ISA_AVX512)
const IsaKernels& isa_avx512();
#endif

/// The tier selected by native_isa() for this process (backend.cpp).
const IsaKernels& native_kernels();

} // namespace blr::la::detail
