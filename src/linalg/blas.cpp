#include "linalg/blas.hpp"

#include <algorithm>
#include <new>
#include <vector>

#include "linalg/backend.hpp"
#include "linalg/kernels_isa.hpp"

namespace blr::la {

namespace {

using detail::kKC;
using detail::kMC;
using detail::MicroTile;
using detail::round_up;

/// Scale C by beta (handles beta == 0 without reading C).
template <typename T>
void scale_matrix(T beta, MatView<T> c) {
  if (beta == T(1)) return;
  if (beta == T(0)) {
    fill(c, T(0));
    return;
  }
  for (index_t j = 0; j < c.cols; ++j) scal(c.rows, beta, c.col(j));
}

// ---- Loop-nest gemm (the Reference backend, and the small-case path) -----
//
// All four nests follow ONE canonical per-element accumulation order —
// ascending k, the alpha factor folded into the B term, partial sums
// accumulated straight into C — which is exactly the order the packed
// microkernel reproduces over its zero-padded panels. No term may be
// skipped on a zero operand: C(i,j) += a*0 can flip the sign bit of a -0.0,
// so a skipping nest would not be bit-identical to the non-skipping packed
// path. This shared order is the backend memcmp contract (backend.hpp).

// C += alpha * A * B, cache-blocked over k (blocking only reorders the
// store/load boundary, not the per-element sum order).
template <typename T>
void gemm_nn(T alpha, ConstView<T> a, ConstView<T> b, MatView<T> c) {
  for (index_t k0 = 0; k0 < a.cols; k0 += kKC) {
    const index_t kend = std::min(k0 + kKC, a.cols);
    for (index_t j = 0; j < c.cols; ++j) {
      T* cj = c.col(j);
      for (index_t k = k0; k < kend; ++k) {
        const T bkj = alpha * b(k, j);
        axpy(c.rows, bkj, a.col(k), cj);
      }
    }
  }
}

// C += alpha * Aᵗ * B (A, B columns contiguous).
template <typename T>
void gemm_tn(T alpha, ConstView<T> a, ConstView<T> b, MatView<T> c) {
  for (index_t j = 0; j < c.cols; ++j) {
    const T* bj = b.col(j);
    for (index_t i = 0; i < c.rows; ++i) {
      const T* ai = a.col(i);  // column i of A = row i of Aᵗ
      T s = c(i, j);
      for (index_t k = 0; k < a.rows; ++k) s += ai[k] * (alpha * bj[k]);
      c(i, j) = s;
    }
  }
}

// C += alpha * A * Bᵗ.
template <typename T>
void gemm_nt(T alpha, ConstView<T> a, ConstView<T> b, MatView<T> c) {
  for (index_t j = 0; j < c.cols; ++j) {
    T* cj = c.col(j);
    for (index_t k = 0; k < a.cols; ++k) {
      const T bjk = alpha * b(j, k);
      axpy(c.rows, bjk, a.col(k), cj);
    }
  }
}

// C += alpha * Aᵗ * Bᵗ.
template <typename T>
void gemm_tt(T alpha, ConstView<T> a, ConstView<T> b, MatView<T> c) {
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t i = 0; i < c.rows; ++i) {
      const T* ai = a.col(i);  // column i of A = row i of Aᵗ
      T s = c(i, j);
      for (index_t k = 0; k < a.rows; ++k) s += ai[k] * (alpha * b(j, k));
      c(i, j) = s;
    }
  }
}

/// Accumulate-form nest dispatch: C += alpha * op(A) * op(B).
template <typename T>
void gemm_nests(Trans trans_a, Trans trans_b, T alpha, ConstView<T> a,
                ConstView<T> b, MatView<T> c) {
  if (trans_a == Trans::No && trans_b == Trans::No) gemm_nn(alpha, a, b, c);
  else if (trans_a == Trans::Yes && trans_b == Trans::No) gemm_tn(alpha, a, b, c);
  else if (trans_a == Trans::No && trans_b == Trans::Yes) gemm_nt(alpha, a, b, c);
  else gemm_tt(alpha, a, b, c);
}

// ---- Packed gemm: packing into per-thread buffers ------------------------
//
// BLIS-style structure: op(A) is packed into MR-row panels and op(B) into
// NR-column panels (alpha folded in at pack time), then an MR×NR register
// micro-tile walks the packed panels. K is blocked by kKC (matching the
// loop nests' k-blocking, so the per-element accumulation order is the
// same), M by kMC to keep the active A block cache-resident; N is left
// unblocked because BLR tiles are at most a few hundred columns wide. All
// four transpose cases route through the one packed path — the transpose is
// absorbed by the packing order, which always reads source columns
// contiguously. The packing and its buffers live here (one copy, baseline
// flags); the microkernel walk is per-ISA (kernels_isa_body.inc), selected
// at runtime through detail::native_kernels().

/// Aligned per-thread pack scratch. It persists across calls and grows to
/// the largest operand its thread has packed, so packing allocates nothing
/// in steady state. Every call re-packs: the engine may rewrite a tile
/// through the same pointer between two calls, so a packed image is never
/// reused.
template <typename T>
struct PackBuffer {
  T* data = nullptr;
  std::size_t cap = 0;

  ~PackBuffer() {
    if (data != nullptr) ::operator delete[](data, std::align_val_t{64});
  }

  T* ensure(std::size_t n) {
    if (n > cap) {
      const std::size_t grown = std::max(n, cap * 2);
      if (data != nullptr) ::operator delete[](data, std::align_val_t{64});
      data = static_cast<T*>(
          ::operator new[](grown * sizeof(T), std::align_val_t{64}));
      cap = grown;
    }
    return data;
  }
};

template <typename T>
struct ThreadPackBuffers {
  PackBuffer<T> a;
  PackBuffer<T> b;
  PackBuffer<T> c;  ///< gemm_batch: a group's C blocks, gathered
  std::vector<const T*> rows;  ///< gemm_batch: a group's stacked rows
  std::vector<index_t> lds;    ///< ... and the leading dimension of each
};

template <typename T>
ThreadPackBuffers<T>& pack_buffers() {
  thread_local ThreadPackBuffers<T> bufs;
  return bufs;
}

/// Pack one mc×kc block of op(A) into MR-row panels: element (r, k) of
/// panel p lives at p*kc*MR + k*MR + r. Rows past mc are zero-padded so the
/// microkernel never branches on the row edge.
template <typename T, index_t MR>
void pack_block_a(ConstView<T> a, Trans trans, index_t i0, index_t mc,
                  index_t k0, index_t kc, T* dst) {
  for (index_t p = 0; p < mc; p += MR) {
    const index_t mr = std::min(MR, mc - p);
    if (trans == Trans::No) {
      for (index_t k = 0; k < kc; ++k) {
        const T* col = a.col(k0 + k) + i0 + p;
        index_t r = 0;
        for (; r < mr; ++r) dst[k * MR + r] = col[r];
        for (; r < MR; ++r) dst[k * MR + r] = T(0);
      }
    } else {
      // op(A)(i, k) = A(k, i): source column i0+p+r is contiguous over k.
      if (mr < MR) std::fill(dst, dst + kc * MR, T(0));
      for (index_t r = 0; r < mr; ++r) {
        const T* col = a.col(i0 + p + r) + k0;
        for (index_t k = 0; k < kc; ++k) dst[k * MR + r] = col[k];
      }
    }
    dst += kc * MR;
  }
}

/// Pack one kc×n slab of alpha*op(B) into NR-column panels: element (k, c)
/// of panel q lives at q*kc*NR + k*NR + c, columns past n zero-padded.
template <typename T, index_t NR>
void pack_slab_b(ConstView<T> b, Trans trans, T alpha, index_t k0, index_t kc,
                 index_t n, T* dst) {
  for (index_t q = 0; q < n; q += NR) {
    const index_t nr = std::min(NR, n - q);
    if (trans == Trans::No) {
      if (nr < NR) std::fill(dst, dst + kc * NR, T(0));
      for (index_t c = 0; c < nr; ++c) {
        const T* col = b.col(q + c) + k0;
        for (index_t k = 0; k < kc; ++k) dst[k * NR + c] = alpha * col[k];
      }
    } else {
      // op(B)(k, j) = B(j, k): source column k0+k is contiguous over j.
      for (index_t k = 0; k < kc; ++k) {
        const T* col = b.col(k0 + k) + q;
        index_t c = 0;
        for (; c < nr; ++c) dst[k * NR + c] = alpha * col[c];
        for (; c < NR; ++c) dst[k * NR + c] = T(0);
      }
    }
    dst += kc * NR;
  }
}

/// Pack all of op(A) (m×kk), blocked kKC×kMC in the microkernel walk's loop
/// order.
template <typename T>
const T* pack_a(PackBuffer<T>& buf, ConstView<T> a, Trans trans, index_t m,
                index_t kk) {
  constexpr index_t MR = MicroTile<T>::MR;
  std::size_t rows_rounded = 0;
  for (index_t ic = 0; ic < m; ic += kMC)
    rows_rounded += round_up(std::min(kMC, m - ic), MR);
  T* dst = buf.ensure(rows_rounded * static_cast<std::size_t>(kk));
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    for (index_t ic = 0; ic < m; ic += kMC) {
      const index_t mc = std::min(kMC, m - ic);
      pack_block_a<T, MR>(a, trans, ic, mc, pc, kc, dst);
      dst += static_cast<std::size_t>(round_up(mc, MR)) * kc;
    }
  }
  return buf.data;
}

/// Pack all of alpha*op(B) (kk×n), k-blocked in the microkernel walk's loop
/// order.
template <typename T>
const T* pack_b(PackBuffer<T>& buf, ConstView<T> b, Trans trans, T alpha,
                index_t kk, index_t n) {
  constexpr index_t NR = MicroTile<T>::NR;
  T* dst = buf.ensure(static_cast<std::size_t>(round_up(n, NR)) * kk);
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    pack_slab_b<T, NR>(b, trans, alpha, pc, kc, n, dst);
    dst += static_cast<std::size_t>(kc) * round_up(n, NR);
  }
  return buf.data;
}

/// Whether stacked rows [i0, i0 + count) are consecutive rows of one block.
template <typename T>
bool one_block(const std::vector<const T*>& rows, const std::vector<index_t>& lds,
               std::size_t i0, index_t count) {
  for (index_t r = 1; r < count; ++r) {
    const std::size_t i = i0 + static_cast<std::size_t>(r);
    if (rows[i] != rows[i0] + r || lds[i] != lds[i0]) return false;
  }
  return true;
}

/// pack_a for a vertical stack of row blocks: `rows[i]` is row i of the
/// stack and `lds[i]` its stride between columns (Trans::No only).
template <typename T>
const T* pack_a_rows(PackBuffer<T>& buf, const std::vector<const T*>& rows,
                     const std::vector<index_t>& lds, index_t m, index_t kk) {
  constexpr index_t MR = MicroTile<T>::MR;
  std::size_t rows_rounded = 0;
  for (index_t ic = 0; ic < m; ic += kMC)
    rows_rounded += round_up(std::min(kMC, m - ic), MR);
  T* dst = buf.ensure(rows_rounded * static_cast<std::size_t>(kk));
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    for (index_t ic = 0; ic < m; ic += kMC) {
      const index_t mc = std::min(kMC, m - ic);
      for (index_t p = 0; p < mc; p += MR) {
        const auto i0 = static_cast<std::size_t>(ic + p);
        const index_t mr = std::min(MR, mc - p);
        if (one_block(rows, lds, i0, mr)) {
          // The common case: the panel's rows are contiguous in one block.
          pack_block_a<T, MR>(ConstView<T>(rows[i0], mr, kk, lds[i0]), Trans::No,
                              0, mr, pc, kc, dst);
        } else {
          for (index_t k = 0; k < kc; ++k) {
            index_t r = 0;
            for (; r < mr; ++r) {
              const std::size_t i = i0 + static_cast<std::size_t>(r);
              dst[k * MR + r] = rows[i][(pc + k) * lds[i]];
            }
            for (; r < MR; ++r) dst[k * MR + r] = T(0);
          }
        }
        dst += kc * MR;
      }
    }
  }
  return buf.data;
}

/// pack_b of alpha·Sᵗ for a vertical stack S of row blocks (see
/// pack_a_rows): op(B)(k, c) = S(c, k), the Trans::Yes layout.
template <typename T>
const T* pack_bt_rows(PackBuffer<T>& buf, const std::vector<const T*>& rows,
                      const std::vector<index_t>& lds, T alpha, index_t kk,
                      index_t n) {
  constexpr index_t NR = MicroTile<T>::NR;
  T* dst = buf.ensure(static_cast<std::size_t>(round_up(n, NR)) * kk);
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    for (index_t q = 0; q < n; q += NR) {
      const auto i0 = static_cast<std::size_t>(q);
      const index_t nr = std::min(NR, n - q);
      if (one_block(rows, lds, i0, nr)) {
        pack_slab_b<T, NR>(ConstView<T>(rows[i0], nr, kk, lds[i0]), Trans::Yes,
                           alpha, pc, kc, nr, dst);
      } else {
        for (index_t k = 0; k < kc; ++k) {
          index_t c = 0;
          for (; c < nr; ++c) {
            const std::size_t i = i0 + static_cast<std::size_t>(c);
            dst[k * NR + c] = alpha * rows[i][(pc + k) * lds[i]];
          }
          for (; c < NR; ++c) dst[k * NR + c] = T(0);
        }
      }
      dst += kc * NR;
    }
  }
  return buf.data;
}

/// Packing pays for itself once there is enough arithmetic per packed
/// element; tiny products (thin ranks, small tiles) stay on the loop nests.
template <typename T>
bool use_packed(index_t m, index_t n, index_t kk) {
  return kk >= 4 && static_cast<double>(m) * static_cast<double>(n) *
                            static_cast<double>(kk) >=
                        16384.0;
}

// ---- Backend vtable ------------------------------------------------------
//
// The public gemm/trsm/syrk entry points validate, apply beta/alpha scaling
// and early-out, then dispatch the remaining accumulate/substitute work
// through the current backend's function table (one row per Backend value).
// Adding a backend = appending a row; the callers never change.

template <typename T>
struct BackendVtable {
  /// C += alpha * op(A) * op(B) (beta already applied).
  void (*gemm)(Trans, Trans, T, ConstView<T>, ConstView<T>, MatView<T>);
  /// The gemm_batch products (alpha != 0, B nonempty).
  void (*gemm_batch)(Trans, T, std::span<const ConstView<T>>, ConstView<T>,
                     std::span<const MatView<T>>);
  /// Substitution only (alpha already applied to B).
  void (*trsm)(Side, Uplo, Trans, Diag, ConstView<T>, MatView<T>);
  /// C(triangle) += alpha * A·Aᵗ or Aᵗ·A (beta already applied).
  void (*syrk)(Uplo, Trans, T, ConstView<T>, MatView<T>);
};

template <typename T>
void isa_trsm(const detail::IsaKernels& k, Side side, Uplo uplo, Trans trans,
              Diag diag, ConstView<T> a, MatView<T> b) {
  k.template trsm<T>()(side == Side::Right ? 1 : 0,
                       uplo == Uplo::Upper ? 1 : 0,
                       trans == Trans::Yes ? 1 : 0,
                       diag == Diag::Unit ? 1 : 0, a.data, a.ld, b.data, b.ld,
                       b.rows, b.cols);
}

template <typename T>
void isa_syrk(const detail::IsaKernels& k, Uplo uplo, Trans trans, T alpha,
              ConstView<T> a, MatView<T> c) {
  k.template syrk<T>()(uplo == Uplo::Upper ? 1 : 0,
                       trans == Trans::Yes ? 1 : 0, alpha, a.data, a.ld,
                       a.rows, a.cols, c.data, c.ld, c.rows);
}

// Reference backend: gemm is literally gemm_unpacked (the public loop-nest
// entry, so tier-1 tests exercise it on every run); trsm/syrk are the
// portable substitution/update bodies — the always-compiled baseline tier.

template <typename T>
void ref_gemm(Trans trans_a, Trans trans_b, T alpha, ConstView<T> a,
              ConstView<T> b, MatView<T> c) {
  gemm_unpacked(trans_a, trans_b, alpha, a, b, T(1), c);
}

/// One batched product C_p += alpha·A_p·Bᵗ (or alpha·B·A_pᵗ) on the nests.
template <typename T>
void nests_nt(Trans trans, T alpha, ConstView<T> a, ConstView<T> b,
              MatView<T> c) {
  if (trans == Trans::No) gemm_nests(Trans::No, Trans::Yes, alpha, a, b, c);
  else gemm_nests(Trans::No, Trans::Yes, alpha, b, a, c);
}

template <typename T>
void ref_gemm_batch(Trans trans, T alpha, std::span<const ConstView<T>> a,
                    ConstView<T> b, std::span<const MatView<T>> c) {
  for (std::size_t p = 0; p < a.size(); ++p) nests_nt(trans, alpha, a[p], b, c[p]);
}

template <typename T>
void ref_trsm(Side side, Uplo uplo, Trans trans, Diag diag, ConstView<T> a,
              MatView<T> b) {
  isa_trsm(detail::isa_portable(), side, uplo, trans, diag, a, b);
}

template <typename T>
void ref_syrk(Uplo uplo, Trans trans, T alpha, ConstView<T> a, MatView<T> c) {
  isa_syrk(detail::isa_portable(), uplo, trans, alpha, a, c);
}

// Native backend: the packed engine on the CPUID-selected ISA tier; tiny
// products stay on the (shared, hence bit-identical) loop nests.

/// C += alpha·Aᵗ·op(B) for C narrower than a micro-tile: eight interleaved
/// dot chains over eight columns of A. Each chain is gemm_tn's (ascending k,
/// alpha folded into the B term), so the bits match the loop nests; the
/// interleaving only hides the latency of the single chain.
template <typename T>
void gemm_t_thin(Trans trans_b, T alpha, ConstView<T> a, ConstView<T> b,
                 MatView<T> c) {
  constexpr index_t kChains = 8;
  const index_t kk = a.rows;
  for (index_t j = 0; j < c.cols; ++j) {
    // Column j of op(B), with stride bs between consecutive k.
    const T* bj = trans_b == Trans::No ? b.col(j) : b.data + j;
    const index_t bs = trans_b == Trans::No ? 1 : b.ld;
    T* cj = c.col(j);
    index_t i = 0;
    for (; i + kChains <= c.rows; i += kChains) {
      T s[kChains];
      const T* ai[kChains];
      for (index_t r = 0; r < kChains; ++r) {
        s[r] = cj[i + r];
        ai[r] = a.col(i + r);
      }
      for (index_t k = 0; k < kk; ++k) {
        const T bk = alpha * bj[k * bs];
        for (index_t r = 0; r < kChains; ++r) s[r] += ai[r][k] * bk;
      }
      for (index_t r = 0; r < kChains; ++r) cj[i + r] = s[r];
    }
    for (; i < c.rows; ++i) {
      const T* ac = a.col(i);
      T s = cj[i];
      for (index_t k = 0; k < kk; ++k) s += ac[k] * (alpha * bj[k * bs]);
      cj[i] = s;
    }
  }
}

template <typename T>
void native_gemm(Trans trans_a, Trans trans_b, T alpha, ConstView<T> a,
                 ConstView<T> b, MatView<T> c) {
  const index_t kk = (trans_a == Trans::No) ? a.cols : a.rows;
  if (c.cols < MicroTile<T>::NR) {
    // Thinner than a micro-tile (a single-RHS solve): packing would fill
    // mostly zero padding, so run direct kernels in the canonical order.
    if (trans_a == Trans::No) {
      gemm_nests(trans_a, trans_b, alpha, a, b, c);  // the axpy order
    } else {
      gemm_t_thin(trans_b, alpha, a, b, c);
    }
    return;
  }
  if (!use_packed<T>(c.rows, c.cols, kk)) {
    gemm_nests(trans_a, trans_b, alpha, a, b, c);
    return;
  }
  auto& bufs = pack_buffers<T>();
  const T* ap = pack_a<T>(bufs.a, a, trans_a, c.rows, kk);
  const T* bp = pack_b<T>(bufs.b, b, trans_b, alpha, kk, c.cols);
  detail::native_kernels().template gemm_packed<T>()(c.rows, c.cols, kk, ap,
                                                     bp, c.data, c.ld);
}

/// Stacked rows of one gemm_batch group: enough for full MR×NR micro-tiles
/// over two kMC row blocks.
constexpr index_t kBatchRows = 2 * kMC;

template <typename T>
void native_gemm_batch(Trans trans, T alpha, std::span<const ConstView<T>> a,
                       ConstView<T> b, std::span<const MatView<T>> c) {
  const index_t kk = b.cols;
  const index_t n = b.rows;
  if (kk < 4) {  // too shallow to pay for packing (see use_packed)
    ref_gemm_batch(trans, alpha, a, b, c);
    return;
  }
  ThreadPackBuffers<T>& bufs = pack_buffers<T>();
  const auto kernel = detail::native_kernels().template gemm_packed<T>();
  const T* shared = nullptr;  // B, packed once for the whole batch
  // Consecutive blocks form groups of up to kBatchRows stacked rows. A
  // group's rows are packed straight from the blocks, and the micro-kernel
  // accumulates onto a gathered copy of the group's C entries (C rows, or
  // C columns for the transposed products) that is scattered back; a lone
  // block accumulates in place. Accumulating onto C's own values keeps each
  // element's order that of the single call.
  for (std::size_t p0 = 0; p0 < a.size();) {
    index_t m = a[p0].rows;
    std::size_t p1 = p0 + 1;
    while (p1 < a.size() && m + a[p1].rows <= kBatchRows) m += a[p1++].rows;
    bufs.rows.clear();
    bufs.lds.clear();
    for (std::size_t p = p0; p < p1; ++p) {
      for (index_t r = 0; r < a[p].rows; ++r) {
        bufs.rows.push_back(a[p].data + r);
        bufs.lds.push_back(a[p].ld);
      }
    }
    MatView<T> gc = p1 == p0 + 1 ? c[p0]
                    : trans == Trans::No
                        ? MatView<T>(bufs.c.ensure(static_cast<std::size_t>(m) * n), m, n)
                        : MatView<T>(bufs.c.ensure(static_cast<std::size_t>(m) * n), n, m);
    const auto slot = [&](index_t r, index_t rows) {
      return trans == Trans::No ? gc.sub(r, 0, rows, n) : gc.sub(0, r, n, rows);
    };
    if (p1 > p0 + 1) {
      for (std::size_t p = p0, r = 0; p < p1; r += static_cast<std::size_t>(a[p++].rows))
        copy<T>(c[p], slot(static_cast<index_t>(r), a[p].rows));
    }
    if (trans == Trans::No) {
      if (shared == nullptr) shared = pack_b<T>(bufs.b, b, Trans::Yes, alpha, kk, n);
      const T* ap = pack_a_rows<T>(bufs.a, bufs.rows, bufs.lds, m, kk);
      kernel(m, n, kk, ap, shared, gc.data, gc.ld);
    } else {
      if (shared == nullptr) shared = pack_a<T>(bufs.a, b, Trans::No, n, kk);
      const T* bp = pack_bt_rows<T>(bufs.b, bufs.rows, bufs.lds, alpha, kk, m);
      kernel(n, m, kk, shared, bp, gc.data, gc.ld);
    }
    if (p1 > p0 + 1) {
      for (std::size_t p = p0, r = 0; p < p1; r += static_cast<std::size_t>(a[p++].rows))
        copy<T>(ConstView<T>(slot(static_cast<index_t>(r), a[p].rows)), c[p]);
    }
    p0 = p1;
  }
}

template <typename T>
void native_trsm(Side side, Uplo uplo, Trans trans, Diag diag, ConstView<T> a,
                 MatView<T> b) {
  isa_trsm(detail::native_kernels(), side, uplo, trans, diag, a, b);
}

template <typename T>
void native_syrk(Uplo uplo, Trans trans, T alpha, ConstView<T> a,
                 MatView<T> c) {
  isa_syrk(detail::native_kernels(), uplo, trans, alpha, a, c);
}

template <typename T>
const BackendVtable<T>& backend_vtable(Backend be) {
  static const BackendVtable<T> table[static_cast<int>(Backend::kCount)] = {
      {&ref_gemm<T>, &ref_gemm_batch<T>, &ref_trsm<T>, &ref_syrk<T>},  // Reference
      {&native_gemm<T>, &native_gemm_batch<T>, &native_trsm<T>,
       &native_syrk<T>},                                               // Native
  };
  return table[static_cast<int>(be)];
}

} // namespace

template <typename T>
void gemm_unpacked(Trans trans_a, Trans trans_b, T alpha, ConstView<T> a,
                   ConstView<T> b, T beta, MatView<T> c) {
  const index_t opa_rows = (trans_a == Trans::No) ? a.rows : a.cols;
  const index_t opa_cols = (trans_a == Trans::No) ? a.cols : a.rows;
  const index_t opb_rows = (trans_b == Trans::No) ? b.rows : b.cols;
  const index_t opb_cols = (trans_b == Trans::No) ? b.cols : b.rows;
  assert(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows);
  (void)opa_rows;
  (void)opb_cols;
  (void)opb_rows;

  scale_matrix(beta, c);
  if (alpha == T(0) || opa_cols == 0 || c.empty()) return;
  gemm_nests(trans_a, trans_b, alpha, a, b, c);
}

template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, ConstView<T> a, ConstView<T> b,
          T beta, MatView<T> c) {
  const index_t opa_rows = (trans_a == Trans::No) ? a.rows : a.cols;
  const index_t opa_cols = (trans_a == Trans::No) ? a.cols : a.rows;
  const index_t opb_rows = (trans_b == Trans::No) ? b.rows : b.cols;
  const index_t opb_cols = (trans_b == Trans::No) ? b.cols : b.rows;
  assert(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows);
  (void)opa_rows;
  (void)opb_cols;
  (void)opb_rows;

  scale_matrix(beta, c);
  if (alpha == T(0) || opa_cols == 0 || c.empty()) return;
  backend_vtable<T>(current_backend()).gemm(trans_a, trans_b, alpha, a, b, c);
}

template <typename T>
void gemm_batch(Trans trans, T alpha, std::span<const ConstView<T>> a,
                ConstView<T> b, std::span<const MatView<T>> c) {
  assert(a.size() == c.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    assert(a[p].cols == b.cols);
    assert(trans == Trans::No ? (c[p].rows == a[p].rows && c[p].cols == b.rows)
                              : (c[p].rows == b.rows && c[p].cols == a[p].rows));
    (void)p;
  }
  if (alpha == T(0) || b.cols == 0 || b.rows == 0) return;
  backend_vtable<T>(current_backend()).gemm_batch(trans, alpha, a, b, c);
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstView<T> a,
          MatView<T> b) {
  const index_t m = b.rows;
  const index_t n = b.cols;
  if (side == Side::Left) assert(a.rows == m && a.cols == m);
  else assert(a.rows == n && a.cols == n);
  (void)m;
  (void)n;

  scale_matrix(alpha, b);
  if (b.empty()) return;
  backend_vtable<T>(current_backend()).trsm(side, uplo, trans, diag, a, b);
}

template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, ConstView<T> a, T beta, MatView<T> c) {
  const index_t n = c.rows;
  assert(c.cols == n);
  assert(((trans == Trans::No) ? a.rows : a.cols) == n);

  // Scale the referenced triangle.
  for (index_t j = 0; j < n; ++j) {
    const index_t i0 = (uplo == Uplo::Lower) ? j : 0;
    const index_t i1 = (uplo == Uplo::Lower) ? n : j + 1;
    if (beta == T(0)) std::fill(c.col(j) + i0, c.col(j) + i1, T(0));
    else if (beta != T(1)) scal(i1 - i0, beta, c.col(j) + i0);
  }
  if (alpha == T(0) || n == 0) return;
  backend_vtable<T>(current_backend()).syrk(uplo, trans, alpha, a, c);
}

template <typename T>
void gemv(Trans trans, T alpha, ConstView<T> a, const T* x, T beta, T* y) {
  const index_t ny = (trans == Trans::No) ? a.rows : a.cols;
  if (beta == T(0)) std::fill_n(y, ny, T(0));
  else if (beta != T(1)) scal(ny, beta, y);
  if (alpha == T(0)) return;

  if (trans == Trans::No) {
    for (index_t j = 0; j < a.cols; ++j) {
      const T xj = alpha * x[j];
      if (xj != T(0)) axpy(a.rows, xj, a.col(j), y);
    }
  } else {
    for (index_t j = 0; j < a.cols; ++j) y[j] += alpha * dot(a.rows, a.col(j), x);
  }
}

template <typename T>
void trsv(Uplo uplo, Trans trans, Diag diag, ConstView<T> a, T* b) {
  MatView<T> bv(b, a.rows, 1, a.rows);
  trsm(Side::Left, uplo, trans, diag, T(1), a, bv);
}

// Explicit instantiations.
#define BLR_INSTANTIATE_BLAS(T)                                                        \
  template void gemm<T>(Trans, Trans, T, ConstView<T>, ConstView<T>, T, MatView<T>);   \
  template void gemm_unpacked<T>(Trans, Trans, T, ConstView<T>, ConstView<T>, T,       \
                                 MatView<T>);                                          \
  template void gemm_batch<T>(Trans, T, std::span<const ConstView<T>>, ConstView<T>,   \
                              std::span<const MatView<T>>);                            \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, ConstView<T>, MatView<T>);         \
  template void syrk<T>(Uplo, Trans, T, ConstView<T>, T, MatView<T>);                  \
  template void gemv<T>(Trans, T, ConstView<T>, const T*, T, T*);                      \
  template void trsv<T>(Uplo, Trans, Diag, ConstView<T>, T*);

BLR_INSTANTIATE_BLAS(float)
BLR_INSTANTIATE_BLAS(double)

#undef BLR_INSTANTIATE_BLAS

} // namespace blr::la
