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

/// Consecutive rows of one column-major block: `rows` rows from `data`,
/// columns `ld` apart.
template <typename T>
struct RowRun {
  const T* data;
  index_t ld;
  index_t rows;
};

/// Rows [r0, r1) of stacked block p.
struct RowSegment {
  std::size_t p;
  index_t r0, r1;
};

template <typename T>
struct ThreadPackBuffers {
  PackBuffer<T> a;
  PackBuffer<T> b;
  PackBuffer<T> c;  ///< a gemm_batch / trsm_stacked group's rows, gathered
  std::vector<RowRun<T>> runs;  ///< the stacked rows being packed
  std::vector<index_t> col0;   ///< gemm_batch: first packed column of each B_q
  std::vector<index_t> reach;  ///< gemm_batch: columns each A_p's targets reach
  std::vector<std::size_t> by_row;  ///< gemm_batch: targets ordered by p ...
  std::vector<std::size_t> first;   ///< ... starting at first[p]
  std::vector<RowSegment> segs;     ///< the rows of one group
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

/// Pack rows [0, n) of a vertical stack of row runs, times alpha, in
/// w-row panels per k-slab: element (k, r) of panel q of the slab at depth
/// pc lives at pc*round_up(n, w) + q*kc*w + k*w + r, rows past n
/// zero-padded. With w = MR this is pack_a's layout of the stack (MR divides
/// kMC, so the kMC blocks add no padding of their own); with w = NR and
/// alpha folded in, pack_b's layout of its transpose (Trans::Yes).
template <typename T>
const T* pack_runs(PackBuffer<T>& buf, const std::vector<RowRun<T>>& runs,
                   T alpha, index_t n, index_t kk, index_t w) {
  static_assert(kMC % MicroTile<T>::MR == 0);
  const std::size_t n_rounded = static_cast<std::size_t>(round_up(n, w));
  T* dst = buf.ensure(n_rounded * static_cast<std::size_t>(kk));
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    std::size_t run = 0;  // the run holding the panel's first row ...
    index_t off = 0;      // ... and its offset there
    for (index_t q = 0; q < n; q += w) {
      const index_t rows = std::min(w, n - q);
      if (rows < w) std::fill(dst, dst + kc * w, T(0));
      for (index_t r = 0; r < rows;) {
        const RowRun<T>& rr = runs[run];
        const index_t take = std::min(rr.rows - off, rows - r);
        const T* src = rr.data + off + static_cast<std::size_t>(pc) * rr.ld;
        if (take < 8) {
          // A short piece: the long loop runs along k.
          for (index_t i = 0; i < take; ++i) {
            for (index_t k = 0; k < kc; ++k)
              dst[k * w + r + i] = alpha * src[static_cast<std::size_t>(k) * rr.ld + i];
          }
        } else {
          for (index_t k = 0; k < kc; ++k) {
            const T* col = src + static_cast<std::size_t>(k) * rr.ld;
            T* d = dst + k * w + r;
            for (index_t i = 0; i < take; ++i) d[i] = alpha * col[i];
          }
        }
        r += take;
        off += take;
        if (off == rr.rows) {
          ++run;
          off = 0;
        }
      }
      dst += kc * w;
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
  /// The gemm_batch products (alpha = ±1, depth > 0).
  void (*gemm_batch)(T, std::span<const ConstView<T>>,
                     std::span<const ConstView<T>>,
                     std::span<const GemmTarget<T>>);
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

template <typename T>
void ref_gemm_batch(T alpha, std::span<const ConstView<T>> a,
                    std::span<const ConstView<T>> b,
                    std::span<const GemmTarget<T>> targets) {
  for (const GemmTarget<T>& t : targets) {
    const auto p = static_cast<std::size_t>(t.p);
    const auto q = static_cast<std::size_t>(t.q);
    if (t.transposed) gemm_nests(Trans::No, Trans::Yes, alpha, b[q], a[p], t.c);
    else gemm_nests(Trans::No, Trans::Yes, alpha, a[p], b[q], t.c);
  }
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

/// Collect in `segs` the next group of stacked rows, resuming at row `off`
/// of block p: at most kStackRows rows, a tall block split across groups.
/// Blocks with skip(p) are passed over; the group ends before a block p
/// with cut(prev, p), prev being the group's last block. Returns the
/// group's row count (0 once the blocks run out).
template <typename Height, typename Skip, typename Cut>
index_t next_group(std::size_t np, const Height& height, const Skip& skip,
                   const Cut& cut, std::size_t& p, index_t& off,
                   std::vector<RowSegment>& segs) {
  segs.clear();
  index_t m = 0;
  while (p < np && m < kStackRows) {
    if (off == 0 && (height(p) == 0 || skip(p))) {
      ++p;
      continue;
    }
    if (m > 0 && off == 0 && cut(segs.back().p, p)) break;
    const index_t take = std::min(height(p) - off, kStackRows - m);
    segs.push_back({p, off, off + take});
    m += take;
    off += take;
    if (off == height(p)) {
      ++p;
      off = 0;
    }
  }
  return m;
}

/// Copy between a gemm_batch target and its slot in a group's gathered
/// block G (ld m): rows [r0, r1) of row block p, i.e. G rows from g0, and
/// the target's columns (its rows, when transposed) from column c0 of G.
/// Short row ranges copy row by row, so no tiny per-column copy is issued.
template <typename T>
void move_target(const GemmTarget<T>& t, index_t r0, index_t r1, T* g,
                 index_t m, index_t g0, index_t c0, bool gather) {
  const index_t h = r1 - r0;
  T* gs = g + static_cast<std::size_t>(c0) * m + g0;
  // Element (r, j) of the slot: G at gs[j*m + r], the target at
  // tc[r*rs + j*cs].
  const bool tr = t.transposed;
  T* tc = tr ? t.c.col(r0) : t.c.data + r0;
  const std::size_t rs = tr ? static_cast<std::size_t>(t.c.ld) : 1;
  const std::size_t cs = tr ? 1 : static_cast<std::size_t>(t.c.ld);
  const index_t n = tr ? t.c.rows : t.c.cols;
  const auto um = static_cast<std::size_t>(m);
  if (!tr && h >= 8) {
    for (index_t j = 0; j < n; ++j) {
      T* gj = gs + static_cast<std::size_t>(j) * um;
      T* cj = tc + static_cast<std::size_t>(j) * cs;
      for (index_t r = 0; r < h; ++r) {
        if (gather) gj[r] = cj[r];
        else cj[r] = gj[r];
      }
    }
    return;
  }
  for (index_t r = 0; r < h; ++r) {
    T* gr = gs + r;
    T* cr = tc + static_cast<std::size_t>(r) * rs;
    for (index_t j = 0; j < n; ++j) {
      if (gather) gr[static_cast<std::size_t>(j) * um] = cr[static_cast<std::size_t>(j) * cs];
      else cr[static_cast<std::size_t>(j) * cs] = gr[static_cast<std::size_t>(j) * um];
    }
  }
}

template <typename T>
void native_gemm_batch(T alpha, std::span<const ConstView<T>> a,
                       std::span<const ConstView<T>> b,
                       std::span<const GemmTarget<T>> targets) {
  const index_t kk = b[0].cols;
  if (kk < 4) {  // too shallow to pay for packing (see use_packed)
    ref_gemm_batch(alpha, a, b, targets);
    return;
  }
  constexpr index_t MR = MicroTile<T>::MR;
  constexpr index_t NR = MicroTile<T>::NR;
  const auto kernel = detail::native_kernels().template gemm_packed<T>();
  ThreadPackBuffers<T>& bufs = pack_buffers<T>();
  const std::size_t np = a.size();

  // The column blocks, stacked in order and packed once: B_q occupies the
  // packed columns [col0[q], col0[q] + rows of B_q).
  bufs.runs.clear();
  bufs.col0.assign(b.size(), 0);
  index_t n = 0;
  for (std::size_t q = 0; q < b.size(); ++q) {
    bufs.col0[q] = n;
    n += b[q].rows;
    if (b[q].rows > 0) bufs.runs.push_back({b[q].data, b[q].ld, b[q].rows});
  }
  const T* bp = pack_runs<T>(bufs.b, bufs.runs, alpha, n, kk, NR);
  const std::size_t b_slab = static_cast<std::size_t>(round_up(n, NR));

  // The targets of each row block (a counting sort on p), and the columns
  // they reach.
  bufs.first.assign(np + 1, 0);
  bufs.reach.assign(np, 0);
  for (const GemmTarget<T>& t : targets) {
    const auto p = static_cast<std::size_t>(t.p);
    const auto q = static_cast<std::size_t>(t.q);
    ++bufs.first[p + 1];
    bufs.reach[p] = std::max(bufs.reach[p], bufs.col0[q] + b[q].rows);
  }
  for (std::size_t p = 0; p < np; ++p) bufs.first[p + 1] += bufs.first[p];
  bufs.by_row.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i)
    bufs.by_row[bufs.first[static_cast<std::size_t>(targets[i].p)]++] = i;
  for (std::size_t p = np; p > 0; --p) bufs.first[p] = bufs.first[p - 1];
  bufs.first[0] = 0;

  // Row groups: consecutive rows of the row blocks in order (see
  // next_group). A group computes the columns its rows' targets reach; it
  // ends before a block that reaches fewer columns, so rows needing few
  // columns do not pay for a wide group (the LU update's later row bloks
  // after its facing ones).
  std::vector<RowSegment>& segs = bufs.segs;
  const auto height = [&](std::size_t p) { return a[p].rows; };
  const auto no_target = [&](std::size_t p) {
    return bufs.first[p] == bufs.first[p + 1];
  };
  const auto narrower = [&](std::size_t prev, std::size_t p) {
    return bufs.reach[p] < bufs.reach[prev];
  };
  std::size_t p = 0;
  index_t off = 0;
  for (;;) {
    const index_t m = next_group(np, height, no_target, narrower, p, off, segs);
    if (m == 0) break;
    const index_t reach = bufs.reach[segs.back().p];  // non-decreasing in a group
    bufs.runs.clear();
    for (const RowSegment& sg : segs)
      bufs.runs.push_back({a[sg.p].data + sg.r0, a[sg.p].ld, sg.r1 - sg.r0});
    const T* ap = pack_runs<T>(bufs.a, bufs.runs, T(1), m, kk, MR);
    const auto a_slab = static_cast<std::size_t>(round_up(m, MR));
    const std::size_t g_size = static_cast<std::size_t>(m) * static_cast<std::size_t>(reach);
    T* g = bufs.c.ensure(g_size);
    // Entries without a target (the discarded products) start from zero.
    for (const RowSegment& sg : segs) {
      index_t covered = 0;
      for (std::size_t i = bufs.first[sg.p]; i < bufs.first[sg.p + 1]; ++i)
        covered += b[static_cast<std::size_t>(targets[bufs.by_row[i]].q)].rows;
      if (covered < reach) {
        std::fill(g, g + g_size, T(0));
        break;
      }
    }
    const auto each_slot = [&](bool gather) {
      index_t g0 = 0;
      for (const RowSegment& sg : segs) {
        for (std::size_t i = bufs.first[sg.p]; i < bufs.first[sg.p + 1]; ++i) {
          const GemmTarget<T>& t = targets[bufs.by_row[i]];
          move_target(t, sg.r0, sg.r1, g, m, g0,
                      bufs.col0[static_cast<std::size_t>(t.q)], gather);
        }
        g0 += sg.r1 - sg.r0;
      }
    };
    // Accumulating onto the targets' own values keeps each element's order
    // that of the single call; the k-slabs run in order, as in one walk.
    each_slot(true);
    for (index_t pc = 0; pc < kk; pc += kKC) {
      kernel(m, reach, std::min(kKC, kk - pc),
             ap + a_slab * static_cast<std::size_t>(pc),
             bp + b_slab * static_cast<std::size_t>(pc), g, m);
    }
    each_slot(false);
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
void gemm_batch(T alpha, std::span<const ConstView<T>> a,
                std::span<const ConstView<T>> b,
                std::span<const GemmTarget<T>> targets) {
  assert(alpha == T(1) || alpha == T(-1));
  for (const GemmTarget<T>& t : targets) {
    const ConstView<T>& ap = a[static_cast<std::size_t>(t.p)];
    const ConstView<T>& bq = b[static_cast<std::size_t>(t.q)];
    assert(ap.cols == bq.cols);
    assert(t.transposed ? (t.c.rows == bq.rows && t.c.cols == ap.rows)
                        : (t.c.rows == ap.rows && t.c.cols == bq.rows));
    (void)ap;
    (void)bq;
  }
  if (targets.empty() || b.empty() || b[0].cols == 0) return;
  backend_vtable<T>(current_backend()).gemm_batch(alpha, a, b, targets);
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

namespace {

/// Columns per substitution strip of trsm_stacked: the rest of each strip's
/// columns is one GEMM.
constexpr index_t kTrsmStrip = 32;

/// X·op(A) = X in place, blocked (trsm_stacked's forward variants): per
/// strip J of columns, substitution against A(J, J), then
/// X(:, right of J) -= X(:, J)·op(A)(J, right of J). Column j receives its
/// terms in ascending k, the order of the unblocked substitution.
template <typename T>
void trsm_right_blocked(const BackendVtable<T>& vt, Uplo uplo, Trans trans,
                        Diag diag, ConstView<T> a, MatView<T> x) {
  const index_t w = a.rows;
  for (index_t j0 = 0; j0 < w; j0 += kTrsmStrip) {
    const index_t nb = std::min(kTrsmStrip, w - j0);
    const index_t j1 = j0 + nb;
    vt.trsm(Side::Right, uplo, trans, diag, a.sub(j0, j0, nb, nb),
            x.sub(0, j0, x.rows, nb));
    if (j1 == w) break;
    if (uplo == Uplo::Lower) {  // op(A) = Aᵗ: the strip below A(J, J)
      vt.gemm(Trans::No, Trans::Yes, T(-1), x.sub(0, j0, x.rows, nb),
              a.sub(j1, j0, w - j1, nb), x.sub(0, j1, x.rows, w - j1));
    } else {  // op(A) = A: the strip right of A(J, J)
      vt.gemm(Trans::No, Trans::No, T(-1), x.sub(0, j0, x.rows, nb),
              a.sub(j0, j1, nb, w - j1), x.sub(0, j1, x.rows, w - j1));
    }
  }
}

} // namespace

template <typename T>
void trsm_stacked(Uplo uplo, Trans trans, Diag diag, ConstView<T> a,
                  std::span<const MatView<T>> b) {
  const BackendVtable<T>& vt = backend_vtable<T>(current_backend());
  const index_t w = a.rows;
  assert((uplo == Uplo::Lower) == (trans == Trans::Yes));
  for (const MatView<T>& bp : b) {
    assert(a.cols == w && bp.cols == w);
    (void)bp;
  }
  if (w == 0) return;
  // Rows are independent, so any grouping keeps every row's bits. A group
  // of one segment is solved in place; a wider group is gathered into
  // per-thread scratch of at most kStackRows × w, solved, and scattered
  // back.
  ThreadPackBuffers<T>& bufs = pack_buffers<T>();
  std::vector<RowSegment>& segs = bufs.segs;
  const auto height = [&](std::size_t p) { return b[p].rows; };
  const auto never = [](auto...) { return false; };
  std::size_t p = 0;
  index_t off = 0;
  for (;;) {
    const index_t m = next_group(b.size(), height, never, never, p, off, segs);
    if (m == 0) break;
    if (segs.size() == 1) {
      const RowSegment& sg = segs.front();
      trsm_right_blocked(vt, uplo, trans, diag, a,
                         b[sg.p].sub(sg.r0, 0, sg.r1 - sg.r0, w));
      continue;
    }
    const MatView<T> g(bufs.c.ensure(static_cast<std::size_t>(m) *
                                     static_cast<std::size_t>(w)),
                       m, w, m);
    const auto move = [&](bool gather) {
      index_t g0 = 0;
      for (const RowSegment& sg : segs) {
        const index_t h = sg.r1 - sg.r0;
        const MatView<T> src = b[sg.p].sub(sg.r0, 0, h, w);
        if (gather) copy<T>(src, g.sub(g0, 0, h, w));
        else copy<T>(g.sub(g0, 0, h, w), src);
        g0 += h;
      }
    };
    move(true);
    trsm_right_blocked(vt, uplo, trans, diag, a, g);
    move(false);
  }
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
  template void gemm_batch<T>(T, std::span<const ConstView<T>>,                         \
                              std::span<const ConstView<T>>,                           \
                              std::span<const GemmTarget<T>>);                         \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, ConstView<T>, MatView<T>);         \
  template void trsm_stacked<T>(Uplo, Trans, Diag, ConstView<T>,                       \
                                std::span<const MatView<T>>);                          \
  template void syrk<T>(Uplo, Trans, T, ConstView<T>, T, MatView<T>);                  \
  template void gemv<T>(Trans, T, ConstView<T>, const T*, T, T*);                      \
  template void trsv<T>(Uplo, Trans, Diag, ConstView<T>, T*);

BLR_INSTANTIATE_BLAS(float)
BLR_INSTANTIATE_BLAS(double)

#undef BLR_INSTANTIATE_BLAS

} // namespace blr::la
