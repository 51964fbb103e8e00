#include "linalg/blas.hpp"

#include <algorithm>
#include <atomic>
#include <new>
#include <vector>

#include "linalg/kernels_isa.hpp"

namespace blr::la {

namespace {

using detail::kKC;
using detail::kMC;
using detail::kMR;
using detail::kNR;
using detail::panel_rows;
using detail::round_up;

/// Scale C by beta (handles beta == 0 without reading C).
void scale_matrix(real_t beta, DView c) {
  if (beta == real_t(1)) return;
  if (beta == real_t(0)) {
    fill(c, real_t(0));
    return;
  }
  for (index_t j = 0; j < c.cols; ++j) scal(c.rows, beta, c.col(j));
}

// ---- Loop-nest gemm (gemm_unpacked, and the small-case path) -------------
//
// All four nests follow ONE canonical per-element accumulation order —
// ascending k, the alpha factor folded into the B term, partial sums
// accumulated straight into C — which is exactly the order the packed
// microkernel reproduces over its zero-padded panels. No term may be
// skipped on a zero operand: C(i,j) += a*0 can flip the sign bit of a -0.0,
// so a skipping nest would not be bit-identical to the non-skipping packed
// path. This shared order is the tiers' memcmp contract (backend.hpp).

// C += alpha * A * B, cache-blocked over k (blocking only reorders the
// store/load boundary, not the per-element sum order).
void gemm_nn(real_t alpha, DConstView a, DConstView b, DView c) {
  for (index_t k0 = 0; k0 < a.cols; k0 += kKC) {
    const index_t kend = std::min(k0 + kKC, a.cols);
    for (index_t j = 0; j < c.cols; ++j) {
      real_t* cj = c.col(j);
      for (index_t k = k0; k < kend; ++k) {
        const real_t bkj = alpha * b(k, j);
        axpy(c.rows, bkj, a.col(k), cj);
      }
    }
  }
}

// C += alpha * Aᵗ * B (A, B columns contiguous).
void gemm_tn(real_t alpha, DConstView a, DConstView b, DView c) {
  for (index_t j = 0; j < c.cols; ++j) {
    const real_t* bj = b.col(j);
    for (index_t i = 0; i < c.rows; ++i) {
      const real_t* ai = a.col(i);  // column i of A = row i of Aᵗ
      real_t s = c(i, j);
      for (index_t k = 0; k < a.rows; ++k) s += ai[k] * (alpha * bj[k]);
      c(i, j) = s;
    }
  }
}

// C += alpha * A * Bᵗ.
void gemm_nt(real_t alpha, DConstView a, DConstView b, DView c) {
  for (index_t j = 0; j < c.cols; ++j) {
    real_t* cj = c.col(j);
    for (index_t k = 0; k < a.cols; ++k) {
      const real_t bjk = alpha * b(j, k);
      axpy(c.rows, bjk, a.col(k), cj);
    }
  }
}

// C += alpha * Aᵗ * Bᵗ.
void gemm_tt(real_t alpha, DConstView a, DConstView b, DView c) {
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t i = 0; i < c.rows; ++i) {
      const real_t* ai = a.col(i);  // column i of A = row i of Aᵗ
      real_t s = c(i, j);
      for (index_t k = 0; k < a.rows; ++k) s += ai[k] * (alpha * b(j, k));
      c(i, j) = s;
    }
  }
}

/// Accumulate-form nest dispatch: C += alpha * op(A) * op(B).
void gemm_nests(Trans trans_a, Trans trans_b, real_t alpha, DConstView a,
                DConstView b, DView c) {
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
struct PackBuffer {
  real_t* data = nullptr;
  std::size_t cap = 0;

  ~PackBuffer() {
    if (data != nullptr) ::operator delete[](data, std::align_val_t{64});
  }

  real_t* ensure(std::size_t n) {
    if (n > cap) {
      const std::size_t grown = std::max(n, cap * 2);
      if (data != nullptr) ::operator delete[](data, std::align_val_t{64});
      data = static_cast<real_t*>(
          ::operator new[](grown * sizeof(real_t), std::align_val_t{64}));
      cap = grown;
    }
    return data;
  }
};

/// Consecutive rows of one column-major block: `rows` rows from `data`,
/// columns `ld` apart.
struct RowRun {
  const real_t* data;
  index_t ld;
  index_t rows;
};

/// Rows [r0, r1) of stacked block p.
struct RowSegment {
  std::size_t p;
  index_t r0, r1;
};

struct ThreadPackBuffers {
  PackBuffer a;
  PackBuffer b;
  PackBuffer c;  ///< a trsm_stacked group's rows, gathered
  std::vector<RowRun> runs;  ///< the stacked rows being packed
  std::vector<index_t> col0;   ///< gemm_batch: first packed column of each B_q
  std::vector<index_t> reach;  ///< gemm_batch: columns each A_p's targets reach
  std::vector<std::size_t> by_row;  ///< gemm_batch: targets ordered by p ...
  std::vector<std::size_t> first;   ///< ... starting at first[p]
  std::vector<RowSegment> segs;     ///< the rows of one group
  // gemm_batch: where a group's entries live (detail::GridC).
  std::vector<index_t> col_blk, col_off, run;
  std::vector<std::intptr_t> addr, step;
  std::vector<GemmTarget> plain, swapped;  ///< gemm_batch: the two grids
};

ThreadPackBuffers& pack_buffers() {
  thread_local ThreadPackBuffers bufs;
  return bufs;
}

/// Pack one mc×kc block of op(A) into row panels, mr rows each while at
/// least mr remain, then kMR-row tails (detail::panel_rows):
/// element (r, k) of a panel of h rows starting at packed offset o lives at
/// o + k*h + r. Rows past mc are zero-padded so the microkernel never
/// branches on the row edge.
void pack_block_a(DConstView a, Trans trans, index_t i0, index_t mc,
                  index_t k0, index_t kc, index_t mr, real_t* dst) {
  for (index_t p = 0; p < mc;) {
    const index_t h = mc - p >= mr ? mr : kMR;
    const index_t rows = std::min(h, mc - p);
    if (trans == Trans::No) {
      for (index_t k = 0; k < kc; ++k) {
        const real_t* col = a.col(k0 + k) + i0 + p;
        index_t r = 0;
        for (; r < rows; ++r) dst[k * h + r] = col[r];
        for (; r < h; ++r) dst[k * h + r] = real_t(0);
      }
    } else {
      // op(A)(i, k) = A(k, i): source column i0+p+r is contiguous over k.
      if (rows < h) std::fill(dst, dst + kc * h, real_t(0));
      for (index_t r = 0; r < rows; ++r) {
        const real_t* col = a.col(i0 + p + r) + k0;
        for (index_t k = 0; k < kc; ++k) dst[k * h + r] = col[k];
      }
    }
    dst += kc * h;
    p += h;
  }
}

/// Pack one kc×n slab of alpha*op(B) into NR-column panels: element (k, c)
/// of panel q lives at q*kc*NR + k*NR + c, columns past n zero-padded.
void pack_slab_b(DConstView b, Trans trans, real_t alpha, index_t k0,
                 index_t kc, index_t n, real_t* dst) {
  for (index_t q = 0; q < n; q += kNR) {
    const index_t nr = std::min(kNR, n - q);
    if (trans == Trans::No) {
      if (nr < kNR) std::fill(dst, dst + kc * kNR, real_t(0));
      for (index_t c = 0; c < nr; ++c) {
        const real_t* col = b.col(q + c) + k0;
        for (index_t k = 0; k < kc; ++k) dst[k * kNR + c] = alpha * col[k];
      }
    } else {
      // op(B)(k, j) = B(j, k): source column k0+k is contiguous over j.
      for (index_t k = 0; k < kc; ++k) {
        const real_t* col = b.col(k0 + k) + q;
        index_t c = 0;
        for (; c < nr; ++c) dst[k * kNR + c] = alpha * col[c];
        for (; c < kNR; ++c) dst[k * kNR + c] = real_t(0);
      }
    }
    dst += kc * kNR;
  }
}

/// Pack all of op(A) (m×kk), blocked kKC×kMC in the microkernel walk's loop
/// order, in panels of mr rows (the tier's) with kMR-row tails.
const real_t* pack_a(PackBuffer& buf, DConstView a, Trans trans, index_t m,
                     index_t kk, index_t mr) {
  std::size_t rows_rounded = 0;
  for (index_t ic = 0; ic < m; ic += kMC)
    rows_rounded += panel_rows(std::min(kMC, m - ic), mr, kMR);
  real_t* dst = buf.ensure(rows_rounded * static_cast<std::size_t>(kk));
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    for (index_t ic = 0; ic < m; ic += kMC) {
      const index_t mc = std::min(kMC, m - ic);
      pack_block_a(a, trans, ic, mc, pc, kc, mr, dst);
      dst += static_cast<std::size_t>(panel_rows(mc, mr, kMR)) * kc;
    }
  }
  return buf.data;
}

/// Pack all of alpha*op(B) (kk×n), k-blocked in the microkernel walk's loop
/// order.
const real_t* pack_b(PackBuffer& buf, DConstView b, Trans trans, real_t alpha,
                     index_t kk, index_t n) {
  real_t* dst = buf.ensure(static_cast<std::size_t>(round_up(n, kNR)) * kk);
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    pack_slab_b(b, trans, alpha, pc, kc, n, dst);
    dst += static_cast<std::size_t>(kc) * round_up(n, kNR);
  }
  return buf.data;
}

/// Pack rows [0, n) of a vertical stack of row runs, times alpha, per
/// k-slab in panels of w rows while at least w remain, then panels of tail
/// rows (detail::panel_rows): element (k, r) of the panel starting at
/// packed row q of the slab at depth pc lives at
/// pc*panel_rows(n, w, tail) + q*kc + k*h + r, h the panel's height, rows
/// past n zero-padded. With (w, tail) the tier's (mr, MR) this is pack_a's
/// layout of the stack (both divide kMC, so the kMC blocks add no padding
/// of their own); with w = tail = NR and alpha folded in, pack_b's layout
/// of its transpose (Trans::Yes).
const real_t* pack_runs(PackBuffer& buf, const std::vector<RowRun>& runs,
                        real_t alpha, index_t n, index_t kk, index_t w,
                        index_t tail) {
  static_assert(kMC % detail::kWideMR == 0 && kMC % kMR == 0);
  const std::size_t n_rounded = static_cast<std::size_t>(panel_rows(n, w, tail));
  real_t* dst = buf.ensure(n_rounded * static_cast<std::size_t>(kk));
  for (index_t pc = 0; pc < kk; pc += kKC) {
    const index_t kc = std::min(kKC, kk - pc);
    std::size_t run = 0;  // the run holding the panel's first row ...
    index_t off = 0;      // ... and its offset there
    for (index_t q = 0; q < n;) {
      const index_t h = n - q >= w ? w : tail;
      const index_t rows = std::min(h, n - q);
      if (rows < h) std::fill(dst, dst + kc * h, real_t(0));
      for (index_t r = 0; r < rows;) {
        const RowRun& rr = runs[run];
        const index_t take = std::min(rr.rows - off, rows - r);
        const real_t* src = rr.data + off + static_cast<std::size_t>(pc) * rr.ld;
        if (take < 8) {
          // A short piece: the long loop runs along k.
          for (index_t i = 0; i < take; ++i) {
            for (index_t k = 0; k < kc; ++k)
              dst[k * h + r + i] = alpha * src[static_cast<std::size_t>(k) * rr.ld + i];
          }
        } else {
          for (index_t k = 0; k < kc; ++k) {
            const real_t* col = src + static_cast<std::size_t>(k) * rr.ld;
            real_t* d = dst + k * h + r;
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
      dst += kc * h;
      q += h;
    }
  }
  return buf.data;
}

/// Packing pays for itself once there is enough arithmetic per packed
/// element; tiny products (thin ranks, small tiles) stay on the loop nests.
bool use_packed(index_t m, index_t n, index_t kk) {
  return kk >= 4 && static_cast<double>(m) * static_cast<double>(n) *
                            static_cast<double>(kk) >=
                        16384.0;
}

// ---- The packed engine ---------------------------------------------------
//
// The public gemm/trsm/syrk entry points validate, apply beta/alpha scaling
// and early-out, then hand the remaining accumulate/substitute work to the
// native_* routines below: the packed engine on the CPUID-selected ISA tier
// (backend.hpp). Tiny products stay on the shared loop nests above, hence
// bit-identical to gemm_unpacked.

/// The gemm_batch products as one loop-nest call per target, updating each
/// target in place: the grid of a depth too shallow to pack.
void gemm_batch_nests(real_t alpha, std::span<const DConstView> a,
                      std::span<const DConstView> b,
                      std::span<const GemmTarget> targets) {
  for (const GemmTarget& t : targets) {
    const auto p = static_cast<std::size_t>(t.p);
    const auto q = static_cast<std::size_t>(t.q);
    if (t.transposed) gemm_nests(Trans::No, Trans::Yes, alpha, b[q], a[p], t.c);
    else gemm_nests(Trans::No, Trans::Yes, alpha, a[p], b[q], t.c);
  }
}

/// C += alpha·Aᵗ·op(B) for C narrower than a micro-tile: eight interleaved
/// dot chains over eight columns of A. Each chain is gemm_tn's (ascending k,
/// alpha folded into the B term), so the bits match the loop nests; the
/// interleaving only hides the latency of the single chain.
void gemm_t_thin(Trans trans_b, real_t alpha, DConstView a, DConstView b,
                 DView c) {
  constexpr index_t kChains = 8;
  const index_t kk = a.rows;
  for (index_t j = 0; j < c.cols; ++j) {
    // Column j of op(B), with stride bs between consecutive k.
    const real_t* bj = trans_b == Trans::No ? b.col(j) : b.data + j;
    const index_t bs = trans_b == Trans::No ? 1 : b.ld;
    real_t* cj = c.col(j);
    index_t i = 0;
    for (; i + kChains <= c.rows; i += kChains) {
      real_t s[kChains];
      const real_t* ai[kChains];
      for (index_t r = 0; r < kChains; ++r) {
        s[r] = cj[i + r];
        ai[r] = a.col(i + r);
      }
      for (index_t k = 0; k < kk; ++k) {
        const real_t bk = alpha * bj[k * bs];
        for (index_t r = 0; r < kChains; ++r) s[r] += ai[r][k] * bk;
      }
      for (index_t r = 0; r < kChains; ++r) cj[i + r] = s[r];
    }
    for (; i < c.rows; ++i) {
      const real_t* ac = a.col(i);
      real_t s = cj[i];
      for (index_t k = 0; k < kk; ++k) s += ac[k] * (alpha * bj[k * bs]);
      cj[i] = s;
    }
  }
}

/// C += alpha * op(A) * op(B) (beta already applied).
void native_gemm(Trans trans_a, Trans trans_b, real_t alpha, DConstView a,
                 DConstView b, DView c) {
  const index_t kk = (trans_a == Trans::No) ? a.cols : a.rows;
  if (c.cols < kNR) {
    // Thinner than a micro-tile (a single-RHS solve): packing would fill
    // mostly zero padding, so run direct kernels in the canonical order.
    if (trans_a == Trans::No) {
      gemm_nests(trans_a, trans_b, alpha, a, b, c);  // the axpy order
    } else {
      gemm_t_thin(trans_b, alpha, a, b, c);
    }
    return;
  }
  if (!use_packed(c.rows, c.cols, kk)) {
    gemm_nests(trans_a, trans_b, alpha, a, b, c);
    return;
  }
  const detail::IsaKernels& isa = detail::native_kernels();
  auto& bufs = pack_buffers();
  const real_t* ap = pack_a(bufs.a, a, trans_a, c.rows, kk, isa.mr);
  const real_t* bp = pack_b(bufs.b, b, trans_b, alpha, kk, c.cols);
  isa.gemm_packed(c.rows, c.cols, kk, ap, bp, c.data, c.ld);
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

/// The packed grid walk of native_gemm_batch over plain targets; adds the
/// walk's entry counts (detail::GridC::counts) to counts.
void native_grid(real_t alpha, std::span<const DConstView> a,
                 std::span<const DConstView> b,
                 std::span<const GemmTarget> targets, std::uint64_t* counts) {
  const index_t kk = b[0].cols;
  const detail::IsaKernels& isa = detail::native_kernels();
  const index_t mr = isa.mr;
  ThreadPackBuffers& bufs = pack_buffers();
  const std::size_t np = a.size();
  const std::size_t nq = b.size();

  // The targets of each row block (a counting sort on p), and the columns
  // they reach in the column blocks stacked in order: B_q occupies the
  // stacked columns [col0[q], col0[q] + rows of B_q).
  bufs.col0.assign(nq, 0);
  for (std::size_t q = 1; q < nq; ++q) bufs.col0[q] = bufs.col0[q - 1] + b[q - 1].rows;
  bufs.first.assign(np + 1, 0);
  bufs.reach.assign(np, 0);
  index_t n = 0;  // columns any target reaches: the ones packed
  for (const GemmTarget& t : targets) {
    const auto p = static_cast<std::size_t>(t.p);
    const auto q = static_cast<std::size_t>(t.q);
    ++bufs.first[p + 1];
    bufs.reach[p] = std::max(bufs.reach[p], bufs.col0[q] + b[q].rows);
    n = std::max(n, bufs.reach[p]);
  }
  for (std::size_t p = 0; p < np; ++p) bufs.first[p + 1] += bufs.first[p];
  bufs.by_row.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i)
    bufs.by_row[bufs.first[static_cast<std::size_t>(targets[i].p)]++] = i;
  for (std::size_t p = np; p > 0; --p) bufs.first[p] = bufs.first[p - 1];
  bufs.first[0] = 0;

  // The column blocks up to the last column reached, packed once.
  bufs.runs.clear();
  bufs.col_blk.clear();
  bufs.col_off.clear();
  for (std::size_t q = 0; q < nq && bufs.col0[q] < n; ++q) {
    for (index_t c = 0; c < b[q].rows; ++c) {
      bufs.col_blk.push_back(static_cast<index_t>(q));
      bufs.col_off.push_back(c);
    }
    if (b[q].rows > 0) bufs.runs.push_back({b[q].data, b[q].ld, b[q].rows});
  }
  const real_t* bp = pack_runs(bufs.b, bufs.runs, alpha, n, kk, kNR, kNR);

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
    if (reach == 0) continue;  // only empty column blocks
    // Where each row's entries live in each reached column block's target
    // (detail::GridC): its address and column step, 0 where the row has no
    // target there (and for the padded rows), which is never stored.
    const auto mp = static_cast<std::size_t>(panel_rows(m, mr, kMR));
    const auto nq_reached =
        static_cast<std::size_t>(bufs.col_blk[static_cast<std::size_t>(reach - 1)]) + 1;
    bufs.addr.assign(nq_reached * mp, 0);
    bufs.step.assign(nq_reached * mp, 0);
    bufs.run.resize(nq_reached * mp);
    bufs.runs.clear();
    std::size_t g0 = 0;
    for (const RowSegment& sg : segs) {
      const index_t h = sg.r1 - sg.r0;
      bufs.runs.push_back({a[sg.p].data + sg.r0, a[sg.p].ld, h});
      for (std::size_t i = bufs.first[sg.p]; i < bufs.first[sg.p + 1]; ++i) {
        const GemmTarget& t = targets[bufs.by_row[i]];
        assert(!t.transposed);
        const auto cs = static_cast<std::intptr_t>(t.c.ld * index_t(sizeof(real_t)));
        const std::size_t x = static_cast<std::size_t>(t.q) * mp + g0;
        for (index_t r = 0; r < h; ++r) {
          const auto xr = x + static_cast<std::size_t>(r);
          bufs.addr[xr] = reinterpret_cast<std::intptr_t>(t.c.data + sg.r0 + r);
          bufs.step[xr] = cs;
        }
      }
      g0 += static_cast<std::size_t>(h);
    }
    // The runs: rows from x on whose entries are consecutive in memory (one
    // ld, addresses sizeof(real_t) apart), or that have no target (negated).
    for (std::size_t x0 = 0; x0 < nq_reached * mp; x0 += mp) {
      for (std::size_t x = x0 + mp; x-- > x0;) {
        const index_t below = x + 1 < x0 + mp ? bufs.run[x + 1] : 0;
        if (bufs.addr[x] == 0) {
          bufs.run[x] = below < 0 ? below - 1 : -1;
        } else {
          const bool joins = below > 0 && bufs.step[x + 1] == bufs.step[x] &&
                             bufs.addr[x + 1] ==
                                 bufs.addr[x] + std::intptr_t(sizeof(real_t));
          bufs.run[x] = joins ? below + 1 : 1;
        }
      }
    }
    const real_t* ap = pack_runs(bufs.a, bufs.runs, real_t(1), m, kk, mr, kMR);
    // Accumulating onto the targets' own values keeps each element's order
    // that of the single call; the k-slabs run in order, as in one walk.
    const detail::GridC grid{m,
                                static_cast<index_t>(mp),
                                reach,
                                n,
                                bufs.col_blk.data(),
                                bufs.col_off.data(),
                                bufs.addr.data(),
                                bufs.step.data(),
                                bufs.run.data(),
                                counts};
    isa.gemm_grid(kk, ap, bp, grid);
  }
}

/// GridGemmCounts of the grid GEMM: entries, in place, per row.
std::atomic<std::uint64_t> g_grid_counts[3];

/// The gemm_batch products (depth > 0).
void native_gemm_batch(real_t alpha, std::span<const DConstView> a,
                       std::span<const DConstView> b,
                       std::span<const GemmTarget> targets) {
  const index_t kk = b[0].cols;
  std::uint64_t entries = 0;
  for (const GemmTarget& t : targets)
    entries += static_cast<std::uint64_t>(t.c.rows * t.c.cols);
  std::uint64_t counts[2] = {0, 0};
  if (kk < 4) {  // too shallow to pay for packing (see use_packed)
    gemm_batch_nests(alpha, a, b, targets);
    counts[0] = entries;
  } else {
    // A transposed target, C += alpha·B_q·A_pᵗ, is a plain target of the
    // grid with the roles swapped (rows B_q, columns A_p, alpha folded into
    // A_p): the single call's own operand order, and C's columns run along
    // the packed columns. The two grids share no target entry, so running
    // one after the other keeps every bit.
    ThreadPackBuffers& bufs = pack_buffers();
    bufs.plain.clear();
    bufs.swapped.clear();
    for (const GemmTarget& t : targets) {
      if (t.transposed) bufs.swapped.push_back({t.q, t.p, t.c, false});
      else bufs.plain.push_back(t);
    }
    if (!bufs.plain.empty())
      native_grid(alpha, a, b, std::span<const GemmTarget>(bufs.plain), counts);
    if (!bufs.swapped.empty())
      native_grid(alpha, b, a, std::span<const GemmTarget>(bufs.swapped), counts);
    entries *= static_cast<std::uint64_t>((kk + kKC - 1) / kKC);  // per k-slab
  }
  g_grid_counts[0].fetch_add(entries, std::memory_order_relaxed);
  g_grid_counts[1].fetch_add(counts[0], std::memory_order_relaxed);
  g_grid_counts[2].fetch_add(counts[1], std::memory_order_relaxed);
}

/// Substitution only (alpha already applied to B).
void native_trsm(Side side, Uplo uplo, Trans trans, Diag diag, DConstView a,
                 DView b) {
  detail::native_kernels().trsm(
      side == Side::Right ? 1 : 0, uplo == Uplo::Upper ? 1 : 0,
      trans == Trans::Yes ? 1 : 0, diag == Diag::Unit ? 1 : 0, a.data, a.ld,
      b.data, b.ld, b.rows, b.cols);
}

/// C(triangle) += alpha * A·Aᵗ or Aᵗ·A (beta already applied).
void native_syrk(Uplo uplo, Trans trans, real_t alpha, DConstView a, DView c) {
  detail::native_kernels().syrk(uplo == Uplo::Upper ? 1 : 0,
                                trans == Trans::Yes ? 1 : 0, alpha, a.data,
                                a.ld, a.rows, a.cols, c.data, c.ld, c.rows);
}

} // namespace

void gemm_unpacked(Trans trans_a, Trans trans_b, real_t alpha, DConstView a,
                   DConstView b, real_t beta, DView c) {
  const index_t opa_rows = (trans_a == Trans::No) ? a.rows : a.cols;
  const index_t opa_cols = (trans_a == Trans::No) ? a.cols : a.rows;
  const index_t opb_rows = (trans_b == Trans::No) ? b.rows : b.cols;
  const index_t opb_cols = (trans_b == Trans::No) ? b.cols : b.rows;
  assert(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows);
  (void)opa_rows;
  (void)opb_cols;
  (void)opb_rows;

  scale_matrix(beta, c);
  if (alpha == real_t(0) || opa_cols == 0 || c.empty()) return;
  gemm_nests(trans_a, trans_b, alpha, a, b, c);
}

void gemm(Trans trans_a, Trans trans_b, real_t alpha, DConstView a,
          DConstView b, real_t beta, DView c) {
  const index_t opa_rows = (trans_a == Trans::No) ? a.rows : a.cols;
  const index_t opa_cols = (trans_a == Trans::No) ? a.cols : a.rows;
  const index_t opb_rows = (trans_b == Trans::No) ? b.rows : b.cols;
  const index_t opb_cols = (trans_b == Trans::No) ? b.cols : b.rows;
  assert(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows);
  (void)opa_rows;
  (void)opb_cols;
  (void)opb_rows;

  scale_matrix(beta, c);
  if (alpha == real_t(0) || opa_cols == 0 || c.empty()) return;
  native_gemm(trans_a, trans_b, alpha, a, b, c);
}

void gemm_batch(real_t alpha, std::span<const DConstView> a,
                std::span<const DConstView> b,
                std::span<const GemmTarget> targets) {
  for (const GemmTarget& t : targets) {
    const DConstView& ap = a[static_cast<std::size_t>(t.p)];
    const DConstView& bq = b[static_cast<std::size_t>(t.q)];
    assert(ap.cols == bq.cols);
    assert(t.transposed ? (t.c.rows == bq.rows && t.c.cols == ap.rows)
                        : (t.c.rows == ap.rows && t.c.cols == bq.rows));
    (void)ap;
    (void)bq;
  }
  if (targets.empty() || b.empty() || b[0].cols == 0) return;
  native_gemm_batch(alpha, a, b, targets);
}

GridGemmCounts grid_gemm_counts() {
  return {g_grid_counts[0].load(std::memory_order_relaxed),
          g_grid_counts[1].load(std::memory_order_relaxed),
          g_grid_counts[2].load(std::memory_order_relaxed)};
}

NativeTile native_tile() {
  return {detail::native_kernels().mr, kNR};
}

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, real_t alpha, DConstView a,
          DView b) {
  const index_t m = b.rows;
  const index_t n = b.cols;
  if (side == Side::Left) assert(a.rows == m && a.cols == m);
  else assert(a.rows == n && a.cols == n);
  (void)m;
  (void)n;

  scale_matrix(alpha, b);
  if (b.empty()) return;
  native_trsm(side, uplo, trans, diag, a, b);
}

namespace {

/// Columns per substitution strip of trsm_stacked: the rest of each strip's
/// columns is one GEMM.
constexpr index_t kTrsmStrip = 32;

/// X·op(A) = X in place, blocked (trsm_stacked's forward variants): per
/// strip J of columns, substitution against A(J, J), then
/// X(:, right of J) -= X(:, J)·op(A)(J, right of J). Column j receives its
/// terms in ascending k, the order of the unblocked substitution.
void trsm_right_blocked(Uplo uplo, Trans trans, Diag diag, DConstView a,
                        DView x) {
  const index_t w = a.rows;
  for (index_t j0 = 0; j0 < w; j0 += kTrsmStrip) {
    const index_t nb = std::min(kTrsmStrip, w - j0);
    const index_t j1 = j0 + nb;
    native_trsm(Side::Right, uplo, trans, diag, a.sub(j0, j0, nb, nb),
                x.sub(0, j0, x.rows, nb));
    if (j1 == w) break;
    if (uplo == Uplo::Lower) {  // op(A) = Aᵗ: the strip below A(J, J)
      native_gemm(Trans::No, Trans::Yes, real_t(-1), x.sub(0, j0, x.rows, nb),
                  a.sub(j1, j0, w - j1, nb), x.sub(0, j1, x.rows, w - j1));
    } else {  // op(A) = A: the strip right of A(J, J)
      native_gemm(Trans::No, Trans::No, real_t(-1), x.sub(0, j0, x.rows, nb),
                  a.sub(j0, j1, nb, w - j1), x.sub(0, j1, x.rows, w - j1));
    }
  }
}

} // namespace

void trsm_stacked(Uplo uplo, Trans trans, Diag diag, DConstView a,
                  std::span<const DView> b) {
  const index_t w = a.rows;
  assert((uplo == Uplo::Lower) == (trans == Trans::Yes));
  for (const DView& bp : b) {
    assert(a.cols == w && bp.cols == w);
    (void)bp;
  }
  if (w == 0) return;
  // Rows are independent, so any grouping keeps every row's bits. A group
  // of one segment is solved in place; a wider group is gathered into
  // per-thread scratch of at most kStackRows × w, solved, and scattered
  // back.
  ThreadPackBuffers& bufs = pack_buffers();
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
      trsm_right_blocked(uplo, trans, diag, a,
                         b[sg.p].sub(sg.r0, 0, sg.r1 - sg.r0, w));
      continue;
    }
    const DView g(bufs.c.ensure(static_cast<std::size_t>(m) *
                                     static_cast<std::size_t>(w)),
                       m, w, m);
    const auto move = [&](bool gather) {
      index_t g0 = 0;
      for (const RowSegment& sg : segs) {
        const index_t h = sg.r1 - sg.r0;
        const DView src = b[sg.p].sub(sg.r0, 0, h, w);
        if (gather) copy<real_t>(src, g.sub(g0, 0, h, w));
        else copy<real_t>(g.sub(g0, 0, h, w), src);
        g0 += h;
      }
    };
    move(true);
    trsm_right_blocked(uplo, trans, diag, a, g);
    move(false);
  }
}

void syrk(Uplo uplo, Trans trans, real_t alpha, DConstView a, real_t beta, DView c) {
  const index_t n = c.rows;
  assert(c.cols == n);
  assert(((trans == Trans::No) ? a.rows : a.cols) == n);

  // Scale the referenced triangle.
  for (index_t j = 0; j < n; ++j) {
    const index_t i0 = (uplo == Uplo::Lower) ? j : 0;
    const index_t i1 = (uplo == Uplo::Lower) ? n : j + 1;
    if (beta == real_t(0)) std::fill(c.col(j) + i0, c.col(j) + i1, real_t(0));
    else if (beta != real_t(1)) scal(i1 - i0, beta, c.col(j) + i0);
  }
  if (alpha == real_t(0) || n == 0) return;
  native_syrk(uplo, trans, alpha, a, c);
}

} // namespace blr::la
