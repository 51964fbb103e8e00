// Kernel tiers (DESIGN.md §14): CPUID detection and the BLR_NATIVE_ISA
// clamp, exact bitwise agreement of the la:: entry points on every ISA tier
// with the reference arithmetic (the gemm_unpacked loop nests, and the
// portable tier's substitution and update loops), and memcmp bit-identity
// of whole factorizations across tiers × strategies × compression kinds ×
// precisions × thread counts — the contract that lets tiers be compared
// without tolerances. Also pins the kernel counter table and the operand
// refusals of the dispatch:: kernels.
//
// The test IDs predate the removal of the runtime Reference/Native backend
// switch and are kept: "Reference" in them now means the reference
// arithmetic above, "Native" the packed engine on the other tiers, and
// "Backend" the kernel tiers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "blr.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/kernels_dispatch.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

// Saves one environment variable and restores it (set or unset) on exit,
// then drops the cached detection so later tests re-read the real state.
class EnvVarGuard {
public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~EnvVarGuard() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
    la::redetect_native_isa();
  }

private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

/// Holds BLR_NATIVE_ISA for one test and selects ISA tiers through it. It
/// lists every tier this binary and CPU can run, the portable tier first,
/// whatever clamp the caller's environment sets, and restores that clamp on
/// exit.
class TierSweep {
public:
  TierSweep() : env_("BLR_NATIVE_ISA") {
    ::unsetenv("BLR_NATIVE_ISA");
    la::redetect_native_isa();
    for (const la::NativeIsa isa :
         {la::NativeIsa::Portable, la::NativeIsa::Avx2, la::NativeIsa::Avx512}) {
      if (la::native_isa_supported(isa)) tiers_.push_back(isa);
    }
  }

  const std::vector<la::NativeIsa>& tiers() const { return tiers_; }

  /// Route the la:: kernels to `isa` until the next select().
  static void select(la::NativeIsa isa) {
    ::setenv("BLR_NATIVE_ISA", la::native_isa_name(isa), 1);
    la::redetect_native_isa();
    ASSERT_EQ(la::native_isa(), isa);
  }

private:
  EnvVarGuard env_;
  std::vector<la::NativeIsa> tiers_;
};

// ---- detection, names, the ISA clamp ------------------------------------

TEST(BackendDetect, NamesAreStable) {
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Portable), "portable");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Avx2), "avx2");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Avx512), "avx512");
}

TEST(BackendDetect, AutoSelectsNative) {
  // The portable packed tier is always compiled in, so a tier is always
  // runnable.
  EXPECT_TRUE(la::native_isa_compiled(la::NativeIsa::Portable));
  EXPECT_TRUE(la::native_isa_supported(la::native_isa()));
#if defined(__x86_64__) || defined(__i386__)
  // On an AVX2-capable x86 host with the SIMD tiers compiled in, detection
  // must not settle for the portable tier.
  if (__builtin_cpu_supports("avx2") &&
      la::native_isa_compiled(la::NativeIsa::Avx2) &&
      std::getenv("BLR_NATIVE_ISA") == nullptr) {
    EXPECT_GE(static_cast<int>(la::native_isa()),
              static_cast<int>(la::NativeIsa::Avx2));
  }
#endif
}

TEST(BackendDetect, IsaClampForcesPortableFallback) {
  EnvVarGuard guard("BLR_NATIVE_ISA");

  // Force-disable the SIMD tiers: detection must land on the portable
  // packed tier, and the clamped tiers must report unsupported.
  ::setenv("BLR_NATIVE_ISA", "portable", 1);
  la::redetect_native_isa();
  EXPECT_EQ(la::native_isa(), la::NativeIsa::Portable);
  EXPECT_FALSE(la::native_isa_supported(la::NativeIsa::Avx2));
  EXPECT_FALSE(la::native_isa_supported(la::NativeIsa::Avx512));

  ::setenv("BLR_NATIVE_ISA", "neon", 1);
  la::redetect_native_isa();
  EXPECT_THROW(la::native_isa(), Error);
}

// ---- exact bitwise agreement of the la:: entry points ----------------

template <typename T>
void expect_same_bits(const la::Matrix<T>& x, const la::Matrix<T>& y,
                      const std::string& what) {
  ASSERT_EQ(x.rows(), y.rows()) << what;
  ASSERT_EQ(x.cols(), y.cols()) << what;
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        sizeof(T) * static_cast<std::size_t>(x.size())),
            0)
      << what;
}

// gemm must agree bit-for-bit with the gemm_unpacked loop nests on every
// ISA tier for every transpose combination, including sizes that cross the
// packing block boundaries (kMC = 128 rows, kKC = 256 depth) and ragged
// edge tiles — the canonical-accumulation-order contract.
void gemm_bit_identity() {
  TierSweep sweep;
  Prng rng(97);
  const struct {
    index_t m, n, k;
  } sizes[] = {{8, 4, 8},       // below the packed threshold: same nests
               {64, 48, 96},    // packed, single MC/KC block
               {137, 43, 300},  // ragged microtile edges + k past kKC
               {200, 40, 300}}; // m past kMC: multi-block packed walk
  for (const auto& sz : sizes) {
    for (const la::Trans ta : {la::Trans::No, la::Trans::Yes}) {
      for (const la::Trans tb : {la::Trans::No, la::Trans::Yes}) {
        la::DMatrix a(ta == la::Trans::No ? sz.m : sz.k,
                        ta == la::Trans::No ? sz.k : sz.m);
        la::DMatrix b(tb == la::Trans::No ? sz.k : sz.n,
                        tb == la::Trans::No ? sz.n : sz.k);
        la::DMatrix c0(sz.m, sz.n);
        random_normal(a.view(), rng);
        random_normal(b.view(), rng);
        random_normal(c0.view(), rng);

        la::DMatrix cr = c0;
        la::gemm_unpacked(ta, tb, real_t(-1), a.cview(), b.cview(), real_t(1), cr.view());

        for (const la::NativeIsa isa : sweep.tiers()) {
          TierSweep::select(isa);
          la::DMatrix cn = c0;
          la::gemm(ta, tb, real_t(-1), a.cview(), b.cview(), real_t(1), cn.view());

          expect_same_bits(cr, cn,
                           std::string(la::native_isa_name(isa)) +
                               " gemm m=" + std::to_string(sz.m) +
                               " n=" + std::to_string(sz.n) +
                               " k=" + std::to_string(sz.k) + " ta=" +
                               (ta == la::Trans::Yes ? "T" : "N") + " tb=" +
                               (tb == la::Trans::Yes ? "T" : "N"));
        }
      }
    }
  }
}

TEST(BackendBitwiseKernels, GemmDouble) { gemm_bit_identity(); }

// Products narrower than a micro-tile (n < NR, e.g. a single-RHS solve)
// skip the packed engine for direct kernels in the same canonical order:
// still bit-identical to the gemm_unpacked nests, on either side of the
// packing threshold (m·k·n ≥ 16,384) and with row counts off the 8-chain
// stride.
void thin_gemm_bit_identity() {
  Prng rng(131);
  const struct {
    index_t m, k;
  } sizes[] = {{40, 24}, {517, 64}, {2048, 128}};
  for (const auto& sz : sizes) {
    for (const index_t n : {1, 2, 3}) {
      for (const la::Trans ta : {la::Trans::No, la::Trans::Yes}) {
        for (const la::Trans tb : {la::Trans::No, la::Trans::Yes}) {
          la::DMatrix a(ta == la::Trans::No ? sz.m : sz.k,
                          ta == la::Trans::No ? sz.k : sz.m);
          la::DMatrix b(tb == la::Trans::No ? sz.k : n,
                          tb == la::Trans::No ? n : sz.k);
          la::DMatrix c0(sz.m, n);
          random_normal(a.view(), rng);
          random_normal(b.view(), rng);
          random_normal(c0.view(), rng);

          la::DMatrix cr = c0;
          la::gemm_unpacked(ta, tb, real_t(-0.75), a.cview(), b.cview(), real_t(1),
                            cr.view());

          la::DMatrix cn = c0;
          la::gemm(ta, tb, real_t(-0.75), a.cview(), b.cview(), real_t(1), cn.view());

          expect_same_bits(cr, cn,
                           "thin gemm m=" + std::to_string(sz.m) +
                               " n=" + std::to_string(n) +
                               " k=" + std::to_string(sz.k) + " ta=" +
                               (ta == la::Trans::Yes ? "T" : "N") + " tb=" +
                               (tb == la::Trans::Yes ? "T" : "N"));
        }
      }
    }
  }
}

TEST(BackendBitwiseKernels, ThinGemmDouble) { thin_gemm_bit_identity(); }

/// How gemm_batch_bit_identity and check_grid_case compute their targets:
/// one gemm_unpacked call per target (the reference), one la::gemm call per
/// target, or one la::gemm_batch grid.
enum class GridRun { Unpacked, Single, Batched };

/// Runs `ts` (views into the caller's matrices) the given way.
void run_targets(GridRun how, real_t alpha, std::span<const la::DConstView> as,
                 std::span<const la::DConstView> bs,
                 std::span<const la::GemmTarget> ts) {
  if (how == GridRun::Batched) {
    la::gemm_batch(alpha, as, bs, ts);
    return;
  }
  const auto gemm = how == GridRun::Unpacked ? &la::gemm_unpacked : &la::gemm;
  for (const la::GemmTarget& t : ts) {
    const auto& ap = as[static_cast<std::size_t>(t.p)];
    const auto& bq = bs[static_cast<std::size_t>(t.q)];
    if (t.transposed)
      gemm(la::Trans::No, la::Trans::Yes, alpha, bq, ap, real_t(1), t.c);
    else
      gemm(la::Trans::No, la::Trans::Yes, alpha, ap, bq, real_t(1), t.c);
  }
}

// gemm_batch must leave every target bit-identical to the single gemm call
// on it and to the gemm_unpacked loop nests, on every ISA tier: row blocks
// of ragged heights that group past the packed threshold, a block too tall
// for one group, a row block without targets, several column blocks with
// targets missing (groups reaching fewer columns than the one before), both
// target orientations, a depth past kKC, strided operands, and alpha = ±1.
void gemm_batch_bit_identity() {
  TierSweep sweep;
  Prng rng(211);
  const index_t heights[] = {1, 3, 8, 17, 40, 300, 5, 2, 64, 250, 9};
  const index_t widths[] = {4, 13, 1, 7, 30};
  const std::size_t np = std::size(heights);
  const std::size_t nq = std::size(widths);
  index_t total = 0;
  for (const index_t h : heights) total += h;
  index_t total_b = 0;
  for (const index_t w : widths) total_b += w;
  // Which (p, q) get a target, and whether it is transposed.
  const auto has = [](std::size_t p, std::size_t q) {
    return p != 3 && (p + 2 * q) % 3 != 0 && !(p > 6 && q > 2);
  };
  const auto flipped = [](std::size_t p, std::size_t q) { return (p * q) % 2 == 1; };
  for (const index_t kk : {index_t(3), index_t(20), index_t(300)}) {
    for (const real_t alpha : {real_t(-1), real_t(1)}) {
      la::DMatrix a(total + 7, kk);  // blocks are strided row ranges
      la::DMatrix b(total_b + 2, kk);
      random_normal(a.view(), rng);
      random_normal(b.view(), rng);
      std::vector<la::DMatrix> c0;
      for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t q = 0; q < nq; ++q) {
          if (!has(p, q)) continue;
          const bool f = flipped(p, q);
          c0.emplace_back((f ? widths[q] : heights[p]) + 3,
                          (f ? heights[p] : widths[q]) + 2);
          random_normal(c0.back().view(), rng);
        }
      }
      const auto run = [&](GridRun how) {
        std::vector<la::DMatrix> c = c0;
        std::vector<la::DConstView> as, bs;
        std::vector<la::GemmTarget> ts;
        index_t r = 0;
        for (const index_t h : heights) {
          as.push_back(a.cview().sub(r + 7, 0, h, kk));
          r += h;
        }
        r = 0;
        for (const index_t w : widths) {
          bs.push_back(b.cview().sub(r + 2, 0, w, kk));
          r += w;
        }
        std::size_t x = 0;
        for (std::size_t p = 0; p < np; ++p) {
          for (std::size_t q = 0; q < nq; ++q) {
            if (!has(p, q)) continue;
            const bool f = flipped(p, q);
            ts.push_back({static_cast<index_t>(p), static_cast<index_t>(q),
                          c[x++].view().sub(1, 1, f ? widths[q] : heights[p],
                                            f ? heights[p] : widths[q]),
                          f});
          }
        }
        run_targets(how, alpha, as, bs, ts);
        return c;
      };
      const std::vector<la::DMatrix> ref = run(GridRun::Unpacked);
      for (const la::NativeIsa isa : sweep.tiers()) {
        TierSweep::select(isa);
        const std::vector<la::DMatrix> single = run(GridRun::Single);
        const std::vector<la::DMatrix> batched = run(GridRun::Batched);
        const std::string what = std::string(la::native_isa_name(isa)) +
                                 " gemm_batch kk=" + std::to_string(kk) +
                                 " alpha=" + std::to_string(static_cast<int>(alpha));
        for (std::size_t i = 0; i < ref.size(); ++i) {
          expect_same_bits(ref[i], single[i], what + " single, target " + std::to_string(i));
          expect_same_bits(ref[i], batched[i], what + " batched, target " + std::to_string(i));
        }
      }
    }
  }
}

/// One grid of gemm_batch, run as single gemm_unpacked calls and as one
/// grid: every target (and the matrices holding them, cells without a
/// target included) must come out with the same bits.
struct GridCase {
  std::vector<index_t> heights;  ///< row blocks
  std::vector<index_t> widths;   ///< column blocks
  index_t kk = 0;
  real_t alpha = real_t(-1);
  /// For row block p, column block q: no target (0), a plain target (1) or
  /// a transposed one (2).
  std::function<int(std::size_t, std::size_t)> kind;
  /// Whether all plain targets share one matrix (block (p, q) at the row
  /// offset of p and the column offset of q, the LLᵗ update's layout);
  /// otherwise each target has a matrix of its own, of its own ld.
  bool shared = false;
};

void check_grid_case(const GridCase& gc, Prng& rng, const std::string& what) {
  const std::size_t np = gc.heights.size();
  const std::size_t nq = gc.widths.size();
  std::vector<index_t> r0(np + 1, 0), c0(nq + 1, 0);
  for (std::size_t p = 0; p < np; ++p) r0[p + 1] = r0[p] + gc.heights[p];
  for (std::size_t q = 0; q < nq; ++q) c0[q + 1] = c0[q] + gc.widths[q];
  la::DMatrix a(r0[np] + 3, gc.kk);
  la::DMatrix b(c0[nq] + 1, gc.kk);
  random_normal(a.view(), rng);
  random_normal(b.view(), rng);
  // The matrices holding the targets: one shared matrix for the plain
  // targets plus one for the transposed ones, or one per target.
  std::vector<la::DMatrix> mats;
  if (gc.shared) {
    mats.emplace_back(r0[np] + 2, c0[nq] + 1);
    mats.emplace_back(c0[nq] + 3, r0[np] + 1);
  } else {
    for (std::size_t p = 0; p < np; ++p) {
      for (std::size_t q = 0; q < nq; ++q) {
        const int k = gc.kind(p, q);
        if (k == 0) continue;
        const index_t pad = static_cast<index_t>((p + 2 * q) % 5);  // own ld
        if (k == 1) mats.emplace_back(gc.heights[p] + pad, gc.widths[q] + 1);
        else mats.emplace_back(gc.widths[q] + pad, gc.heights[p] + 1);
      }
    }
  }
  for (la::DMatrix& m : mats) random_normal(m.view(), rng);
  const std::vector<la::DMatrix> initial = mats;

  const auto run = [&](GridRun how) {
    std::vector<la::DMatrix> c = initial;
    std::vector<la::DConstView> as, bs;
    for (std::size_t p = 0; p < np; ++p)
      as.push_back(a.cview().sub(r0[p] + 3, 0, gc.heights[p], gc.kk));
    for (std::size_t q = 0; q < nq; ++q)
      bs.push_back(b.cview().sub(c0[q] + 1, 0, gc.widths[q], gc.kk));
    std::vector<la::GemmTarget> ts;
    std::size_t x = 0;
    for (std::size_t p = 0; p < np; ++p) {
      for (std::size_t q = 0; q < nq; ++q) {
        const int k = gc.kind(p, q);
        if (k == 0) continue;
        const bool tr = k == 2;
        const index_t h = tr ? gc.widths[q] : gc.heights[p];
        const index_t w = tr ? gc.heights[p] : gc.widths[q];
        la::DView v =
            gc.shared ? (tr ? c[1].view().sub(c0[q] + 2, r0[p], h, w)
                            : c[0].view().sub(r0[p] + 1, c0[q], h, w))
                      : c[x++].view().sub(0, 1, h, w);
        ts.push_back({static_cast<index_t>(p), static_cast<index_t>(q), v, tr});
      }
    }
    if (how == GridRun::Batched) {
      // Every target entry is loaded and stored at its own address, once
      // per k-slab: none passes through a gathered copy.
      const la::GridGemmCounts before = la::grid_gemm_counts();
      run_targets(how, gc.alpha, as, bs, ts);
      const la::GridGemmCounts after = la::grid_gemm_counts();
      std::uint64_t entries = 0;
      for (const la::GemmTarget& t : ts)
        entries += static_cast<std::uint64_t>(t.c.rows * t.c.cols);
      if (gc.kk >= 4) entries *= static_cast<std::uint64_t>((gc.kk + 255) / 256);
      EXPECT_EQ(after.entries - before.entries, entries) << what;
      EXPECT_EQ((after.in_place - before.in_place) + (after.per_row - before.per_row),
                entries)
          << what;
    } else {
      run_targets(how, gc.alpha, as, bs, ts);
    }
    return c;
  };
  const std::vector<la::DMatrix> ref = run(GridRun::Unpacked);
  const std::vector<la::DMatrix> nat = run(GridRun::Batched);
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_same_bits(ref[i], nat[i], what + ", matrix " + std::to_string(i));
  if (gc.shared) {
    // The cells of the shared matrix without a target are never written.
    for (std::size_t p = 0; p < np; ++p) {
      for (std::size_t q = 0; q < nq; ++q) {
        if (gc.kind(p, q) != 0) continue;
        for (index_t j = c0[q]; j < c0[q + 1]; ++j)
          for (index_t i = r0[p] + 1; i < r0[p + 1] + 1; ++i)
            EXPECT_EQ(std::memcmp(&nat[0](i, j), &initial[0](i, j), sizeof(real_t)), 0)
                << what << ": cell without a target written at (" << i << ", " << j
                << ")";
      }
    }
  }
}

/// gemm_batch grids on every runnable ISA tier: row counts around the
/// micro-tile heights (1, 7, 8, 31, 32, 33, 257; alpha ±1, and 0.75 at 33,
/// which rounds), as one row block or cut
/// into short ones so that micro-tiles straddle targets of different ld,
/// plain and transposed targets, an LLᵗ-shaped lower block triangle in one
/// shared matrix (the cells above it checked untouched), and depths past
/// kKC = 256.
void gemm_batch_grid_cases() {
  TierSweep sweep;
  Prng rng(307);
  for (const la::NativeIsa isa : sweep.tiers()) {
    TierSweep::select(isa);
    const std::string tier = la::native_isa_name(isa);
    for (const index_t kk : {index_t(6), index_t(300)}) {
      for (const index_t m : {index_t(1), index_t(7), index_t(8), index_t(31),
                              index_t(32), index_t(33), index_t(257)}) {
        // One row block of m rows, then m rows in short blocks.
        std::vector<index_t> cut;
        const index_t pieces[] = {3, 1, 5, 2, 7, 4};
        for (index_t r = 0, x = 0; r < m; ++x) {
          cut.push_back(std::min(pieces[x % 6], m - r));
          r += cut.back();
        }
        for (const bool split : {false, true}) {
          GridCase gc;
          gc.heights = split ? cut : std::vector<index_t>{m};
          gc.widths = {3, 6, 2};
          gc.kk = kk;
          gc.alpha = m % 2 == 0 ? real_t(1) : m == 33 ? real_t(0.75) : real_t(-1);
          gc.kind = [](std::size_t p, std::size_t q) {
            return (p + q) % 4 == 3 ? 0 : (p + 2 * q) % 3 == 2 ? 2 : 1;
          };
          check_grid_case(gc, rng,
                          tier + " m=" + std::to_string(m) + " kk=" + std::to_string(kk) +
                              (split ? " split" : " one block"));
        }
      }
      // LLᵗ: targets only on and below the block diagonal, in one matrix.
      GridCase llt;
      llt.heights = {4, 9, 1, 12, 6, 30, 40};
      llt.widths = {4, 9, 1, 12};
      llt.kk = kk;
      llt.kind = [](std::size_t p, std::size_t q) { return p >= q ? 1 : 0; };
      llt.shared = true;
      check_grid_case(llt, rng, tier + " llt kk=" + std::to_string(kk));
      // The LU update's transposed (U) targets beside plain ones, shared.
      GridCase lu = llt;
      lu.kind = [](std::size_t p, std::size_t q) { return p >= q ? 1 : 2; };
      check_grid_case(lu, rng, tier + " lu kk=" + std::to_string(kk));
    }
  }
}

TEST(BackendBitwiseKernels, GemmBatchDouble) {
  gemm_batch_bit_identity();
  gemm_batch_grid_cases();
}

// trsm_stacked must leave every block bit-identical to the per-block
// la::trsm on the portable tier, on every ISA tier, for the three dense
// panel variants (LLᵗ L, LU L, LU U): block heights that stack into shared
// groups and one that splits across groups, widths around the substitution
// strip, exact zeros in the triangle and -0.0 in the right-hand side.
void stacked_trsm_bit_identity() {
  TierSweep sweep;
  Prng rng(307);
  const index_t heights[] = {1, 3, 7, 300, 1, 3, 7};
  index_t total = 0;
  for (const index_t h : heights) total += h;
  const struct {
    la::Uplo uplo;
    la::Trans trans;
    la::Diag diag;
    const char* name;
  } variants[] = {{la::Uplo::Lower, la::Trans::Yes, la::Diag::NonUnit, "LLt L"},
                  {la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit, "LU L"},
                  {la::Uplo::Lower, la::Trans::Yes, la::Diag::Unit, "LU U"}};
  for (const index_t w : {index_t(1), index_t(31), index_t(32), index_t(33), index_t(200)}) {
    // A diagonally dominant triangle (both halves filled; each variant
    // reads its own) with negative off-diagonal entries, exact zeros
    // sprinkled over it and filling the first row and column off the
    // diagonal.
    la::DMatrix a(w + 2, w + 1);
    random_normal(a.view(), rng);
    for (index_t j = 0; j < w; ++j) {
      for (index_t i = 0; i < w; ++i) {
        real_t& v = a(i + 2, j + 1);
        v = (i == j) ? real_t(2) + std::abs(v) : -std::abs(v) / static_cast<real_t>(w);
        if ((i * 7 + j * 3) % 5 == 0 && i != j) v = real_t(0);
        if ((i == 0 || j == 0) && i != j) v = real_t(0);
      }
    }
    // B with zeros of both signs; every fifth row is -0.0 but for a
    // negative first entry, so its solution is zero past the first column,
    // and a skipped zero term (a·0 added to -0.0) would leave a -0.0 where
    // the full sum gives +0.0.
    la::DMatrix b0(total + 4, w + 3);
    random_normal(b0.view(), rng);
    for (index_t j = 0; j < b0.cols(); ++j) {
      for (index_t i = 0; i < b0.rows(); ++i) {
        if (i % 5 == 0)
          b0(i, j) = j == 2 ? -real_t(1) - std::abs(b0(i, j)) : real_t(-0.0);
        else if ((i + j) % 6 == 0) b0(i, j) = real_t(-0.0);
        else if ((i + 2 * j) % 11 == 0) b0(i, j) = real_t(0);
      }
    }
    const la::DConstView av = a.cview().sub(2, 1, w, w);
    for (const auto& v : variants) {
      const auto run = [&](bool stacked) {
        la::DMatrix b = b0;
        std::vector<la::DView> bs;
        index_t r = 0;
        for (const index_t h : heights) {
          bs.push_back(b.view().sub(r + 4, 2, h, w));
          r += h;
        }
        if (stacked) {
          la::trsm_stacked(v.uplo, v.trans, v.diag, av, bs);
        } else {
          for (const la::DView& bp : bs)
            la::trsm(la::Side::Right, v.uplo, v.trans, v.diag, real_t(1), av, bp);
        }
        return b;
      };
      TierSweep::select(la::NativeIsa::Portable);
      const la::DMatrix ref = run(false);
      for (const la::NativeIsa isa : sweep.tiers()) {
        TierSweep::select(isa);
        const std::string what = std::string(la::native_isa_name(isa)) +
                                 " trsm_stacked " + v.name + " w=" + std::to_string(w);
        expect_same_bits(ref, run(false), what + " per block");
        expect_same_bits(ref, run(true), what + " stacked");
      }
    }
  }
}

TEST(BackendBitwiseKernels, StackedTrsmDouble) { stacked_trsm_bit_identity(); }

// ---- whole-factor bits pinned across kernel changes ----------------------

std::uint64_t fnv(const void* p, std::size_t n, std::uint64_t h) {
  const auto* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= c[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename M>
std::uint64_t fnv_matrix(const M& m, std::uint64_t h) {
  return fnv(m.data(), static_cast<std::size_t>(m.size()) * sizeof(*m.data()), h);
}

/// FNV-1a over every factor tile as stored: the diagonal, then the L and U
/// panel tiles (dense entries, or the U and V factors) of each supernode.
std::uint64_t factor_fingerprint(const Solver& s) {
  std::uint64_t h = 1469598103934665603ull;
  const auto tile = [&h](const lr::Tile& t) {
    if (!t.is_lowrank()) {
      h = fnv_matrix(t.dense(), h);
    } else if (t.precision() == lr::Precision::Fp32) {
      h = fnv_matrix(t.lr().v32, fnv_matrix(t.lr().u32, h));
    } else {
      h = fnv_matrix(t.lr().v, fnv_matrix(t.lr().u, h));
    }
  };
  for (index_t k = 0; k < s.symbolic().num_cblks(); ++k) {
    const core::CblkData& cd = s.numeric().cblk_data(k);
    tile(cd.diag);
    for (const lr::Tile& t : cd.lpanel) tile(t);
    for (const lr::Tile& t : cd.upanel) tile(t);
  }
  return h;
}

/// The factorization ran products with a low-rank row operand, with a
/// low-rank column operand and with two low-rank operands: the
/// gemm[lr,ge], gemm[ge,lr] and gemm[lr,lr] rows (with `lr` spelled
/// "lr" + suffix) all have calls.
void expect_lowrank_operand_rows(const Solver& s, const std::string& suffix) {
  const std::string lr = "lr" + suffix;
  for (const std::string& name : {"gemm[" + lr + ",ge]", "gemm[ge," + lr + "]",
                                  "gemm[" + lr + "," + lr + "]"}) {
    std::uint64_t calls = 0;
    for (const core::DispatchCount& d : s.stats().dispatch)
      if (d.kernel == name) calls = d.calls;
    EXPECT_GT(calls, 0u) << name;
  }
}

// The dense panel kernels (stacked TRSM, grid GEMM) and the micro-tile
// geometry may change how the work is cut, never the bits: these factor
// fingerprints were computed with the per-blok TRSM and the one-GEMM-per-
// column-blok update they replaced. A change here needs a justification of
// the new bits, not a new constant. The MinMem pin moved once: a
// dense×low-rank product onto a dense target is no longer re-orthogonalized
// (its LR2GE apply takes any basis), so those contributions carry the
// product's own basis and round differently. The conv-diff JIT LU and
// MinMem MixedTiles pins were computed with the per-pair product and LR2GE
// of every update with a low-rank operand, before the low-rank grids
// replaced them on dense targets.
TEST(KernelBits, FactorsMatchParent) {
  for (const int threads : {1, 4}) {
    {
      SolverOptions o;
      o.strategy = Strategy::JustInTime;
      o.factorization = Factorization::Llt;
      o.compress_min_width = 8;
      o.compress_min_height = 4;
      o.threads = threads;
      Solver s(o);
      s.factorize(sparse::laplacian_3d(16, 16, 16));
      ASSERT_GT(s.stats().num_lowrank_blocks, 0);
      EXPECT_EQ(factor_fingerprint(s), 0x28dd11b8c43be132ull)
          << "lap 16^3 JIT LLt, threads " << threads;
    }
    {
      SolverOptions o;
      o.strategy = Strategy::MinimalMemory;
      o.factorization = Factorization::Lu;
      o.tolerance = 1e-4;
      o.compress_min_width = 16;
      o.compress_min_height = 8;
      o.threads = threads;
      Solver s(o);
      s.factorize(sparse::convection_diffusion_3d(16, 16, 16, 0.5));
      ASSERT_GT(s.stats().num_lowrank_blocks, 0);
      EXPECT_EQ(factor_fingerprint(s), 0xc895ab8eed4f4c2dull)
          << "conv-diff 16^3 MinMem LU, threads " << threads;
    }
    {
      // LU under JIT: low-rank operands against diagonal and transposed
      // U-panel targets, and low-rank x low-rank pairs with r_a <= r_b as
      // well as r_a > r_b.
      SolverOptions o;
      o.strategy = Strategy::JustInTime;
      o.factorization = Factorization::Lu;
      o.compress_min_width = 8;
      o.compress_min_height = 4;
      o.threads = threads;
      Solver s(o);
      s.factorize(sparse::convection_diffusion_3d(16, 16, 16, 0.5));
      expect_lowrank_operand_rows(s, "");
      EXPECT_EQ(factor_fingerprint(s), 0x8bfccba60bc1e9d4ull)
          << "conv-diff 16^3 JIT LU, threads " << threads;
    }
    {
      // fp32 low-rank operands.
      SolverOptions o;
      o.strategy = Strategy::MinimalMemory;
      o.factorization = Factorization::Lu;
      o.precision = TilePrecision::MixedTiles;
      o.tolerance = 1e-4;
      o.compress_min_width = 16;
      o.compress_min_height = 8;
      o.threads = threads;
      Solver s(o);
      s.factorize(sparse::convection_diffusion_3d(16, 16, 16, 0.5));
      expect_lowrank_operand_rows(s, "32");
      EXPECT_EQ(factor_fingerprint(s), 0x5e72c9d21da017f6ull)
          << "conv-diff 16^3 MinMem LU MixedTiles, threads " << threads;
    }
  }
}

// trsm and syrk on every ISA tier must agree bit-for-bit with the portable
// tier's substitution and update loops, for every side, triangle,
// transpose and diagonal.
void trsm_syrk_bit_identity() {
  TierSweep sweep;
  Prng rng(131);
  const index_t n = 96, m = 80;

  // Well-conditioned triangular factor: dominant diagonal.
  la::DMatrix tri(n, n);
  random_normal(tri.view(), rng);
  for (index_t i = 0; i < n; ++i) tri(i, i) += real_t(2 * n);

  for (const la::Side side : {la::Side::Left, la::Side::Right}) {
    for (const la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper}) {
      for (const la::Trans trans : {la::Trans::No, la::Trans::Yes}) {
        for (const la::Diag diag : {la::Diag::NonUnit, la::Diag::Unit}) {
          la::DMatrix rhs(side == la::Side::Left ? n : m,
                            side == la::Side::Left ? m : n);
          random_normal(rhs.view(), rng);

          la::DMatrix br = rhs;
          TierSweep::select(la::NativeIsa::Portable);
          la::trsm(side, uplo, trans, diag, real_t(1), tri.cview(), br.view());

          for (const la::NativeIsa isa : sweep.tiers()) {
            TierSweep::select(isa);
            la::DMatrix bn = rhs;
            la::trsm(side, uplo, trans, diag, real_t(1), tri.cview(), bn.view());
            expect_same_bits(br, bn, std::string(la::native_isa_name(isa)) + " trsm");
          }
        }
      }
    }
  }

  la::DMatrix a(n, m);
  random_normal(a.view(), rng);
  for (const la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper}) {
    for (const la::Trans trans : {la::Trans::No, la::Trans::Yes}) {
      const index_t cn = trans == la::Trans::No ? n : m;
      la::DMatrix c0(cn, cn);
      random_normal(c0.view(), rng);

      la::DMatrix cr = c0;
      TierSweep::select(la::NativeIsa::Portable);
      la::syrk(uplo, trans, real_t(-1), a.cview(), real_t(1), cr.view());

      for (const la::NativeIsa isa : sweep.tiers()) {
        TierSweep::select(isa);
        la::DMatrix cs = c0;
        la::syrk(uplo, trans, real_t(-1), a.cview(), real_t(1), cs.view());
        expect_same_bits(cr, cs, std::string(la::native_isa_name(isa)) + " syrk");
      }
    }
  }
}

TEST(BackendBitwiseKernels, TrsmSyrkDouble) {
  trsm_syrk_bit_identity();
}

// ---- factor bit-comparison helpers -----------------------------------

template <typename T>
void expect_matrix_bits(const la::Matrix<T>& x, const la::Matrix<T>& y,
                        const char* what, index_t k) {
  ASSERT_EQ(x.rows(), y.rows()) << what << " rows, cblk " << k;
  ASSERT_EQ(x.cols(), y.cols()) << what << " cols, cblk " << k;
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        sizeof(T) * static_cast<std::size_t>(x.size())),
            0)
      << what << " bits differ in cblk " << k;
}

void expect_tile_bits(const lr::Tile& x, const lr::Tile& y, const char* what,
                      index_t k) {
  ASSERT_EQ(x.is_lowrank(), y.is_lowrank()) << what << " repr, cblk " << k;
  ASSERT_EQ(x.rank(), y.rank()) << what << " rank, cblk " << k;
  if (!x.is_lowrank()) {
    expect_matrix_bits(x.dense(), y.dense(), what, k);
    return;
  }
  ASSERT_EQ(x.precision(), y.precision()) << what << " precision, cblk " << k;
  if (x.rank() == 0) return;
  if (x.precision() == lr::Precision::Fp32) {
    expect_matrix_bits(x.lr().u32, y.lr().u32, what, k);
    expect_matrix_bits(x.lr().v32, y.lr().v32, what, k);
  } else {
    expect_matrix_bits(x.lr().u, y.lr().u, what, k);
    expect_matrix_bits(x.lr().v, y.lr().v, what, k);
  }
}

void expect_factors_bit_identical(const core::NumericFactor& x,
                                  const core::NumericFactor& y) {
  const index_t ncblk = x.symbolic().num_cblks();
  ASSERT_EQ(ncblk, y.symbolic().num_cblks());
  for (index_t k = 0; k < ncblk; ++k) {
    const core::CblkData& cx = x.cblk_data(k);
    const core::CblkData& cy = y.cblk_data(k);
    expect_tile_bits(cx.diag, cy.diag, "diag", k);
    ASSERT_EQ(cx.lpanel.size(), cy.lpanel.size());
    ASSERT_EQ(cx.upanel.size(), cy.upanel.size());
    ASSERT_EQ(cx.ipiv, cy.ipiv) << "pivots, cblk " << k;
    for (std::size_t i = 0; i < cx.lpanel.size(); ++i)
      expect_tile_bits(cx.lpanel[i], cy.lpanel[i], "lpanel", k);
    for (std::size_t i = 0; i < cx.upanel.size(); ++i)
      expect_tile_bits(cx.upanel[i], cy.upanel[i], "upanel", k);
  }
}

// ---- whole-factorization bit-identity across ISA tiers -----------------

struct BackendCase {
  Strategy strategy;
  lr::CompressionKind kind;
  TilePrecision precision;
  // threads and facto share one int, so the struct keeps the width and
  // bytes that are part of its test IDs. Llt runs factor an SPD Laplacian,
  // the others a convection-diffusion matrix (LU).
  int threads : 16;
  Factorization facto : 16 = Factorization::Auto;
};

SolverOptions case_opts(const BackendCase& c) {
  SolverOptions o;
  o.strategy = c.strategy;
  o.kind = c.kind;
  o.precision = c.precision;
  o.threads = c.threads;
  o.factorization = c.facto;
  // Small thresholds so the tiny test grids still produce low-rank blocks.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

/// What two factorizations of one matrix must share bit for bit besides
/// their factors: the factorization's kernel counter rows (name, order,
/// calls, bytes), taken before any solve adds its rows, and the solution of
/// one solve with b = 1.
struct RunRecord {
  std::vector<core::DispatchCount> rows;
  std::vector<real_t> x;
};

RunRecord record_run(const Solver& s, const CscMatrix& a) {
  RunRecord r;
  r.rows = s.stats().dispatch;
  r.x = s.solve(std::vector<real_t>(static_cast<std::size_t>(a.rows()), 1.0));
  return r;
}

void expect_runs_bit_identical(const Solver& ref, const RunRecord& rr,
                               const Solver& run, const RunRecord& rn,
                               const std::string& what) {
  expect_factors_bit_identical(ref.numeric(), run.numeric());

  ASSERT_FALSE(rr.rows.empty()) << what;
  ASSERT_EQ(rr.rows.size(), rn.rows.size()) << what;
  for (std::size_t i = 0; i < rr.rows.size(); ++i) {
    EXPECT_EQ(rr.rows[i].kernel, rn.rows[i].kernel) << what;
    EXPECT_EQ(rr.rows[i].calls, rn.rows[i].calls) << what << ", " << rr.rows[i].kernel;
    EXPECT_EQ(rr.rows[i].bytes, rn.rows[i].bytes) << what << ", " << rr.rows[i].kernel;
  }

  // Solves on bit-identical factors are bit-identical too.
  ASSERT_EQ(rr.x.size(), rn.x.size()) << what;
  EXPECT_EQ(std::memcmp(rr.x.data(), rn.x.data(), sizeof(real_t) * rr.x.size()), 0)
      << what;
}

class BackendBitIdentity : public ::testing::TestWithParam<BackendCase> {};

// The portable tier's arithmetic is the reference: every other runnable
// tier must factorize to the same bits at any thread count, not just to
// rounding.
TEST_P(BackendBitIdentity, ReferenceVsNative) {
  TierSweep sweep;
  const BackendCase c = GetParam();
  const CscMatrix a = c.facto == Factorization::Llt
                           ? sparse::laplacian_3d(7, 7, 7)
                           : sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  TierSweep::select(la::NativeIsa::Portable);
  Solver ref(case_opts(c));
  ref.factorize(a);
  EXPECT_EQ(ref.stats().backend, "native");
  EXPECT_EQ(ref.stats().backend_isa, "portable");
  const RunRecord rr = record_run(ref, a);

  for (const la::NativeIsa isa : sweep.tiers()) {
    if (isa == la::NativeIsa::Portable) continue;
    TierSweep::select(isa);
    Solver run(case_opts(c));
    run.factorize(a);
    EXPECT_EQ(run.stats().backend_isa, la::native_isa_name(isa));
    expect_runs_bit_identical(ref, rr, run, record_run(run, a), la::native_isa_name(isa));
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategyKindPrecisionDataflowGrid, BackendBitIdentity,
    ::testing::Values(
        BackendCase{Strategy::Dense, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, 1},
        BackendCase{Strategy::Dense, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, 4},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, 1},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, 4},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Svd,
                    TilePrecision::Fp64, 1},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                    TilePrecision::MixedTiles, 1},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Svd,
                    TilePrecision::MixedTiles, 4},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, 1},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Svd,
                    TilePrecision::Fp64, 4},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Rrqr,
                    TilePrecision::MixedTiles, 4},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, 1, Factorization::Llt},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Svd,
                    TilePrecision::Fp64, 4, Factorization::Llt},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Rrqr,
                    TilePrecision::MixedTiles, 4, Factorization::Llt},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Svd,
                    TilePrecision::MixedTiles, 1, Factorization::Llt}),
    [](const auto& info) {
      // "Adaptive" keeps the test IDs of a deleted strategy; it marks the
      // Minimal-Memory LLᵗ runs.
      std::string s = info.param.facto == Factorization::Llt ? "Adaptive"
                      : info.param.strategy == Strategy::Dense ? "Dense"
                      : info.param.strategy == Strategy::JustInTime ? "JIT"
                                                                   : "MinMem";
      s += info.param.kind == lr::CompressionKind::Svd ? "Svd" : "Rrqr";
      s += info.param.precision == TilePrecision::MixedTiles ? "Mixed" : "Fp64";
      // "Dag"/"Barrier" keep the test IDs of the former engine axis; they
      // mark the 4-thread and the 1-thread runs.
      s += info.param.threads > 1 ? "Dag" : "Barrier";
      return s;
    });

// The deployment fallback: clamped to the portable tier by BLR_NATIVE_ISA,
// a factorization reports that tier and matches the bits of the tier CPUID
// picks when nothing clamps it.
TEST(BackendBitIdentity, PortableTierMatchesReference) {
  EnvVarGuard guard("BLR_NATIVE_ISA");
  const BackendCase c{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                      TilePrecision::Fp64, 1};
  const CscMatrix a = sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  ::unsetenv("BLR_NATIVE_ISA");
  la::redetect_native_isa();
  Solver best(case_opts(c));
  best.factorize(a);
  EXPECT_EQ(best.stats().backend_isa, la::native_isa_name(la::native_isa()));
  const RunRecord rb = record_run(best, a);

  ::setenv("BLR_NATIVE_ISA", "portable", 1);
  la::redetect_native_isa();
  ASSERT_EQ(la::native_isa(), la::NativeIsa::Portable);
  Solver portable(case_opts(c));
  portable.factorize(a);
  EXPECT_EQ(portable.stats().backend_isa, "portable");

  expect_runs_bit_identical(best, rb, portable, record_run(portable, a),
                            "portable vs CPUID tier");
}

// ---- the kernel counter table pinned across kernel changes -------------

struct KernelRowCount {
  const char* kernel;
  std::uint64_t calls;
  std::uint64_t bytes;
};

void expect_kernel_rows(const BackendCase& c, const CscMatrix& a,
                        const std::vector<KernelRowCount>& want,
                        const char* what) {
  Solver s(case_opts(c));
  s.factorize(a);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  (void)s.solve(b);
  const std::vector<core::DispatchCount>& got = s.stats().dispatch;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kernel, want[i].kernel) << what << ", row " << i;
    EXPECT_EQ(got[i].calls, want[i].calls) << what << ", " << got[i].kernel;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << what << ", " << got[i].kernel;
  }
}

// One factorize plus one solve on 1 thread yields exactly these counter
// rows: name, order, calls and bytes, the table print_summary,
// bench_table2_costs and bench/e2e read. The constants were printed by the
// registry-keyed dispatch layer the direct kernel calls replaced; a change
// here needs a justification of the new rows, not a new constant. The
// MinMem lr2ge[lr] bytes moved once: a dense×low-rank product onto a dense
// target keeps its full rank instead of being re-orthogonalized down to
// the target's row count when that is smaller. The products with a
// low-rank operand onto dense targets then moved into the low-rank grids
// (DESIGN.md §12): gemm[lr,ge] and gemm[ge,lr] count one call per low-rank
// blok, side and chunk, whose bytes are the blok once plus its dense
// partners, gemm[lr,lr] still one call per pair, and lr2ge[lr] one call per
// grid, whose bytes are U, the stacked W (Z) factors and the targets, where
// each pair's LR2GE counted a copy of U, its own factor and its target.
TEST(KernelTable, RowsMatchParent) {
  expect_kernel_rows(BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                                 TilePrecision::Fp64, 1, Factorization::Llt},
                     sparse::laplacian_3d(8, 8, 8),
                     {{"potrf[ge]", 26, 108240},
                      {"trsm[ge]", 25, 114560},
                      {"trsm[lr]", 2, 11872},
                      {"gemm[ge,ge]", 76, 510376},
                      {"gemm[lr,ge]", 2, 17472},
                      {"gemm[ge,lr]", 1, 8688},
                      {"gemm[lr,lr]", 2, 23744},
                      {"lr2ge[lr]", 5, 33192},
                      {"compress[ge]", 13, 46016},
                      {"solve_trsm[ge]", 52, 8192},
                      {"solve_gemm[ge]", 41, 300208},
                      {"solve_gemm[lr]", 4, 25536}},
                     "lap 8^3 JIT LLt Fp64");

  // MixedTiles stores low-rank factors in fp32: the *32 rows must show.
  expect_kernel_rows(BackendCase{Strategy::MinimalMemory,
                                 lr::CompressionKind::Rrqr,
                                 TilePrecision::MixedTiles, 1, Factorization::Lu},
                     sparse::convection_diffusion_3d(8, 8, 8, 0.5),
                     {{"getrf[ge]", 26, 108240},
                      {"trsm[ge]", 50, 229120},
                      {"gemm[ge,ge]", 102, 750184},
                      {"lr2ge[ge]", 16, 95288},
                      {"lr2ge[lr]", 8, 46752},
                      {"compress[ge]", 52, 184064},
                      {"solve_trsm[ge]", 52, 8192},
                      {"solve_gemm[ge]", 41, 300208},
                      {"solve_gemm[lr32]", 4, 13664},
                      {"trsm[lr32]", 4, 11872},
                      {"gemm[lr32,ge]", 3, 19048},
                      {"gemm[ge,lr32]", 3, 19048},
                      {"gemm[lr32,lr32]", 2, 11872},
                      {"lr2lr[ge,c32]", 12, 13840}},
                     "conv-diff 8^3 MinMem LU MixedTiles");
}

// ---- operand refusals of the dispatch:: kernels -------------------------

lr::Tile lowrank_tile(index_t m, index_t n, index_t r, Prng& rng,
                      lr::Precision prec) {
  la::DMatrix u(m, r), v(n, r);
  la::random_normal(u.view(), rng);
  la::random_normal(v.view(), rng);
  lr::Tile t = lr::Tile::make_lowrank(m, n, lr::LrMatrix(std::move(u), std::move(v)),
                                      MemCategory::Workspace);
  if (prec == lr::Precision::Fp32) t.demote_lowrank();
  return t;
}

lr::Tile dense_tile(index_t m, index_t n, Prng& rng) {
  lr::Tile t = lr::Tile::make_dense(m, n, MemCategory::Workspace);
  la::random_normal(t.dense().view(), rng);
  return t;
}

// ---- the low-rank grids of the update ----------------------------------

// dispatch::lowrank_update (DESIGN.md §12) must leave every target with the
// bits of dispatch::product without re-orthogonalization followed by
// dispatch::apply_contribution, pair by pair, on every ISA tier: for ranks
// 0, 1, below and above the micro-tile width, depths below and above kKC,
// plain and transposed targets, dense and low-rank partners, more partner
// rows than one chunk (la::kStackRows), and fp32 low-rank operands (widened
// once, as the numeric driver does).
TEST(DispatchBits, LowRankGridMatchesPerPair) {
  TierSweep sweep;
  Prng rng(173);
  const index_t nr = la::native_tile().nr;
  for (const index_t k : {24, 300}) {
    for (const index_t r : {index_t(0), index_t(1), nr - 1, nr + 5}) {
      for (const lr::Precision prec : {lr::Precision::Fp64, lr::Precision::Fp32}) {
        for (const bool row_side : {true, false}) {
          const std::string what =
              "k=" + std::to_string(k) + " r=" + std::to_string(r) +
              (prec == lr::Precision::Fp32 ? " fp32" : " fp64") +
              (row_side ? " row side" : " column side");
          // X and its partners: dense ones (one taller than a packed m-block,
          // all together more rows than one chunk of W) and low-rank ones of
          // the ranks the side takes (row side: at least X's, column side:
          // above it).
          const lr::Tile x = lowrank_tile(45, k, r, rng, prec);
          std::vector<lr::Tile> others;
          for (const index_t h : {5, 37, 130, 90}) others.push_back(dense_tile(h, k, rng));
          for (const index_t extra : {0, 3}) {
            const index_t rank = r + extra + (row_side ? 0 : 1);
            others.push_back(lowrank_tile(20 + 11 * extra, k, rank, rng, prec));
          }
          const auto widen = [](const lr::Tile& t) {
            return t.precision() == lr::Precision::Fp32 ? lr::promote_copy(t)
                                                        : lr::Tile();
          };
          const lr::Tile xw = widen(x);
          std::vector<lr::Tile> wide;
          for (const lr::Tile& o : others) wide.push_back(o.is_lowrank() ? widen(o) : lr::Tile());
          const auto operand = [](const lr::Tile& t, const lr::Tile& w) {
            return core::dispatch::UpdateOperand{&t, w.is_lowrank() ? &w : &t};
          };

          // Every other target transposed, each product X·Bᵗ (row side) or
          // A·Xᵗ (column side).
          std::vector<la::DMatrix> c0;
          for (std::size_t p = 0; p < others.size(); ++p) {
            const index_t m = row_side ? x.rows() : others[p].rows();
            const index_t n = row_side ? others[p].rows() : x.rows();
            la::DMatrix c = p % 2 == 1 ? la::DMatrix(n, m) : la::DMatrix(m, n);
            la::random_normal(c.view(), rng);
            c0.push_back(std::move(c));
          }
          TierSweep::select(la::NativeIsa::Portable);
          std::vector<la::DMatrix> ref = c0;
          for (std::size_t p = 0; p < others.size(); ++p) {
            const lr::Tile prod =
                row_side ? core::dispatch::product(x, others[p], lr::CompressionKind::Rrqr,
                                                   1e-8, false)
                         : core::dispatch::product(others[p], x, lr::CompressionKind::Rrqr,
                                                   1e-8, false);
            core::dispatch::apply_contribution(ref[p].view(), prod, p % 2 == 1);
          }
          for (const la::NativeIsa isa : sweep.tiers()) {
            TierSweep::select(isa);
            std::vector<la::DMatrix> got = c0;
            std::vector<core::dispatch::LrGridPair> pairs;
            for (std::size_t p = 0; p < others.size(); ++p)
              pairs.push_back({operand(others[p], wide[p]), got[p].view(), p % 2 == 1});
            core::dispatch::lowrank_update(operand(x, xw), row_side, pairs);
            for (std::size_t p = 0; p < others.size(); ++p) {
              expect_same_bits(ref[p], got[p],
                               std::string(la::native_isa_name(isa)) + " " + what +
                                   ", pair " + std::to_string(p));
            }
          }
        }
      }
    }
  }
}

TEST(DispatchGuards, ExtendAddIntoFactoredTileThrows) {
  Prng rng(7);
  lr::Tile c = dense_tile(12, 10, rng);
  c.advance(lr::TileState::Factored);
  const lr::Tile p = lowrank_tile(12, 10, 2, rng, lr::Precision::Fp64);
  EXPECT_THROW(core::dispatch::extend_add(c, p, 0, 0, lr::CompressionKind::Rrqr,
                                          1e-8, false),
               Error);
}

TEST(DispatchGuards, ExtendAddRefusesFp32Contribution) {
  Prng rng(11);
  const lr::Tile p = lowrank_tile(12, 10, 2, rng, lr::Precision::Fp32);
  ASSERT_EQ(p.precision(), lr::Precision::Fp32);
  lr::Tile dense = dense_tile(12, 10, rng);
  EXPECT_THROW(core::dispatch::extend_add(dense, p, 0, 0,
                                          lr::CompressionKind::Rrqr, 1e-8,
                                          false),
               Error);
  lr::Tile lowrank = lowrank_tile(12, 10, 3, rng, lr::Precision::Fp64);
  EXPECT_THROW(core::dispatch::extend_add(lowrank, p, 0, 0,
                                          lr::CompressionKind::Rrqr, 1e-8,
                                          false),
               Error);
}

TEST(DispatchGuards, ApplyContributionRefusesFp32Contribution) {
  Prng rng(13);
  const lr::Tile p = lowrank_tile(12, 10, 2, rng, lr::Precision::Fp32);
  ASSERT_EQ(p.precision(), lr::Precision::Fp32);
  la::DMatrix target(12, 10);
  EXPECT_THROW(core::dispatch::apply_contribution(target.view(), p, false),
               Error);
}

} // namespace
