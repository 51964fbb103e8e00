// Kernel backend layer (DESIGN.md §14): CPUID detection and env overrides,
// exact bitwise agreement of the la:: entry points under Reference vs
// Native, and memcmp bit-identity of whole factorizations across strategies
// × compression kinds × precisions × thread counts — the contract that lets
// the engine A/B backends without tolerances. Also pins the kernel counter
// table and the operand refusals of the dispatch:: kernels.

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

// Backend selection and ISA detection are process-global; every test that
// touches them restores the prior state so test order never matters.
class BackendStateGuard {
public:
  BackendStateGuard() : saved_(la::current_backend()) {}
  ~BackendStateGuard() { la::set_backend(saved_); }

private:
  la::Backend saved_;
};

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
    la::redetect_backend();
  }

private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

// ---- detection, names, env overrides ---------------------------------

TEST(BackendDetect, NamesAreStable) {
  EXPECT_STREQ(la::backend_name(la::Backend::Reference), "reference");
  EXPECT_STREQ(la::backend_name(la::Backend::Native), "native");
  EXPECT_STREQ(la::backend_choice_name(la::BackendChoice::Auto), "auto");
  EXPECT_STREQ(la::backend_choice_name(la::BackendChoice::Reference),
               "reference");
  EXPECT_STREQ(la::backend_choice_name(la::BackendChoice::Native), "native");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Portable), "portable");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Avx2), "avx2");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Avx512), "avx512");
}

TEST(BackendDetect, AutoSelectsNative) {
  // The portable packed tier is always compiled in, so Native is always
  // runnable and Auto must prefer it.
  EXPECT_EQ(la::detect_best_backend(), la::Backend::Native);
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

TEST(BackendDetect, EnvOverridesChoice) {
  BackendStateGuard state;
  EnvVarGuard guard("BLR_BACKEND");

  ::setenv("BLR_BACKEND", "reference", 1);
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Native),
            la::Backend::Reference);

  ::setenv("BLR_BACKEND", "NATIVE", 1);  // case-insensitive
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Reference),
            la::Backend::Native);

  ::setenv("BLR_BACKEND", "auto", 1);
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Reference),
            la::detect_best_backend());

  ::setenv("BLR_BACKEND", "sse9", 1);
  EXPECT_THROW(la::resolve_backend(la::BackendChoice::Auto), Error);

  ::unsetenv("BLR_BACKEND");
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Reference),
            la::Backend::Reference);
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Native),
            la::Backend::Native);
}

TEST(BackendDetect, IsaClampForcesPortableFallback) {
  BackendStateGuard state;
  EnvVarGuard guard("BLR_NATIVE_ISA");

  // Force-disable the SIMD tiers: detection must land on the portable
  // packed tier, and the clamped tiers must report unsupported.
  ::setenv("BLR_NATIVE_ISA", "portable", 1);
  la::redetect_backend();
  EXPECT_EQ(la::native_isa(), la::NativeIsa::Portable);
  EXPECT_FALSE(la::native_isa_supported(la::NativeIsa::Avx2));
  EXPECT_FALSE(la::native_isa_supported(la::NativeIsa::Avx512));
  EXPECT_EQ(la::detect_best_backend(), la::Backend::Native);

  ::setenv("BLR_NATIVE_ISA", "neon", 1);
  la::redetect_backend();
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

// gemm must agree bit-for-bit between the Reference nests and the Native
// packed engine for every transpose combination, including sizes that
// cross the packing block boundaries (kMC = 128 rows, kKC = 256 depth) and
// ragged edge tiles — the canonical-accumulation-order contract.
template <typename T>
void gemm_bit_identity_for_type() {
  BackendStateGuard state;
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
        la::Matrix<T> a(ta == la::Trans::No ? sz.m : sz.k,
                        ta == la::Trans::No ? sz.k : sz.m);
        la::Matrix<T> b(tb == la::Trans::No ? sz.k : sz.n,
                        tb == la::Trans::No ? sz.n : sz.k);
        la::Matrix<T> c0(sz.m, sz.n);
        random_normal(a.view(), rng);
        random_normal(b.view(), rng);
        random_normal(c0.view(), rng);

        la::Matrix<T> cr = c0;
        la::set_backend(la::Backend::Reference);
        la::gemm(ta, tb, T(-1), a.cview(), b.cview(), T(1), cr.view());

        la::Matrix<T> cn = c0;
        la::set_backend(la::Backend::Native);
        la::gemm(ta, tb, T(-1), a.cview(), b.cview(), T(1), cn.view());

        expect_same_bits(cr, cn,
                         "gemm m=" + std::to_string(sz.m) +
                             " n=" + std::to_string(sz.n) +
                             " k=" + std::to_string(sz.k) + " ta=" +
                             (ta == la::Trans::Yes ? "T" : "N") + " tb=" +
                             (tb == la::Trans::Yes ? "T" : "N"));
      }
    }
  }
}

TEST(BackendBitwiseKernels, GemmDouble) { gemm_bit_identity_for_type<double>(); }
TEST(BackendBitwiseKernels, GemmFloat) { gemm_bit_identity_for_type<float>(); }

// Products narrower than a micro-tile (n < NR, e.g. a single-RHS solve)
// skip the packed engine for direct kernels in the same canonical order:
// still bit-identical to the Reference nests, on either side of the packing
// threshold (m·k·n ≥ 16,384) and with row counts off the 8-chain stride.
template <typename T>
void thin_gemm_bit_identity_for_type() {
  BackendStateGuard state;
  Prng rng(131);
  const struct {
    index_t m, k;
  } sizes[] = {{40, 24}, {517, 64}, {2048, 128}};
  for (const auto& sz : sizes) {
    for (const index_t n : {1, 2, 3}) {
      for (const la::Trans ta : {la::Trans::No, la::Trans::Yes}) {
        for (const la::Trans tb : {la::Trans::No, la::Trans::Yes}) {
          la::Matrix<T> a(ta == la::Trans::No ? sz.m : sz.k,
                          ta == la::Trans::No ? sz.k : sz.m);
          la::Matrix<T> b(tb == la::Trans::No ? sz.k : n,
                          tb == la::Trans::No ? n : sz.k);
          la::Matrix<T> c0(sz.m, n);
          random_normal(a.view(), rng);
          random_normal(b.view(), rng);
          random_normal(c0.view(), rng);

          la::Matrix<T> cr = c0;
          la::set_backend(la::Backend::Reference);
          la::gemm(ta, tb, T(-0.75), a.cview(), b.cview(), T(1), cr.view());

          la::Matrix<T> cn = c0;
          la::set_backend(la::Backend::Native);
          la::gemm(ta, tb, T(-0.75), a.cview(), b.cview(), T(1), cn.view());

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

TEST(BackendBitwiseKernels, ThinGemmDouble) { thin_gemm_bit_identity_for_type<double>(); }
TEST(BackendBitwiseKernels, ThinGemmFloat) { thin_gemm_bit_identity_for_type<float>(); }

// gemm_batch must leave every target bit-identical to the single gemm call
// on it, under both backends: row blocks of ragged heights that group past
// the packed threshold, a block too tall for one group, a row block without
// targets, several column blocks with targets missing (groups reaching
// fewer columns than the one before), both target orientations, a depth
// past kKC, strided operands, and alpha = ±1.
template <typename T>
void gemm_batch_bit_identity_for_type() {
  BackendStateGuard state;
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
    for (const T alpha : {T(-1), T(1)}) {
      la::Matrix<T> a(total + 7, kk);  // blocks are strided row ranges
      la::Matrix<T> b(total_b + 2, kk);
      random_normal(a.view(), rng);
      random_normal(b.view(), rng);
      std::vector<la::Matrix<T>> c0;
      for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t q = 0; q < nq; ++q) {
          if (!has(p, q)) continue;
          const bool f = flipped(p, q);
          c0.emplace_back((f ? widths[q] : heights[p]) + 3,
                          (f ? heights[p] : widths[q]) + 2);
          random_normal(c0.back().view(), rng);
        }
      }
      const auto run = [&](la::Backend be, bool batched) {
        la::set_backend(be);
        std::vector<la::Matrix<T>> c = c0;
        std::vector<la::ConstView<T>> as, bs;
        std::vector<la::GemmTarget<T>> ts;
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
        if (batched) {
          la::gemm_batch<T>(alpha, as, bs, ts);
        } else {
          for (const la::GemmTarget<T>& t : ts) {
            const auto& ap = as[static_cast<std::size_t>(t.p)];
            const auto& bq = bs[static_cast<std::size_t>(t.q)];
            if (t.transposed)
              la::gemm(la::Trans::No, la::Trans::Yes, alpha, bq, ap, T(1), t.c);
            else
              la::gemm(la::Trans::No, la::Trans::Yes, alpha, ap, bq, T(1), t.c);
          }
        }
        return c;
      };
      const std::vector<la::Matrix<T>> ref = run(la::Backend::Reference, false);
      const std::vector<la::Matrix<T>> refb = run(la::Backend::Reference, true);
      const std::vector<la::Matrix<T>> nat = run(la::Backend::Native, true);
      const std::string what = "gemm_batch kk=" + std::to_string(kk) +
                               " alpha=" + std::to_string(static_cast<int>(alpha));
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_same_bits(ref[i], refb[i], what + " reference, target " + std::to_string(i));
        expect_same_bits(ref[i], nat[i], what + " native, target " + std::to_string(i));
      }
    }
  }
}

/// Every ISA tier of the Native backend this binary and CPU can run.
std::vector<la::NativeIsa> runnable_tiers() {
  std::vector<la::NativeIsa> tiers;
  for (const la::NativeIsa isa :
       {la::NativeIsa::Portable, la::NativeIsa::Avx2, la::NativeIsa::Avx512}) {
    if (la::native_isa_supported(isa)) tiers.push_back(isa);
  }
  return tiers;
}

/// One grid of gemm_batch, run as the single gemm calls under Reference and
/// as one grid under Native: every target (and the matrices holding them,
/// cells without a target included) must come out with the same bits.
template <typename T>
struct GridCase {
  std::vector<index_t> heights;  ///< row blocks
  std::vector<index_t> widths;   ///< column blocks
  index_t kk = 0;
  T alpha = T(-1);
  /// For row block p, column block q: no target (0), a plain target (1) or
  /// a transposed one (2).
  std::function<int(std::size_t, std::size_t)> kind;
  /// Whether all plain targets share one matrix (block (p, q) at the row
  /// offset of p and the column offset of q, the LLᵗ update's layout);
  /// otherwise each target has a matrix of its own, of its own ld.
  bool shared = false;
};

template <typename T>
void check_grid_case(const GridCase<T>& gc, Prng& rng, const std::string& what) {
  const std::size_t np = gc.heights.size();
  const std::size_t nq = gc.widths.size();
  std::vector<index_t> r0(np + 1, 0), c0(nq + 1, 0);
  for (std::size_t p = 0; p < np; ++p) r0[p + 1] = r0[p] + gc.heights[p];
  for (std::size_t q = 0; q < nq; ++q) c0[q + 1] = c0[q] + gc.widths[q];
  la::Matrix<T> a(r0[np] + 3, gc.kk);
  la::Matrix<T> b(c0[nq] + 1, gc.kk);
  random_normal(a.view(), rng);
  random_normal(b.view(), rng);
  // The matrices holding the targets: one shared matrix for the plain
  // targets plus one for the transposed ones, or one per target.
  std::vector<la::Matrix<T>> mats;
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
  for (la::Matrix<T>& m : mats) random_normal(m.view(), rng);
  const std::vector<la::Matrix<T>> initial = mats;

  const auto run = [&](la::Backend be, bool batched) {
    la::set_backend(be);
    std::vector<la::Matrix<T>> c = initial;
    std::vector<la::ConstView<T>> as, bs;
    for (std::size_t p = 0; p < np; ++p)
      as.push_back(a.cview().sub(r0[p] + 3, 0, gc.heights[p], gc.kk));
    for (std::size_t q = 0; q < nq; ++q)
      bs.push_back(b.cview().sub(c0[q] + 1, 0, gc.widths[q], gc.kk));
    std::vector<la::GemmTarget<T>> ts;
    std::size_t x = 0;
    for (std::size_t p = 0; p < np; ++p) {
      for (std::size_t q = 0; q < nq; ++q) {
        const int k = gc.kind(p, q);
        if (k == 0) continue;
        const bool tr = k == 2;
        const index_t h = tr ? gc.widths[q] : gc.heights[p];
        const index_t w = tr ? gc.heights[p] : gc.widths[q];
        la::MatView<T> v =
            gc.shared ? (tr ? c[1].view().sub(c0[q] + 2, r0[p], h, w)
                            : c[0].view().sub(r0[p] + 1, c0[q], h, w))
                      : c[x++].view().sub(0, 1, h, w);
        ts.push_back({static_cast<index_t>(p), static_cast<index_t>(q), v, tr});
      }
    }
    if (batched) {
      // Every target entry is loaded and stored at its own address, once
      // per k-slab: none passes through a gathered copy.
      const la::GridGemmCounts before = la::grid_gemm_counts();
      la::gemm_batch<T>(gc.alpha, as, bs, ts);
      const la::GridGemmCounts after = la::grid_gemm_counts();
      std::uint64_t entries = 0;
      for (const la::GemmTarget<T>& t : ts)
        entries += static_cast<std::uint64_t>(t.c.rows * t.c.cols);
      if (gc.kk >= 4) entries *= static_cast<std::uint64_t>((gc.kk + 255) / 256);
      EXPECT_EQ(after.entries - before.entries, entries) << what;
      EXPECT_EQ((after.in_place - before.in_place) + (after.per_row - before.per_row),
                entries)
          << what;
    } else {
      for (const la::GemmTarget<T>& t : ts) {
        const auto& ap = as[static_cast<std::size_t>(t.p)];
        const auto& bq = bs[static_cast<std::size_t>(t.q)];
        if (t.transposed)
          la::gemm(la::Trans::No, la::Trans::Yes, gc.alpha, bq, ap, T(1), t.c);
        else
          la::gemm(la::Trans::No, la::Trans::Yes, gc.alpha, ap, bq, T(1), t.c);
      }
    }
    return c;
  };
  const std::vector<la::Matrix<T>> ref = run(la::Backend::Reference, false);
  const std::vector<la::Matrix<T>> nat = run(la::Backend::Native, true);
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_same_bits(ref[i], nat[i], what + ", matrix " + std::to_string(i));
  if (gc.shared) {
    // The cells of the shared matrix without a target are never written.
    for (std::size_t p = 0; p < np; ++p) {
      for (std::size_t q = 0; q < nq; ++q) {
        if (gc.kind(p, q) != 0) continue;
        for (index_t j = c0[q]; j < c0[q + 1]; ++j)
          for (index_t i = r0[p] + 1; i < r0[p + 1] + 1; ++i)
            EXPECT_EQ(std::memcmp(&nat[0](i, j), &initial[0](i, j), sizeof(T)), 0)
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
template <typename T>
void gemm_batch_grid_cases_for_type() {
  BackendStateGuard state;
  EnvVarGuard guard("BLR_NATIVE_ISA");
  Prng rng(307);
  for (const la::NativeIsa isa : runnable_tiers()) {
    ::setenv("BLR_NATIVE_ISA", la::native_isa_name(isa), 1);
    la::redetect_backend();
    ASSERT_EQ(la::native_isa(), isa);
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
          GridCase<T> gc;
          gc.heights = split ? cut : std::vector<index_t>{m};
          gc.widths = {3, 6, 2};
          gc.kk = kk;
          gc.alpha = m % 2 == 0 ? T(1) : m == 33 ? T(0.75) : T(-1);
          gc.kind = [](std::size_t p, std::size_t q) {
            return (p + q) % 4 == 3 ? 0 : (p + 2 * q) % 3 == 2 ? 2 : 1;
          };
          check_grid_case(gc, rng,
                          tier + " m=" + std::to_string(m) + " kk=" + std::to_string(kk) +
                              (split ? " split" : " one block"));
        }
      }
      // LLᵗ: targets only on and below the block diagonal, in one matrix.
      GridCase<T> llt;
      llt.heights = {4, 9, 1, 12, 6, 30, 40};
      llt.widths = {4, 9, 1, 12};
      llt.kk = kk;
      llt.kind = [](std::size_t p, std::size_t q) { return p >= q ? 1 : 0; };
      llt.shared = true;
      check_grid_case(llt, rng, tier + " llt kk=" + std::to_string(kk));
      // The LU update's transposed (U) targets beside plain ones, shared.
      GridCase<T> lu = llt;
      lu.kind = [](std::size_t p, std::size_t q) { return p >= q ? 1 : 2; };
      check_grid_case(lu, rng, tier + " lu kk=" + std::to_string(kk));
    }
  }
}

TEST(BackendBitwiseKernels, GemmBatchDouble) {
  gemm_batch_bit_identity_for_type<double>();
  gemm_batch_grid_cases_for_type<double>();
}
TEST(BackendBitwiseKernels, GemmBatchFloat) {
  gemm_batch_bit_identity_for_type<float>();
  gemm_batch_grid_cases_for_type<float>();
}

// trsm_stacked must leave every block bit-identical to the per-block
// la::trsm, under both backends, for the three dense panel variants (LLᵗ L,
// LU L, LU U): block heights that stack into shared groups and one that
// splits across groups, widths around the substitution strip, exact zeros
// in the triangle and -0.0 in the right-hand side.
template <typename T>
void stacked_trsm_bit_identity_for_type() {
  BackendStateGuard state;
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
    la::Matrix<T> a(w + 2, w + 1);
    random_normal(a.view(), rng);
    for (index_t j = 0; j < w; ++j) {
      for (index_t i = 0; i < w; ++i) {
        T& v = a(i + 2, j + 1);
        v = (i == j) ? T(2) + std::abs(v) : -std::abs(v) / static_cast<T>(w);
        if ((i * 7 + j * 3) % 5 == 0 && i != j) v = T(0);
        if ((i == 0 || j == 0) && i != j) v = T(0);
      }
    }
    // B with zeros of both signs; every fifth row is -0.0 but for a
    // negative first entry, so its solution is zero past the first column,
    // and a skipped zero term (a·0 added to -0.0) would leave a -0.0 where
    // the full sum gives +0.0.
    la::Matrix<T> b0(total + 4, w + 3);
    random_normal(b0.view(), rng);
    for (index_t j = 0; j < b0.cols(); ++j) {
      for (index_t i = 0; i < b0.rows(); ++i) {
        if (i % 5 == 0) b0(i, j) = j == 2 ? -T(1) - std::abs(b0(i, j)) : T(-0.0);
        else if ((i + j) % 6 == 0) b0(i, j) = T(-0.0);
        else if ((i + 2 * j) % 11 == 0) b0(i, j) = T(0);
      }
    }
    const la::ConstView<T> av = a.cview().sub(2, 1, w, w);
    for (const auto& v : variants) {
      const auto run = [&](la::Backend be, bool stacked) {
        la::set_backend(be);
        la::Matrix<T> b = b0;
        std::vector<la::MatView<T>> bs;
        index_t r = 0;
        for (const index_t h : heights) {
          bs.push_back(b.view().sub(r + 4, 2, h, w));
          r += h;
        }
        if (stacked) {
          la::trsm_stacked<T>(v.uplo, v.trans, v.diag, av, bs);
        } else {
          for (const la::MatView<T>& bp : bs)
            la::trsm(la::Side::Right, v.uplo, v.trans, v.diag, T(1), av, bp);
        }
        return b;
      };
      const la::Matrix<T> ref = run(la::Backend::Reference, false);
      const std::string what =
          std::string("trsm_stacked ") + v.name + " w=" + std::to_string(w);
      expect_same_bits(ref, run(la::Backend::Native, false), what + " native per block");
      expect_same_bits(ref, run(la::Backend::Reference, true), what + " reference");
      expect_same_bits(ref, run(la::Backend::Native, true), what + " native");
    }
  }
}

TEST(BackendBitwiseKernels, StackedTrsmDouble) { stacked_trsm_bit_identity_for_type<double>(); }
TEST(BackendBitwiseKernels, StackedTrsmFloat) { stacked_trsm_bit_identity_for_type<float>(); }

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

// The dense panel kernels (stacked TRSM, grid GEMM) and the micro-tile
// geometry may change how the work is cut, never the bits: these factor
// fingerprints were computed with the per-blok TRSM and the one-GEMM-per-
// column-blok update they replaced. A change here needs a justification of
// the new bits, not a new constant.
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
      EXPECT_EQ(factor_fingerprint(s), 0x009d81d7a46686d4ull)
          << "conv-diff 16^3 MinMem LU, threads " << threads;
    }
  }
}

template <typename T>
void trsm_syrk_bit_identity_for_type() {
  BackendStateGuard state;
  Prng rng(131);
  const index_t n = 96, m = 80;

  // Well-conditioned triangular factor: dominant diagonal.
  la::Matrix<T> tri(n, n);
  random_normal(tri.view(), rng);
  for (index_t i = 0; i < n; ++i) tri(i, i) += T(2 * n);

  for (const la::Side side : {la::Side::Left, la::Side::Right}) {
    for (const la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper}) {
      for (const la::Trans trans : {la::Trans::No, la::Trans::Yes}) {
        for (const la::Diag diag : {la::Diag::NonUnit, la::Diag::Unit}) {
          la::Matrix<T> rhs(side == la::Side::Left ? n : m,
                            side == la::Side::Left ? m : n);
          random_normal(rhs.view(), rng);

          la::Matrix<T> br = rhs;
          la::set_backend(la::Backend::Reference);
          la::trsm(side, uplo, trans, diag, T(1), tri.cview(), br.view());

          la::Matrix<T> bn = rhs;
          la::set_backend(la::Backend::Native);
          la::trsm(side, uplo, trans, diag, T(1), tri.cview(), bn.view());

          expect_same_bits(br, bn, "trsm");
        }
      }
    }
  }

  la::Matrix<T> a(n, m);
  random_normal(a.view(), rng);
  for (const la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper}) {
    for (const la::Trans trans : {la::Trans::No, la::Trans::Yes}) {
      const index_t cn = trans == la::Trans::No ? n : m;
      la::Matrix<T> c0(cn, cn);
      random_normal(c0.view(), rng);

      la::Matrix<T> cr = c0;
      la::set_backend(la::Backend::Reference);
      la::syrk(uplo, trans, T(-1), a.cview(), T(1), cr.view());

      la::Matrix<T> cs = c0;
      la::set_backend(la::Backend::Native);
      la::syrk(uplo, trans, T(-1), a.cview(), T(1), cs.view());

      expect_same_bits(cr, cs, "syrk");
    }
  }
}

TEST(BackendBitwiseKernels, TrsmSyrkDouble) {
  trsm_syrk_bit_identity_for_type<double>();
}
TEST(BackendBitwiseKernels, TrsmSyrkFloat) {
  trsm_syrk_bit_identity_for_type<float>();
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

// ---- whole-factorization bit-identity Reference vs Native ------------

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

SolverOptions backend_opts(const BackendCase& c, la::BackendChoice backend) {
  SolverOptions o;
  o.strategy = c.strategy;
  o.kind = c.kind;
  o.precision = c.precision;
  o.backend = backend;
  o.threads = c.threads;
  o.factorization = c.facto;
  // Small thresholds so the tiny test grids still produce low-rank blocks.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

class BackendBitIdentity : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BackendBitIdentity, ReferenceVsNative) {
  // This test pins the backend per solver; a BLR_BACKEND override from the
  // CI A/B stage would defeat that, so drop it for the test's duration.
  BackendStateGuard state;
  EnvVarGuard env("BLR_BACKEND");
  ::unsetenv("BLR_BACKEND");

  const BackendCase c = GetParam();
  const CscMatrix a = c.facto == Factorization::Llt
                           ? sparse::laplacian_3d(7, 7, 7)
                           : sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  Solver ref(backend_opts(c, la::BackendChoice::Reference));
  ref.factorize(a);
  EXPECT_EQ(ref.stats().backend, "reference");
  EXPECT_TRUE(ref.stats().backend_isa.empty());

  Solver nat(backend_opts(c, la::BackendChoice::Native));
  nat.factorize(a);
  EXPECT_EQ(nat.stats().backend, "native");
  EXPECT_EQ(nat.stats().backend_isa, la::native_isa_name(la::native_isa()));

  // Same canonical accumulation order at any thread count: the factors
  // must agree bit for bit across backends, not just to rounding.
  expect_factors_bit_identical(ref.numeric(), nat.numeric());

  // Each run's kernel counters are attributed to the backend it ran under.
  ASSERT_FALSE(ref.stats().dispatch.empty());
  ASSERT_FALSE(nat.stats().dispatch.empty());
  for (const auto& d : ref.stats().dispatch)
    EXPECT_EQ(d.backend, "reference") << d.kernel;
  for (const auto& d : nat.stats().dispatch)
    EXPECT_EQ(d.backend, "native") << d.kernel;

  // And the logical kernel-call table matches row for row.
  ASSERT_EQ(ref.stats().dispatch.size(), nat.stats().dispatch.size());
  for (std::size_t i = 0; i < ref.stats().dispatch.size(); ++i) {
    EXPECT_EQ(ref.stats().dispatch[i].kernel, nat.stats().dispatch[i].kernel);
    EXPECT_EQ(ref.stats().dispatch[i].calls, nat.stats().dispatch[i].calls)
        << ref.stats().dispatch[i].kernel;
  }

  // Solves on bit-identical factors are bit-identical too.
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto xref = ref.solve(b);
  const auto xnat = nat.solve(b);
  EXPECT_EQ(std::memcmp(xref.data(), xnat.data(),
                        sizeof(real_t) * xref.size()),
            0);
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

// The portable Native tier must also match Reference bit for bit — the
// deployment fallback when CPUID rules out every SIMD tier.
TEST(BackendBitIdentity, PortableTierMatchesReference) {
  BackendStateGuard state;
  EnvVarGuard env("BLR_BACKEND");
  ::unsetenv("BLR_BACKEND");
  EnvVarGuard guard("BLR_NATIVE_ISA");
  ::setenv("BLR_NATIVE_ISA", "portable", 1);
  la::redetect_backend();
  ASSERT_EQ(la::native_isa(), la::NativeIsa::Portable);

  const BackendCase c{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                      TilePrecision::Fp64, 1};
  const CscMatrix a = sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  Solver ref(backend_opts(c, la::BackendChoice::Reference));
  ref.factorize(a);

  Solver nat(backend_opts(c, la::BackendChoice::Native));
  nat.factorize(a);
  EXPECT_EQ(nat.stats().backend_isa, "portable");

  expect_factors_bit_identical(ref.numeric(), nat.numeric());
}

// BLR_BACKEND overrides SolverOptions::backend for a whole factorization —
// the same binary A/Bs backends from the environment, no recompilation.
TEST(BackendEnvSolver, EnvOverridesSolverOptions) {
  BackendStateGuard state;
  EnvVarGuard guard("BLR_BACKEND");
  ::setenv("BLR_BACKEND", "reference", 1);

  const BackendCase c{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                      TilePrecision::Fp64, 1};
  const CscMatrix a = sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  Solver s(backend_opts(c, la::BackendChoice::Native));
  s.factorize(a);
  EXPECT_EQ(s.stats().backend, "reference");
  for (const auto& d : s.stats().dispatch)
    EXPECT_EQ(d.backend, "reference") << d.kernel;
}

// ---- the kernel counter table pinned across kernel changes -------------

struct KernelRowCount {
  const char* kernel;
  const char* backend;
  std::uint64_t calls;
  std::uint64_t bytes;
};

void expect_kernel_rows(const BackendCase& c, const CscMatrix& a,
                        const std::vector<KernelRowCount>& want,
                        const char* what) {
  Solver s(backend_opts(c, la::BackendChoice::Native));
  s.factorize(a);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  (void)s.solve(b);
  const std::vector<core::DispatchCount>& got = s.stats().dispatch;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kernel, want[i].kernel) << what << ", row " << i;
    EXPECT_EQ(got[i].backend, want[i].backend) << what << ", " << got[i].kernel;
    EXPECT_EQ(got[i].calls, want[i].calls) << what << ", " << got[i].kernel;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << what << ", " << got[i].kernel;
  }
}

// One factorize plus one solve on 1 thread yields exactly these counter
// rows: name, order, backend, calls and bytes, the table print_summary,
// bench_table2_costs and bench/e2e read. The constants were printed by the
// registry-keyed dispatch layer the direct kernel calls replaced; a change
// here needs a justification of the new rows, not a new constant.
TEST(KernelTable, RowsMatchParent) {
  BackendStateGuard state;
  EnvVarGuard env("BLR_BACKEND");
  ::unsetenv("BLR_BACKEND");

  expect_kernel_rows(BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                                 TilePrecision::Fp64, 1, Factorization::Llt},
                     sparse::laplacian_3d(8, 8, 8),
                     {{"potrf[ge]", "native", 26, 108240},
                      {"trsm[ge]", "native", 25, 114560},
                      {"trsm[lr]", "native", 2, 11872},
                      {"gemm[ge,ge]", "native", 76, 510376},
                      {"gemm[lr,ge]", "native", 2, 17472},
                      {"gemm[ge,lr]", "native", 10, 29856},
                      {"gemm[lr,lr]", "native", 2, 23744},
                      {"lr2ge[lr]", "native", 14, 102312},
                      {"compress[ge]", "native", 13, 46016},
                      {"solve_trsm[ge]", "native", 52, 8192},
                      {"solve_gemm[ge]", "native", 41, 300208},
                      {"solve_gemm[lr]", "native", 4, 25536}},
                     "lap 8^3 JIT LLt Fp64");

  // MixedTiles stores low-rank factors in fp32: the *32 rows must show.
  expect_kernel_rows(BackendCase{Strategy::MinimalMemory,
                                 lr::CompressionKind::Rrqr,
                                 TilePrecision::MixedTiles, 1, Factorization::Lu},
                     sparse::convection_diffusion_3d(8, 8, 8, 0.5),
                     {{"getrf[ge]", "native", 26, 108240},
                      {"trsm[ge]", "native", 50, 229120},
                      {"gemm[ge,ge]", "native", 102, 750184},
                      {"lr2ge[ge]", "native", 16, 95288},
                      {"lr2ge[lr]", "native", 26, 178440},
                      {"compress[ge]", "native", 52, 184064},
                      {"solve_trsm[ge]", "native", 52, 8192},
                      {"solve_gemm[ge]", "native", 41, 300208},
                      {"solve_gemm[lr32]", "native", 4, 13664},
                      {"trsm[lr32]", "native", 4, 11872},
                      {"gemm[lr32,ge]", "native", 12, 29632},
                      {"gemm[ge,lr32]", "native", 12, 29632},
                      {"gemm[lr32,lr32]", "native", 2, 11872},
                      {"lr2lr[ge,c32]", "native", 12, 13840}},
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
