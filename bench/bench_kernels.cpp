// Microbenchmarks of the low-rank kernels (§3 of the paper): SVD vs RRQR
// compression cost, LR product, and the LR2LR extend-add recompression.
// Also serves as the measured counterpart of the complexity Table 1.
//
// On top of the google-benchmark sections, a custom driver measures the
// packed gemm microkernel of the detected ISA tier (DESIGN.md §14) against
// the unpacked loop nests.
// It also measures the factorization's dense panel kernels in situ (lap
// 20³, Dense, one thread), the grid GEMM of the updates and the stacked
// panel TRSM, against the packed gemm of the same run.
// Results land in bench_kernels.json. `--quick` runs only this driver with
// reduced repetitions and enforces the perf-smoke assertions (packed gemm
// not slower than the loop nests at n=k=256; dense update and panel TRSM
// GF/s above floors relative to the packed gemm), exiting nonzero on
// violation — the ci.sh perfsmoke stage runs exactly that.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "blr.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;

la::DMatrix decaying_block(index_t m, index_t n, std::uint64_t seed) {
  Prng rng(seed);
  return la::random_decaying(m, n, 0.5, rng);
}

void BM_CompressRRQR(benchmark::State& state) {
  const index_t m = state.range(0);
  const la::DMatrix a = decaying_block(m, m, 42);
  for (auto _ : state) {
    auto lr = lr::compress_rrqr(a.cview(), 1e-8, lr::beneficial_rank_limit(m, m));
    benchmark::DoNotOptimize(lr);
  }
}
BENCHMARK(BM_CompressRRQR)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.05);

void BM_CompressSVD(benchmark::State& state) {
  const index_t m = state.range(0);
  const la::DMatrix a = decaying_block(m, m, 42);
  for (auto _ : state) {
    auto lr = lr::compress_svd(a.cview(), 1e-8, lr::beneficial_rank_limit(m, m));
    benchmark::DoNotOptimize(lr);
  }
}
BENCHMARK(BM_CompressSVD)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.05);

// SVD's warm path at a hint equal to the block's rank: the randomized
// sketch that refactorize() runs in place of BM_CompressSVD.
void BM_CompressSvdWarm(benchmark::State& state) {
  const index_t m = state.range(0);
  const la::DMatrix a = decaying_block(m, m, 42);
  const index_t cap = lr::beneficial_rank_limit(m, m);
  const auto cold = lr::compress_svd(a.cview(), 1e-8, cap);
  const index_t hint = cold ? cold->rank() : 0;
  for (auto _ : state) {
    auto wr = lr::compress_svd_warm(a.cview(), 1e-8, cap, hint);
    benchmark::DoNotOptimize(wr);
  }
}
BENCHMARK(BM_CompressSvdWarm)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.05);

void BM_LrProduct(benchmark::State& state) {
  const index_t m = state.range(0);
  Prng rng(7);
  const la::DMatrix da = la::random_rank_k(m, m, 16, rng);
  const la::DMatrix db = la::random_rank_k(m, m, 16, rng);
  const lr::Tile a = lr::compress_to_tile(lr::CompressionKind::Rrqr, da.cview(), 1e-8);
  const lr::Tile b = lr::compress_to_tile(lr::CompressionKind::Rrqr, db.cview(), 1e-8);
  for (auto _ : state) {
    auto p = lr::ab_t_product(a, b, lr::CompressionKind::Rrqr, 1e-8, true);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_LrProduct)->Arg(128)->Arg(256)->Arg(512)->MinTime(0.05);

void BM_DenseGemmReference(benchmark::State& state) {
  const index_t m = state.range(0);
  Prng rng(7);
  la::DMatrix a(m, m);
  la::DMatrix b(m, m);
  la::DMatrix c(m, m);
  la::random_normal(a.view(), rng);
  la::random_normal(b.view(), rng);
  for (auto _ : state) {
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), a.cview(), b.cview(),
             real_t(1), c.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_DenseGemmReference)->Arg(128)->Arg(256)->Arg(512)->MinTime(0.05);

void BM_Lr2LrExtendAdd(benchmark::State& state) {
  const index_t m = state.range(0);
  const auto kind = state.range(1) == 0 ? lr::CompressionKind::Rrqr
                                        : lr::CompressionKind::Svd;
  Prng rng(11);
  const la::DMatrix dc = la::random_rank_k(m, m, 24, rng);
  const la::DMatrix dp = la::random_rank_k(m / 4, m / 4, 8, rng);
  const lr::Tile pb = lr::compress_to_tile(kind, dp.cview(), 1e-8);
  const lr::Tile cb = lr::compress_to_tile(kind, dc.cview(), 1e-8);
  const lr::Tile p =
      lr::Tile::make_lowrank(m / 4, m / 4, lr::LrMatrix(pb.lr()));
  for (auto _ : state) {
    // Re-installing the target's factors is two small copies — negligible
    // next to the recompression being measured.
    lr::Tile c = lr::Tile::make_lowrank(m, m, lr::LrMatrix(cb.lr()));
    lr::lr2lr_add(c, p, m / 8, m / 8, kind, 1e-8);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_Lr2LrExtendAdd)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->MinTime(0.05);

// ---- custom driver: packed gemm, dense panel kernels ----------------

/// Best-of-`trials` wall time of `fn()` run `reps` times per trial.
template <typename Fn>
double best_seconds(int trials, int reps, Fn&& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, timer.elapsed() / reps);
  }
  return best;
}

struct PackedRow {
  index_t n = 0;
  double packed_s = 0, unpacked_s = 0;
  double packed_gflops = 0, unpacked_gflops = 0;
  double speedup = 0;
};

PackedRow measure_packed(index_t n, int trials, int reps) {
  Prng rng(7);
  la::DMatrix a(n, n), b(n, n), c(n, n);
  la::random_normal(a.view(), rng);
  la::random_normal(b.view(), rng);
  la::random_normal(c.view(), rng);
  PackedRow row;
  row.n = n;
  row.packed_s = best_seconds(trials, reps, [&] {
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), a.cview(), b.cview(),
             real_t(1), c.view());
  });
  row.unpacked_s = best_seconds(trials, reps, [&] {
    la::gemm_unpacked(la::Trans::No, la::Trans::Yes, real_t(-1), a.cview(),
                      b.cview(), real_t(1), c.view());
  });
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  row.packed_gflops = flops / row.packed_s / 1e9;
  row.unpacked_gflops = flops / row.unpacked_s / 1e9;
  row.speedup = row.unpacked_s / row.packed_s;
  return row;
}

/// One of the factorization's dense panel kernels measured in situ: lap
/// 20³, Dense, one thread. Best-of-`trials` GF/s of its dispatch row.
struct PanelKernelRow {
  std::uint64_t calls = 0;
  double gflops = 0;
  double ratio = 0;  ///< gflops / packed gemm GF/s at n=k=256
};

struct PanelKernels {
  PanelKernelRow update;  ///< gemm[ge,ge]: one grid GEMM per Upd task
  PanelKernelRow trsm;    ///< trsm[ge]: one stacked TRSM per row group
  /// The grid GEMM's target entries over those factorizations (per k-slab):
  /// all, in place, through per-row addresses; copied = the rest.
  la::GridGemmCounts grid;
};

PanelKernels measure_panel_kernels(int trials, double packed256_gflops) {
  const sparse::CscMatrix a = sparse::laplacian_3d(20, 20, 20);
  SolverOptions o;
  o.strategy = Strategy::Dense;
  o.threads = 1;
  PanelKernels out;
  const auto record = [](PanelKernelRow& row, const SolverStats& st,
                         const char* kernel, std::uint64_t flops) {
    std::uint64_t calls = 0;
    double seconds = 0;
    for (const core::DispatchCount& d : st.dispatch) {
      if (d.kernel != kernel) continue;
      calls += d.calls;
      seconds += d.seconds;
    }
    row.calls = calls;
    if (seconds > 0) {
      row.gflops =
          std::max(row.gflops, static_cast<double>(flops) / seconds / 1e9);
    }
  };
  const la::GridGemmCounts before = la::grid_gemm_counts();
  for (int t = 0; t < trials; ++t) {
    Solver s(o);
    s.factorize(a);
    record(out.update, s.stats(), "gemm[ge,ge]", s.stats().dense_update_flops);
    record(out.trsm, s.stats(), "trsm[ge]", s.stats().panel_solve_flops);
  }
  const la::GridGemmCounts after = la::grid_gemm_counts();
  out.grid = {after.entries - before.entries, after.in_place - before.in_place,
              after.per_row - before.per_row};
  out.update.ratio = out.update.gflops / packed256_gflops;
  out.trsm.ratio = out.trsm.gflops / packed256_gflops;
  return out;
}

/// Perf-smoke floor of the dense update GF/s relative to the packed gemm at
/// n=k=256 of the same run. On the 4-vCPU AVX-512 host, six quick runs
/// measured 0.29-0.40, and the former one-GEMM-per-block-pair update
/// 0.19-0.20; the floor sits between the two.
constexpr double kDenseUpdateFloor = 0.25;

/// Perf-smoke floor of the stacked panel TRSM GF/s relative to the packed
/// gemm at n=k=256 of the same run (DESIGN.md §12). Quick runs on the
/// 4-vCPU AVX-512 host are recorded in EXPERIMENTS.md (*Level-3 Elim and
/// Upd*); the floor sits below the stacked TRSM's lowest ratio and above
/// the per-blok TRSM it replaced.
constexpr double kPanelTrsmFloor = 0.20;

int run_custom_driver(bool quick) {
  const int trials = quick ? 3 : 5;
  int failures = 0;

  const char* isa = la::native_isa_name(la::native_isa());
  std::printf("== packed gemm (%s tier) vs unpacked loop nests (alpha=-1, beta=1) ==\n",
              isa);
  std::vector<PackedRow> packed;
  for (const index_t n : {index_t(64), index_t(128), index_t(256)}) {
    const int reps = n <= 64 ? 200 : n <= 128 ? 50 : 10;
    packed.push_back(measure_packed(n, trials, reps));
    const PackedRow& p = packed.back();
    std::printf("  n=k=%-4lld packed %7.2f GF/s  unpacked %7.2f GF/s  "
                "speedup %.2fx\n",
                static_cast<long long>(p.n), p.packed_gflops,
                p.unpacked_gflops, p.speedup);
  }
  const PackedRow& p256 = packed.back();
  if (p256.packed_s > 1.10 * p256.unpacked_s) {
    std::printf("FAIL: packed gemm is >10%% slower than the loop nests at "
                "n=k=256 (%.2fx)\n", p256.speedup);
    ++failures;
  }

  std::printf("== dense panel kernels: lap 20^3, Dense, 1 thread ==\n");
  const PanelKernels pk = measure_panel_kernels(5, p256.packed_gflops);
  const PanelKernelRow& upd = pk.update;
  const PanelKernelRow& trsm = pk.trsm;
  std::printf("  gemm[ge,ge] %llu calls  %7.2f GF/s  %.2fx packed n=256\n",
              static_cast<unsigned long long>(upd.calls), upd.gflops,
              upd.ratio);
  std::printf("  trsm[ge]    %llu calls  %7.2f GF/s  %.2fx packed n=256\n",
              static_cast<unsigned long long>(trsm.calls), trsm.gflops,
              trsm.ratio);
  const la::NativeTile tile = la::native_tile();
  const la::GridGemmCounts& grid = pk.grid;
  const std::uint64_t copied = grid.entries - grid.in_place - grid.per_row;
  std::printf("  grid GEMM   %lldx%lld fp64 tile, %llu target entries: %llu in place, "
              "%llu per-row, %llu copied\n",
              static_cast<long long>(tile.mr), static_cast<long long>(tile.nr),
              static_cast<unsigned long long>(grid.entries),
              static_cast<unsigned long long>(grid.in_place),
              static_cast<unsigned long long>(grid.per_row),
              static_cast<unsigned long long>(copied));
  if (upd.ratio < kDenseUpdateFloor) {
    std::printf("FAIL: dense update runs at %.2fx the packed gemm (floor "
                "%.2fx)\n", upd.ratio, kDenseUpdateFloor);
    ++failures;
  }
  if (trsm.ratio < kPanelTrsmFloor) {
    std::printf("FAIL: panel TRSM runs at %.2fx the packed gemm (floor "
                "%.2fx)\n", trsm.ratio, kPanelTrsmFloor);
    ++failures;
  }

  std::FILE* out = std::fopen("bench_kernels.json", "w");
  if (out) {
    std::fprintf(out, "{\n  \"isa\": \"%s\",\n  \"packed_gemm\": [\n", isa);
    for (std::size_t i = 0; i < packed.size(); ++i) {
      const PackedRow& p = packed[i];
      std::fprintf(out,
                   "    {\"n\": %lld, \"packed_gflops\": %.3f, "
                   "\"unpacked_gflops\": %.3f, \"speedup\": %.3f}%s\n",
                   static_cast<long long>(p.n), p.packed_gflops,
                   p.unpacked_gflops, p.speedup,
                   i + 1 < packed.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"dense_update\": {\"problem\": \"laplacian_3d(20,20,20) "
                 "Dense 1 thread\", \"gemm_ge_calls\": %llu, \"gflops\": %.3f, "
                 "\"ratio_to_packed_256\": %.3f, \"floor\": %.2f},\n",
                 static_cast<unsigned long long>(upd.calls), upd.gflops,
                 upd.ratio, kDenseUpdateFloor);
    std::fprintf(out,
                 "  \"panel_trsm\": {\"problem\": \"laplacian_3d(20,20,20) "
                 "Dense 1 thread\", \"trsm_ge_calls\": %llu, \"gflops\": %.3f, "
                 "\"ratio_to_packed_256\": %.3f, \"floor\": %.2f},\n",
                 static_cast<unsigned long long>(trsm.calls), trsm.gflops,
                 trsm.ratio, kPanelTrsmFloor);
    std::fprintf(out,
                 "  \"grid_gemm\": {\"tile_mr\": %lld, \"tile_nr\": %lld, "
                 "\"target_entries\": %llu, \"in_place_entries\": %llu, "
                 "\"per_row_entries\": %llu, \"copied_target_entries\": %llu}\n}\n",
                 static_cast<long long>(tile.mr), static_cast<long long>(tile.nr),
                 static_cast<unsigned long long>(grid.entries),
                 static_cast<unsigned long long>(grid.in_place),
                 static_cast<unsigned long long>(grid.per_row),
                 static_cast<unsigned long long>(copied));
    std::fclose(out);
    std::printf("wrote bench_kernels.json\n");
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int failures = run_custom_driver(quick);
  if (failures > 0) return 1;
  if (quick) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
