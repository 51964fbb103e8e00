// Table 1: the complexity model of the low-rank kernels. The paper derives
// Θ-bounds; this bench measures each kernel over a size sweep and reports
// the observed scaling exponent (log-log fit), to be compared with the
// model's leading power:
//   dense GEMM update       Θ(m² n)        -> exponent ~3 in m (n = m)
//   LR2GE (JIT update)      Θ(m² r)        -> exponent ~2 in m (r fixed)
//   LR product              Θ(m r²)-ish    -> exponent ~1 in m (r fixed)
//   LR2LR extend-add (RRQR) Θ(m (r_C+r_P) r_C') -> exponent ~1 in m
// (absolute constants depend on our scalar kernels; the *exponents* are the
// reproduction target).

#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "linalg/random.hpp"

using namespace bench;

namespace {

constexpr index_t kRank = 16;
volatile long long sink = 0;

double time_it(const std::function<void()>& f, int reps) {
  Timer t;
  for (int r = 0; r < reps; ++r) f();
  return t.elapsed() / reps;
}

double fit_exponent(const std::vector<double>& sizes, const std::vector<double>& times) {
  // Least squares on log-log.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double x = std::log(sizes[i]);
    const double y = std::log(times[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

} // namespace

int main() {
  print_header("Table 1 — measured scaling exponents of the update kernels");
  const std::vector<index_t> sizes{128, 192, 256, 384, 512};
  std::vector<double> xs(sizes.begin(), sizes.end());
  Prng rng(5);

  std::vector<double> t_gemm, t_lr2ge, t_prod, t_lr2lr;
  for (const index_t m : sizes) {
    const int reps = m <= 256 ? 8 : 3;
    // Operands: A, B dense m x m; low-rank versions at fixed rank.
    la::DMatrix ad(m, m), bd(m, m), target(m, m);
    la::random_normal(ad.view(), rng);
    la::random_normal(bd.view(), rng);
    const la::DMatrix alr_d = la::random_rank_k(m, m, kRank, rng);
    const la::DMatrix blr_d = la::random_rank_k(m, m, kRank, rng);
    const lr::Tile alr =
        lr::compress_to_tile(lr::CompressionKind::Rrqr, alr_d.cview(), 1e-8);
    const lr::Tile blr =
        lr::compress_to_tile(lr::CompressionKind::Rrqr, blr_d.cview(), 1e-8);

    t_gemm.push_back(time_it(
        [&] {
          la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), ad.cview(), bd.cview(),
                   real_t(1), target.view());
        },
        reps));

    t_prod.push_back(time_it(
        [&] {
          auto p = lr::ab_t_product(alr, blr, lr::CompressionKind::Rrqr, 1e-8, true);
          sink = p.rank();
        },
        reps));

    t_lr2ge.push_back(time_it(
        [&] {
          auto p = lr::ab_t_product(alr, blr, lr::CompressionKind::Rrqr, 1e-8, false);
          lr::apply_to_dense(p, target.view(), false);
        },
        reps));

    const la::DMatrix small = la::random_rank_k(m / 4, m / 4, 8, rng);
    const lr::Tile pb = lr::compress_to_tile(lr::CompressionKind::Rrqr, small.cview(), 1e-8);
    const lr::Tile pc =
        lr::Tile::make_lowrank(m / 4, m / 4, lr::LrMatrix(pb.lr()));
    t_lr2lr.push_back(time_it(
        [&] {
          lr::Tile c = lr::Tile::make_lowrank(m, m, lr::LrMatrix(alr.lr()));
          lr::lr2lr_add(c, pc, m / 8, m / 8, lr::CompressionKind::Rrqr, 1e-8);
        },
        reps));
  }

  std::printf("%-26s %10s %10s\n", "kernel (fixed rank 16)", "exponent", "model");
  std::printf("%-26s %10.2f %10s\n", "dense GEMM update", fit_exponent(xs, t_gemm), "3");
  std::printf("%-26s %10.2f %10s\n", "LR2GE update", fit_exponent(xs, t_lr2ge), "~2");
  std::printf("%-26s %10.2f %10s\n", "LR product", fit_exponent(xs, t_prod), "~1");
  std::printf("%-26s %10.2f %10s\n", "LR2LR extend-add", fit_exponent(xs, t_lr2lr), "~1-2");
  std::printf("\nraw seconds per call:\n%-8s %12s %12s %12s %12s\n", "m", "GEMM",
              "LR2GE", "LRxLR", "LR2LR");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-8lld %12.3e %12.3e %12.3e %12.3e\n",
                static_cast<long long>(sizes[i]), t_gemm[i], t_lr2ge[i], t_prod[i],
                t_lr2lr[i]);
  }
  return 0;
}
