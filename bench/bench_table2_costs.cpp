// Table 2: sequential cost distribution of the numeric factorization on the
// atmosmodj surrogate (nonsymmetric convection-diffusion) at tau = 1e-8,
// for the five configurations the paper compares:
//   Dense | Just-In-Time {RRQR, SVD} | Minimal-Memory {RRQR, SVD}.
// Per-kernel wall times come from the dispatch counters of each run
// (SolverStats::dispatch), grouped into the paper's six kernel classes by
// kernel-name prefix; the "Other (untimed)" row is the rest of the
// factorization time (assembly, the driver, Minimal-Memory's accumulator
// appends). A factorization kernel that maps to no class is an error, so a
// new kernel cannot drop out of the table unnoticed. The paper's
// observations to reproduce are the *orderings*: SVD compression >> RRQR
// compression, the LR-addition term dominating (even exploding for SVD) in
// Minimal-Memory, and the factor size shrinking in all BLR configurations.

#include "bench_common.hpp"

using namespace bench;

namespace {

struct Config {
  const char* name;
  Strategy strategy;
  lr::CompressionKind kind;
};

constexpr int kClasses = 6;
const char* const kClassLabels[kClasses] = {
    "Compression", "Block factorization", "Panel solve",
    "LR product",  "LR addition",         "Dense update"};

/// Table 2 row of a factorization kernel, -1 for one that maps to none.
int kernel_class(const std::string& k) {
  if (k.starts_with("compress")) return 0;
  if (k.starts_with("getrf") || k.starts_with("potrf")) return 1;
  if (k.starts_with("trsm")) return 2;
  if (k == "gemm[ge,ge]" || k.starts_with("lr2ge")) return 5;
  if (k.starts_with("gemm[")) return 3;  // at least one low-rank operand
  if (k.starts_with("lr2lr")) return 4;
  return -1;
}

} // namespace

int main() {
  const index_t n = env_index("BLR_BENCH_N", 32);
  const real_t tol = 1e-8;
  print_header("Table 2 — cost distribution, atmosmodj surrogate (" +
               std::to_string(n) + "^3 convection-diffusion), tau = 1e-8, 1 thread");

  const auto a = sparse::convection_diffusion_3d(n, n, n, 0.5);

  const Config configs[] = {
      {"Dense", Strategy::Dense, lr::CompressionKind::Rrqr},
      {"JIT/RRQR", Strategy::JustInTime, lr::CompressionKind::Rrqr},
      {"JIT/SVD", Strategy::JustInTime, lr::CompressionKind::Svd},
      {"MinMem/RRQR", Strategy::MinimalMemory, lr::CompressionKind::Rrqr},
      {"MinMem/SVD", Strategy::MinimalMemory, lr::CompressionKind::Svd},
  };

  std::printf("%-22s %10s %10s %10s %10s %10s %10s\n", "seconds", "Dense",
              "JIT/RRQR", "JIT/SVD", "MM/RRQR", "MM/SVD", "");
  double rows[kClasses][5] = {};
  double total[5] = {};
  double solve[5] = {};
  double size_mb[5] = {};
  real_t err[5] = {};

  for (int c = 0; c < 5; ++c) {
    SolverOptions opts = paper_options(configs[c].strategy, configs[c].kind, tol);
    opts.threads = 1;  // Table 2 is sequential
    const RunResult r = run_solver(a, opts);
    for (const core::DispatchCount& d : r.dispatch) {
      if (d.kernel.starts_with("solve_")) continue;
      const int row = kernel_class(d.kernel);
      if (row < 0) {
        std::fprintf(stderr, "kernel %s of %s maps to no Table 2 row\n",
                     d.kernel.c_str(), configs[c].name);
        return 1;
      }
      rows[row][c] += d.seconds;
    }
    total[c] = r.factorization_time;
    solve[c] = r.solve_time;
    size_mb[c] = static_cast<double>(r.factor_entries) * sizeof(real_t) / 1e6;
    err[c] = r.backward_error;
  }

  double other[5] = {};
  for (int c = 0; c < 5; ++c) {
    other[c] = total[c];
    for (int row = 0; row < kClasses; ++row) other[c] -= rows[row][c];
  }
  for (int row = 0; row < kClasses; ++row) {
    std::printf("%-22s", kClassLabels[row]);
    for (int c = 0; c < 5; ++c) {
      if (rows[row][c] > 0) std::printf(" %10.3f", rows[row][c]);
      else std::printf(" %10s", "-");
    }
    std::printf("\n");
  }
  std::printf("%-22s", "Other (untimed)");
  for (int c = 0; c < 5; ++c) std::printf(" %10.3f", other[c]);
  std::printf("\n");
  std::printf("%-22s", "Total factorization");
  for (int c = 0; c < 5; ++c) std::printf(" %10.3f", total[c]);
  std::printf("\n%-22s", "Solve time");
  for (int c = 0; c < 5; ++c) std::printf(" %10.4f", solve[c]);
  std::printf("\n%-22s", "Factors size (MB)");
  for (int c = 0; c < 5; ++c) std::printf(" %10.2f", size_mb[c]);
  std::printf("\n%-22s", "Backward error");
  for (int c = 0; c < 5; ++c) std::printf(" %10.1e", static_cast<double>(err[c]));
  std::printf("\n");
  return 0;
}
