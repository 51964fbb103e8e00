#pragma once

// Shared helpers for the table/figure regenerators. Problem sizes default to
// values that complete on a small node in minutes; set BLR_BENCH_N (grid
// points per axis) to scale closer to the paper's ~1e6-unknown runs.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "blr.hpp"

namespace bench {

using namespace blr;

inline index_t env_index(const char* name, index_t def) {
  const char* v = std::getenv(name);
  return v ? static_cast<index_t>(std::atoll(v)) : def;
}

inline int env_threads() {
  const char* v = std::getenv("BLR_BENCH_THREADS");
  if (v) return std::atoi(v);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? static_cast<int>(hc) : 1;
}

/// Paper defaults for the solver, at a scale where the compressibility
/// thresholds still leave compressible blocks on small grids.
inline SolverOptions paper_options(Strategy strategy, lr::CompressionKind kind,
                                   real_t tol) {
  SolverOptions o;
  o.strategy = strategy;
  o.kind = kind;
  o.tolerance = tol;
  o.threads = env_threads();
  return o;
}

struct RunResult {
  double factorization_time = 0;
  double solve_time = 0;
  real_t backward_error = 0;
  std::size_t factor_entries = 0;
  std::size_t factor_entries_dense = 0;
  std::size_t factor_bytes = 0;    ///< precision-aware final factor bytes
  std::size_t lowrank_bytes = 0;   ///< part of factor_bytes in low-rank U/V
  index_t fp32_blocks = 0;         ///< blocks stored fp32 (MixedTiles only)
  std::size_t factors_peak_bytes = 0;
  std::size_t total_peak_bytes = 0;
  index_t lowrank_blocks = 0;
  double dense_block_fraction = 0;
  std::vector<core::DispatchCount> dispatch;  ///< per-kernel call counters
};

/// Factorize + solve once, collecting the quantities the paper reports.
inline RunResult run_solver(const sparse::CscMatrix& a, const SolverOptions& opts,
                            Solver* keep = nullptr) {
  RunResult r;
  Solver local(opts);
  Solver& s = keep ? *keep : local;
  s.analyze(a);
  Timer t;
  s.factorize(a);
  r.factorization_time = t.elapsed();

  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<real_t> x(b.size());
  t.reset();
  s.solve(b.data(), x.data());
  r.solve_time = t.elapsed();
  r.backward_error = sparse::backward_error(a, x.data(), b.data());

  r.factor_entries = s.stats().factor_entries_final;
  r.factor_entries_dense = s.stats().factor_entries_dense;
  r.factor_bytes = s.stats().factor_bytes_final;
  r.lowrank_bytes = s.stats().factor_bytes_lowrank;
  r.fp32_blocks = s.stats().num_fp32_blocks;
  r.factors_peak_bytes = s.stats().factors_peak_bytes;
  r.total_peak_bytes = s.stats().total_peak_bytes;
  r.lowrank_blocks = s.stats().num_lowrank_blocks;
  r.dense_block_fraction = s.stats().dense_block_fraction;
  r.dispatch = s.stats().dispatch;
  return r;
}

/// Append one run as a JSON object line to `out` (the caller brackets the
/// array and handles commas). Kernel-dispatch counters are included so the
/// figure data carries the per-kernel call profile of each configuration.
inline void json_run(std::FILE* out, const char* label, index_t dofs,
                     const RunResult& r) {
  std::fprintf(out,
               "    {\"config\": \"%s\", \"dofs\": %lld, "
               "\"factor_bytes\": %zu, \"lowrank_bytes\": %zu, "
               "\"fp32_blocks\": %lld, \"peak_bytes\": %zu, "
               "\"factorization_s\": %.6f, \"backward_error\": %.3e, "
               "\"dense_block_fraction\": %.4f, \"kernels\": [",
               label, static_cast<long long>(dofs), r.factor_bytes,
               r.lowrank_bytes,
               static_cast<long long>(r.fp32_blocks), r.total_peak_bytes,
               r.factorization_time, static_cast<double>(r.backward_error),
               r.dense_block_fraction);
  for (std::size_t i = 0; i < r.dispatch.size(); ++i) {
    const auto& d = r.dispatch[i];
    std::fprintf(out,
                 "%s{\"kernel\": \"%s\", "
                 "\"calls\": %llu, \"bytes\": %llu, \"seconds\": %.6f}",
                 i == 0 ? "" : ", ", d.kernel.c_str(),
                 static_cast<unsigned long long>(d.calls),
                 static_cast<unsigned long long>(d.bytes), d.seconds);
  }
  std::fprintf(out, "]}");
}

inline double gib(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0); }
inline double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

} // namespace bench
