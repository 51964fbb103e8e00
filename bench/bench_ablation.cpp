// Ablation benches for the design choices DESIGN.md calls out (beyond the
// paper's own tables): the supernode splitting sizes (paper: 256 -> 128),
// the compressibility thresholds (width >= 128, height >= 20), and the
// LR2LR recompression kernel choice, all measured on one fixed problem.

#include "bench_common.hpp"

using namespace bench;

namespace {

void run_config(const char* label, const sparse::CscMatrix& a, SolverOptions opts) {
  const RunResult r = run_solver(a, opts);
  std::printf("%-34s %9.2fs %10.2fMB %8.3f %10.2fMB %9.1e %7lld\n", label,
              r.factorization_time, mib(r.factor_entries * sizeof(real_t)),
              static_cast<double>(r.factor_entries) /
                  static_cast<double>(r.factor_entries_dense),
              mib(r.factors_peak_bytes),
              static_cast<double>(r.backward_error),
              static_cast<long long>(r.lowrank_blocks));
  std::fflush(stdout);
}

} // namespace

int main() {
  const index_t n = env_index("BLR_BENCH_N", 28);
  const auto a = sparse::laplacian_3d(n, n, n);
  print_header("Ablations — lap" + std::to_string(n) + ", Just-In-Time/RRQR, tau=1e-8");
  std::printf("%-34s %10s %12s %8s %12s %9s %7s\n", "config", "facto", "factors",
              "ratio", "peak", "bwd err", "#LR");

  // 1. Supernode splitting (split_threshold / split_size).
  for (const auto& [thr, sz] :
       {std::pair<index_t, index_t>{128, 64}, {256, 128}, {512, 256}}) {
    SolverOptions o = paper_options(Strategy::JustInTime, lr::CompressionKind::Rrqr, 1e-8);
    o.split.split_threshold = thr;
    o.split.split_size = sz;
    const std::string label =
        "split " + std::to_string(thr) + "/" + std::to_string(sz);
    run_config(label.c_str(), a, o);
  }

  // 2. Compressibility thresholds.
  for (const auto& [w, h] : {std::pair<index_t, index_t>{64, 10}, {128, 20}, {192, 40}}) {
    SolverOptions o = paper_options(Strategy::JustInTime, lr::CompressionKind::Rrqr, 1e-8);
    o.compress_min_width = w;
    o.compress_min_height = h;
    const std::string label =
        "compress w>=" + std::to_string(w) + " h>=" + std::to_string(h);
    run_config(label.c_str(), a, o);
  }

  // 3. Recompression kernel of the Minimal-Memory extend-add.
  for (const auto kind : {lr::CompressionKind::Rrqr, lr::CompressionKind::Svd}) {
    SolverOptions o = paper_options(Strategy::MinimalMemory, kind, 1e-8);
    const std::string label =
        std::string("MinMem extend-add ") + core::kind_name(kind);
    run_config(label.c_str(), a, o);
  }

  // 4. Separator-locality reordering on/off (blocking optimization of [21]).
  for (const bool reorder : {true, false}) {
    SolverOptions o = paper_options(Strategy::JustInTime, lr::CompressionKind::Rrqr, 1e-8);
    o.nd.reorder_separators = reorder;
    run_config(reorder ? "separator reordering on" : "separator reordering off", a, o);
  }

  // 5. Supernode amalgamation (Scotch frat parameter of §4).
  for (const double frat : {-1.0, 0.02, 0.08, 0.25}) {
    SolverOptions o = paper_options(Strategy::JustInTime, lr::CompressionKind::Rrqr, 1e-8);
    if (frat < 0) {
      o.amalgamate = false;
      run_config("amalgamation off", a, o);
    } else {
      o.amalgamation.frat = frat;
      const std::string label = "amalgamation frat=" + std::to_string(frat).substr(0, 4);
      run_config(label.c_str(), a, o);
    }
  }

  // 6. Compression kernel family.
  for (const auto kind : {lr::CompressionKind::Rrqr, lr::CompressionKind::Svd}) {
    SolverOptions o = paper_options(Strategy::JustInTime, kind, 1e-8);
    const std::string label = std::string("JIT kernel ") + core::kind_name(kind);
    run_config(label.c_str(), a, o);
  }
  return 0;
}
