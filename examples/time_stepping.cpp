// Example: amortized re-factorization with a Session (DESIGN.md §15).
//
// The JOREK-style workload from the paper's motivation: an implicit time
// stepper re-assembles its system matrix every step — same sparsity
// pattern, new values — then solves against a handful of right-hand sides.
// Re-running analyze() every step would waste the dominant symbolic cost;
// a Session keeps one symbolic plan alive, re-factorizes numerically with
// warm state (learned ranks skip proven-dense blocks, buffers recycle), and
// serves solve() calls from any thread while the next step's factorization
// runs.

#include <cstdio>
#include <thread>
#include <vector>

#include "blr.hpp"

using namespace blr;

namespace {

/// One implicit step: scale the stiffness part and shift the diagonal (a
/// mass-matrix/dt term). Same pattern, SPD-preserving.
sparse::CscMatrix assemble_step(const sparse::CscMatrix& a0, int step) {
  sparse::CscMatrix a = a0;
  const real_t scale = real_t(1) + real_t(0.02) * static_cast<real_t>(step);
  const real_t shift = real_t(0.05) * static_cast<real_t>(step);
  std::vector<real_t>& v = a.values();
  for (real_t& x : v) x *= scale;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.colptr()[static_cast<std::size_t>(j)];
         p < a.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      if (a.rowind()[static_cast<std::size_t>(p)] == j) {
        v[static_cast<std::size_t>(p)] += shift;
      }
    }
  }
  return a;
}

} // namespace

int main() {
  const sparse::CscMatrix a0 = sparse::laplacian_3d(12, 12, 12);
  const index_t n = a0.rows();

  SolverOptions opts;
  opts.strategy = Strategy::JustInTime;
  opts.kind = lr::CompressionKind::Rrqr;
  opts.compress_min_width = 32;
  opts.compress_min_height = 16;
  opts.split.split_threshold = 128;
  opts.split.split_size = 64;

  Session session(opts);
  Timer analyze_timer;
  session.analyze(a0);  // symbolic cost paid exactly once
  const double analyze_s = analyze_timer.elapsed();
  std::printf("analyze: %.2f ms, paid once for every later step\n",
              analyze_s * 1e3);

  const int num_steps = 5;
  const int rhs_per_step = 4;
  double first_s = 0, steady_s = 0;

  for (int step = 0; step < num_steps; ++step) {
    const sparse::CscMatrix a = assemble_step(a0, step);
    Timer t;
    session.refactorize(a);
    const double sec = t.elapsed();
    if (step == 0) first_s = sec; else steady_s = sec;

    // A few concurrent "physics" threads solving against this step's
    // factors. Single-RHS calls arriving together are coalesced into one
    // blocked multi-RHS solve; each result is bit-identical to a lone call.
    std::vector<std::thread> workers;
    std::vector<double> berr(rhs_per_step, 1.0);
    for (int r = 0; r < rhs_per_step; ++r) {
      workers.emplace_back([&, r] {
        Prng rng(static_cast<std::uint64_t>(100 * step + r));
        std::vector<real_t> b(static_cast<std::size_t>(n));
        for (real_t& x : b) x = rng.normal();
        std::vector<real_t> x;
        const SolveStats st = session.solve(b, x);
        berr[static_cast<std::size_t>(r)] =
            sparse::backward_error(a, x.data(), b.data());
        (void)st;  // st.factor_epoch / st.batch_size describe the request
      });
    }
    for (std::thread& w : workers) w.join();

    double worst = 0;
    for (double e : berr) worst = std::max(worst, e);
    std::printf("step %d: %s %.2f ms, worst backward error %.1e (epoch %llu)\n",
                step, step == 0 ? "factorize  " : "refactorize", sec * 1e3,
                worst, static_cast<unsigned long long>(session.epoch()));
  }

  const SolverStats& st = session.stats();
  std::printf(
      "\nsteady-state step %.2f ms vs first step incl. analyze %.2f ms "
      "(%.2fx)\n"
      "warm start: %llu dense skips, %llu sketched SVD compressions "
      "(0 under RRQR, which compresses cold); buffer pool: %llu hits\n",
      steady_s * 1e3, (first_s + analyze_s) * 1e3,
      (first_s + analyze_s) / steady_s,
      static_cast<unsigned long long>(st.warm.dense_skips),
      static_cast<unsigned long long>(st.warm.attempts),
      static_cast<unsigned long long>(st.buffer_hits));
  return 0;
}
