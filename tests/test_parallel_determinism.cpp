// Parallel-vs-sequential agreement: for every strategy × factorization kind
// on generator matrices, the parallel factorization (several thread counts)
// must reproduce the sequential run bit for bit — factors, storage and
// solution — because every target's updates land in the sequential order.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

struct Case {
  Strategy strategy;
  Factorization facto;
};

SolverOptions base_opts(const Case& c, int threads) {
  SolverOptions o;
  o.strategy = c.strategy;
  o.factorization = c.facto;
  o.threads = threads;
  // Small thresholds so the tiny test grids still produce low-rank blocks
  // and multi-blok panels.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

CscMatrix matrix_for(Factorization f) {
  // LU: nonsymmetric convection-diffusion; LLt: SPD vector elasticity.
  return f == Factorization::Lu
             ? sparse::convection_diffusion_3d(7, 7, 7, 0.5)
             : sparse::elasticity_3d(4, 4, 4, 2.0, 1.0);
}

struct Outcome {
  std::vector<real_t> x;
  real_t residual = 0;
  std::size_t entries = 0;
};

Outcome run_once(const CscMatrix& a, const SolverOptions& o) {
  Solver solver(o);
  solver.factorize(a);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  Outcome r;
  r.x = solver.solve(b);
  r.residual = sparse::backward_error(a, r.x.data(), b.data());
  r.entries = solver.stats().factor_entries_final;
  return r;
}

void expect_same(const Outcome& want, const Outcome& got, int threads) {
  EXPECT_EQ(got.entries, want.entries) << "threads=" << threads;
  ASSERT_EQ(got.x.size(), want.x.size());
  EXPECT_EQ(0, std::memcmp(got.x.data(), want.x.data(),
                           want.x.size() * sizeof(real_t)))
      << "threads=" << threads;
}

class ParallelDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminism, MatchesSequentialRun) {
  const Case c = GetParam();
  const CscMatrix a = matrix_for(c.facto);

  const Outcome seq = run_once(a, base_opts(c, 1));
  ASSERT_LT(seq.residual, 1e-6);
  ASSERT_GT(seq.entries, 0u);

  for (const int threads : {2, 8}) {
    expect_same(seq, run_once(a, base_opts(c, threads)), threads);
  }
}

// Assembly runs inside the drain: each supernode is allocated by the first
// task that writes it, and its input slice is freed there. At every thread
// count the factors therefore never exceed the dense structure that an
// up-front ("barrier") assembly allocated at once, and nothing of the input
// or the accumulators is left in Workspace. (The name is kept so the test
// ID stays stable.)
TEST_P(ParallelDeterminism, DagMatchesBarrierAcrossSchedulers) {
  const Case c = GetParam();
  const CscMatrix a = matrix_for(c.facto);
  for (const int threads : {1, 2, 8}) {
    Solver solver(base_opts(c, threads));
    solver.factorize(a);
    const core::SolverStats& st = solver.stats();
    EXPECT_LE(st.factors_peak_bytes, st.factor_entries_dense * sizeof(real_t))
        << "threads=" << threads;
    EXPECT_EQ(MemoryTracker::instance().current(MemCategory::Workspace), 0u)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategyFactoGrid, ParallelDeterminism,
    ::testing::Values(Case{Strategy::Dense, Factorization::Lu},
                      Case{Strategy::Dense, Factorization::Llt},
                      Case{Strategy::JustInTime, Factorization::Lu},
                      Case{Strategy::JustInTime, Factorization::Llt},
                      Case{Strategy::MinimalMemory, Factorization::Lu},
                      Case{Strategy::MinimalMemory, Factorization::Llt}),
    [](const auto& info) {
      std::string s = info.param.strategy == Strategy::Dense ? "Dense"
                      : info.param.strategy == Strategy::JustInTime
                          ? "JIT"
                          : "MinMem";
      s += info.param.facto == Factorization::Lu ? "Lu" : "Llt";
      return s;
    });

} // namespace
