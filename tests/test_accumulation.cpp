// Tests of LUAR-style update accumulation, Minimal-Memory's extend-add (the
// aggregation of small contributions the paper's conclusion proposes).

#include <gtest/gtest.h>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

SolverOptions mm_opts() {
  SolverOptions o;
  o.strategy = Strategy::MinimalMemory;
  o.tolerance = 1e-8;
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

TEST(Accumulation, SameSolutionAsImmediateUpdates) {
  for (const auto& a :
       {sparse::laplacian_3d(10, 10, 10),
        sparse::convection_diffusion_3d(8, 8, 8, 0.5),
        sparse::heterogeneous_poisson_3d(9, 9, 9, 3.0, 4)}) {
    Prng rng(21);
    std::vector<real_t> b(static_cast<std::size_t>(a.rows()));
    for (auto& v : b) v = rng.normal();

    const SolverOptions o = mm_opts();
    Solver s(o);
    s.factorize(a);
    std::vector<real_t> x(b.size());
    s.solve(b.data(), x.data());
    // Accumulated extend-adds recompress at other points than immediate
    // ones, so the bits differ, but the τ contract is the same.
    EXPECT_LT(sparse::backward_error(a, x.data(), b.data()),
              o.tolerance * 500);
  }
}

TEST(Accumulation, ParallelCorrectness) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  Prng rng(22);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  SolverOptions o = mm_opts();
  o.threads = 4;
  for (int rep = 0; rep < 4; ++rep) {
    Solver s(o);
    s.factorize(a);
    std::vector<real_t> x(b.size());
    s.solve(b.data(), x.data());
    ASSERT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-4) << rep;
  }
}

// Lap 20³ at τ = 1e-4 is a small input on which accumulators reach the
// flush rank inside Upd tasks (not only at the target's elimination).
TEST(Accumulation, SmallMaxRankFlushesOften) {
  const CscMatrix a = sparse::laplacian_3d(20, 20, 20);
  SolverOptions o = mm_opts();
  o.tolerance = 1e-4;
  Solver s(o);
  s.factorize(a);
  ASSERT_GT(s.stats().num_lowrank_blocks, 0);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto x = s.solve(b);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), o.tolerance * 500);
}

TEST(Accumulation, WorkspaceReturnsToZero) {
  const CscMatrix a = sparse::laplacian_3d(14, 14, 14);
  Solver s(mm_opts());
  s.factorize(a);
  // All accumulators were flushed at elimination and every input slice was
  // freed by its supernode's assembly, so no workspace bytes remain once the
  // factorization ends.
  EXPECT_EQ(MemoryTracker::instance().current(MemCategory::Workspace), 0u);
}

} // namespace
