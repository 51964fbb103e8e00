// Cross-cutting tests: multi right-hand-side solves across factorization
// kinds and strategies, every graph task running exactly once, and
// assorted coverage of the runtime knobs.

#include <gtest/gtest.h>

#include <algorithm>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

SolverOptions demo_opts(Strategy s) {
  SolverOptions o;
  o.strategy = s;
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

la::DMatrix random_rhs_block(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  la::DMatrix b(n, nrhs);
  la::random_normal(b.view(), rng);
  return b;
}

real_t block_backward_error(const CscMatrix& a, const la::DMatrix& x,
                            const la::DMatrix& b) {
  real_t worst = 0;
  std::vector<real_t> xr(static_cast<std::size_t>(a.rows()));
  std::vector<real_t> br(xr.size());
  for (index_t r = 0; r < b.cols(); ++r) {
    for (index_t i = 0; i < a.rows(); ++i) {
      xr[static_cast<std::size_t>(i)] = x(i, r);
      br[static_cast<std::size_t>(i)] = b(i, r);
    }
    worst = std::max(worst, sparse::backward_error(a, xr.data(), br.data()));
  }
  return worst;
}

TEST(MultiRhs, LuPathAllStrategies) {
  const CscMatrix a = sparse::convection_diffusion_3d(7, 7, 7, 0.5);
  const la::DMatrix b = random_rhs_block(a.rows(), 4, 11);
  for (const Strategy s :
       {Strategy::Dense, Strategy::JustInTime, Strategy::MinimalMemory}) {
    Solver solver(demo_opts(s));
    solver.factorize(a);
    ASSERT_FALSE(solver.is_llt());
    la::DMatrix x(a.rows(), 4);
    solver.solve(b.cview(), x.view());
    EXPECT_LT(block_backward_error(a, x, b), 1e-5) << static_cast<int>(s);
  }
}

TEST(MultiRhs, CholeskyPathMinimalMemory) {
  const CscMatrix a = sparse::elasticity_3d(4, 4, 4, 2.0, 1.0);
  const la::DMatrix b = random_rhs_block(a.rows(), 3, 12);
  Solver solver(demo_opts(Strategy::MinimalMemory));
  solver.factorize(a);
  ASSERT_TRUE(solver.is_llt());
  la::DMatrix x(a.rows(), 3);
  solver.solve(b.cview(), x.view());
  EXPECT_LT(block_backward_error(a, x, b), 1e-5);
}

TEST(MultiRhs, SingleColumnBlockMatchesVectorApi) {
  const CscMatrix a = sparse::laplacian_2d(12, 12);
  Solver solver(demo_opts(Strategy::Dense));
  solver.factorize(a);
  const la::DMatrix b = random_rhs_block(a.rows(), 1, 13);
  la::DMatrix x1(a.rows(), 1);
  solver.solve(b.cview(), x1.view());
  std::vector<real_t> bv(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i) bv[static_cast<std::size_t>(i)] = b(i, 0);
  const auto x2 = solver.solve(bv);
  for (index_t i = 0; i < a.rows(); ++i)
    EXPECT_DOUBLE_EQ(x1(i, 0), x2[static_cast<std::size_t>(i)]);
}

TEST(MultiRhs, ShapeMismatchThrows) {
  const CscMatrix a = sparse::laplacian_2d(5, 5);
  Solver solver(demo_opts(Strategy::Dense));
  solver.factorize(a);
  la::DMatrix b(25, 2), x(25, 3);
  EXPECT_THROW(solver.solve(b.cview(), x.view()), Error);
  la::DMatrix b2(24, 2), x2(24, 2);
  EXPECT_THROW(solver.solve(b2.cview(), x2.view()), Error);
}

TEST(Scheduling, TwoDimensionalProblemFullPipeline) {
  // 2D problems exercise much smaller separators; full pipeline sanity.
  const CscMatrix a = sparse::laplacian_2d(40, 40);
  for (const Strategy s : {Strategy::Dense, Strategy::MinimalMemory}) {
    Solver solver(demo_opts(s));
    solver.factorize(a);
    std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
    const auto x = solver.solve(b);
    EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-6);
  }
}

TEST(Stats, PhaseTimesArePopulated) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  Solver solver(demo_opts(Strategy::JustInTime));
  solver.factorize(a);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  (void)solver.solve(b);
  EXPECT_GT(solver.stats().time_analyze, 0.0);
  EXPECT_GT(solver.stats().time_factorize, 0.0);
  EXPECT_GE(solver.stats().time_solve, 0.0);
  EXPECT_GT(solver.stats().num_cblks, 0);
  EXPECT_GT(solver.stats().compression_ratio(), 0.5);
}

// Every task of the factorization graph runs exactly once: each supernode
// is eliminated once even though its updates run as separate Upd tasks, and
// the pool runs nothing beyond the graph's tasks and the fan-out helpers.
void expect_every_task_once(const SolverOptions& o) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  Solver solver(o);
  solver.factorize(a);
  const core::SolverStats& st = solver.stats();
  EXPECT_GT(st.dag_tasks, static_cast<std::uint64_t>(st.num_cblks));
  EXPECT_EQ(st.dag_executed, st.dag_tasks);
  EXPECT_EQ(st.scheduler_workers, o.threads);
  EXPECT_EQ(st.scheduler_tasks, st.dag_tasks + st.pool_helpers);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-10);
}

TEST(ExactlyOnce, ParallelLltRunsEveryTaskOnce) {
  SolverOptions o = demo_opts(Strategy::JustInTime);
  o.threads = 4;
  expect_every_task_once(o);
}

// The LU graph's Upd tasks also fill the U panels.
TEST(ExactlyOnce, ParallelLuRunsEveryTaskOnce) {
  SolverOptions o = demo_opts(Strategy::JustInTime);
  o.threads = 4;
  o.factorization = Factorization::Lu;
  expect_every_task_once(o);
}

// Without a pool the graph drains on the calling thread, in task-id order.
TEST(ExactlyOnce, SequentialRunsEveryTaskOnce) {
  const CscMatrix a = sparse::laplacian_2d(10, 10);
  Solver solver(demo_opts(Strategy::Dense));
  solver.factorize(a);
  EXPECT_GT(solver.stats().dag_tasks, 0u);
  EXPECT_EQ(solver.stats().dag_executed, solver.stats().dag_tasks);
  EXPECT_EQ(solver.stats().scheduler_workers, 0);
  EXPECT_EQ(solver.stats().pool_helpers, 0u);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-12);
}

} // namespace
