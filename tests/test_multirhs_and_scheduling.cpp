// Cross-cutting tests: multi right-hand-side solves across factorization
// kinds and strategies, left-looking scheduling combined with every
// strategy/kernel, and assorted coverage of the runtime knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>

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

struct SchedCase {
  Strategy strategy;
  lr::CompressionKind kind;
};

class LeftLookingSweep : public ::testing::TestWithParam<SchedCase> {};

TEST_P(LeftLookingSweep, MatchesRightLookingSolution) {
  const auto p = GetParam();
  const CscMatrix a = sparse::heterogeneous_poisson_3d(7, 7, 7, 2.0, 9);
  Prng rng(14);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();

  SolverOptions rl = demo_opts(p.strategy);
  rl.kind = p.kind;
  SolverOptions ll = rl;
  ll.scheduling = core::Scheduling::LeftLooking;

  Solver s1(rl), s2(ll);
  s1.factorize(a);
  s2.factorize(a);
  std::vector<real_t> x1(b.size()), x2(b.size());
  s1.solve(b.data(), x1.data());
  s2.solve(b.data(), x2.data());
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x1[i], x2[i], 1e-9);
  EXPECT_EQ(s1.stats().factor_entries_final, s2.stats().factor_entries_final);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyKernelGrid, LeftLookingSweep,
    ::testing::Values(SchedCase{Strategy::Dense, lr::CompressionKind::Rrqr},
                      SchedCase{Strategy::JustInTime, lr::CompressionKind::Rrqr},
                      SchedCase{Strategy::JustInTime, lr::CompressionKind::Svd},
                      SchedCase{Strategy::JustInTime, lr::CompressionKind::Randomized},
                      SchedCase{Strategy::MinimalMemory, lr::CompressionKind::Rrqr}),
    [](const auto& info) {
      std::string s = info.param.strategy == Strategy::Dense ? "Dense"
                      : info.param.strategy == Strategy::JustInTime ? "JIT"
                                                                    : "MinMem";
      s += core::kind_name(info.param.kind);
      return s;
    });

TEST(LeftLooking, MultiRhsAfterLeftLookingFactorization) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions o = demo_opts(Strategy::JustInTime);
  o.scheduling = core::Scheduling::LeftLooking;
  Solver solver(o);
  solver.factorize(a);
  const la::DMatrix b = random_rhs_block(a.rows(), 3, 15);
  la::DMatrix x(a.rows(), 3);
  solver.solve(b.cview(), x.view());
  EXPECT_LT(block_backward_error(a, x, b), 1e-6);
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

TEST(Trace, RecordsOneEventPerSupernode) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions o = demo_opts(Strategy::JustInTime);
  o.collect_trace = true;
  o.threads = 4;
  Solver solver(o);
  solver.factorize(a);
  const auto& tr = solver.trace();
  EXPECT_EQ(static_cast<index_t>(tr.size()), solver.stats().num_cblks);
  std::vector<char> seen(static_cast<std::size_t>(solver.stats().num_cblks), 0);
  for (const auto& e : tr) {
    EXPECT_GE(e.end, e.start);
    EXPECT_GE(e.start, 0.0);
    EXPECT_FALSE(seen[static_cast<std::size_t>(e.cblk)]) << "duplicate " << e.cblk;
    seen[static_cast<std::size_t>(e.cblk)] = 1;
  }
  // CSV round trip.
  const std::string path = ::testing::TempDir() + "blr_trace.csv";
  solver.write_trace_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "cblk,worker,start_s,end_s");
  index_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, solver.stats().num_cblks);
}

TEST(Trace, ParallelTraceCoversEveryCblkOnceWithoutWorkerOverlap) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions o = demo_opts(Strategy::JustInTime);
  o.collect_trace = true;
  o.threads = 4;
  Solver solver(o);
  solver.factorize(a);
  const auto& tr = solver.trace();

  // Every supernode appears exactly once, even though its updates ran as
  // separate Upd tasks.
  ASSERT_EQ(static_cast<index_t>(tr.size()), solver.stats().num_cblks);
  std::vector<char> seen(static_cast<std::size_t>(solver.stats().num_cblks), 0);
  std::map<std::size_t, std::vector<const core::TraceEvent*>> by_worker;
  for (const auto& e : tr) {
    EXPECT_GE(e.start, 0.0);
    EXPECT_GE(e.end, e.start);
    EXPECT_LT(e.worker, static_cast<std::size_t>(o.threads));
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.cblk)]) << "duplicate " << e.cblk;
    seen[static_cast<std::size_t>(e.cblk)] = 1;
    by_worker[e.worker].push_back(&e);
  }
  // A worker executes its elimination tasks serially, so its trace rows must
  // not overlap in time.
  for (auto& [worker, events] : by_worker) {
    std::sort(events.begin(), events.end(),
              [](const auto* x, const auto* y) { return x->start < y->start; });
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i]->start, events[i - 1]->end)
          << "worker " << worker << " events overlap";
    }
  }
}

// The same coverage and per-worker serialization invariants hold for the LU
// graph drain, whose Upd tasks also fill the U panels. (The name predates
// the single driver.)
TEST(Trace, DagParallelTraceCoversEveryCblkOnceWithoutWorkerOverlap) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions o = demo_opts(Strategy::JustInTime);
  o.collect_trace = true;
  o.threads = 4;
  o.factorization = Factorization::Lu;
  Solver solver(o);
  solver.factorize(a);
  const auto& tr = solver.trace();

  ASSERT_EQ(static_cast<index_t>(tr.size()), solver.stats().num_cblks);
  std::vector<char> seen(static_cast<std::size_t>(solver.stats().num_cblks), 0);
  std::map<std::size_t, std::vector<const core::TraceEvent*>> by_worker;
  for (const auto& e : tr) {
    EXPECT_GE(e.start, 0.0);
    EXPECT_GE(e.end, e.start);
    EXPECT_LT(e.worker, static_cast<std::size_t>(o.threads));
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.cblk)]) << "duplicate " << e.cblk;
    seen[static_cast<std::size_t>(e.cblk)] = 1;
    by_worker[e.worker].push_back(&e);
  }
  for (auto& [worker, events] : by_worker) {
    std::sort(events.begin(), events.end(),
              [](const auto* x, const auto* y) { return x->start < y->start; });
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i]->start, events[i - 1]->end)
          << "worker " << worker << " events overlap";
    }
  }
}

TEST(Trace, DisabledByDefaultAndLeftLookingWorks) {
  const CscMatrix a = sparse::laplacian_2d(10, 10);
  Solver s1(demo_opts(Strategy::Dense));
  s1.factorize(a);
  EXPECT_TRUE(s1.trace().empty());

  SolverOptions o = demo_opts(Strategy::Dense);
  o.collect_trace = true;
  o.scheduling = core::Scheduling::LeftLooking;
  Solver s2(o);
  s2.factorize(a);
  EXPECT_EQ(static_cast<index_t>(s2.trace().size()), s2.stats().num_cblks);
  // Left-looking is sequential: events must be ordered by supernode.
  for (std::size_t i = 1; i < s2.trace().size(); ++i)
    EXPECT_LT(s2.trace()[i - 1].cblk, s2.trace()[i].cblk);
}

} // namespace
