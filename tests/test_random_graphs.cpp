// Robustness sweep on non-mesh matrices: random sparse symmetric-pattern
// graphs stress the ordering (irregular separators, dense-ish rows,
// disconnected pieces) and the full pipeline far from the paper's regular
// 3D grids.

#include <gtest/gtest.h>

#include "blr.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;
using sparse::Triplet;

using blr::fixtures::random_pattern_matrix;

class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphSweep, FullPipelineSolves) {
  const std::uint64_t seed = GetParam();
  const CscMatrix a = random_pattern_matrix(600, 8, seed);
  ASSERT_TRUE(a.pattern_symmetric());

  for (const Strategy strat :
       {Strategy::Dense, Strategy::JustInTime, Strategy::MinimalMemory}) {
    SolverOptions opts;
    opts.strategy = strat;
    opts.tolerance = 1e-8;
    opts.compress_min_width = 16;
    opts.compress_min_height = 8;
    opts.split.split_threshold = 64;
    opts.split.split_size = 32;
    Solver solver(opts);
    solver.factorize(a);

    Prng rng(seed + 1);
    std::vector<real_t> b(static_cast<std::size_t>(a.rows()));
    for (auto& v : b) v = rng.normal();
    std::vector<real_t> x(b.size());
    solver.solve(b.data(), x.data());
    EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5)
        << "seed " << seed << " strategy " << static_cast<int>(strat);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(11, 29, 47, 83, 131, 977));

TEST(RandomGraph, DisconnectedComponentsSolve) {
  // Two disconnected random blobs plus isolated vertices.
  Prng rng(3);
  std::vector<Triplet> t;
  const index_t half = 150;
  for (int blob = 0; blob < 2; ++blob) {
    const index_t base = blob * half;
    for (index_t e = 0; e < 600; ++e) {
      const auto i = base + static_cast<index_t>(rng.below(half));
      const auto j = base + static_cast<index_t>(rng.below(half));
      if (i == j) continue;
      const real_t v = rng.normal();
      t.push_back({i, j, v});
      t.push_back({j, i, v});
    }
  }
  const index_t n = 2 * half + 5;  // 5 isolated vertices
  for (index_t i = 0; i < n; ++i) t.push_back({i, i, 50.0});
  const CscMatrix a = CscMatrix::from_triplets(n, n, std::move(t));

  SolverOptions opts;
  opts.strategy = Strategy::JustInTime;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  Solver solver(opts);
  solver.factorize(a);
  std::vector<real_t> b(static_cast<std::size_t>(n), 1.0);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-8);
}

TEST(RandomGraph, AsymmetricPatternRejectedUpFront) {
  const CscMatrix a =
      CscMatrix::from_triplets(4, 4, {{0, 0, 4.0}, {1, 1, 4.0}, {2, 2, 4.0},
                                      {3, 3, 4.0}, {0, 2, 1.0}});  // no (2,0)
  Solver solver{SolverOptions{}};
  EXPECT_THROW(solver.analyze(a), Error);
}

TEST(RandomGraph, DenseRowHubVertex) {
  // A hub connected to everything produces one huge separator vertex.
  Prng rng(9);
  std::vector<Triplet> t;
  const index_t n = 200;
  for (index_t i = 1; i < n; ++i) {
    t.push_back({0, i, -1.0});
    t.push_back({i, 0, -1.0});
    if (i + 1 < n) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  for (index_t i = 0; i < n; ++i) t.push_back({i, i, static_cast<real_t>(n)});
  const CscMatrix a = CscMatrix::from_triplets(n, n, std::move(t), sparse::Symmetry::Spd);

  Solver solver{SolverOptions{}};
  solver.factorize(a);
  std::vector<real_t> b(static_cast<std::size_t>(n), 1.0);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-10);
}

} // namespace
