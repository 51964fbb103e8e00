// Tests of the static-pivoting path (PaStiX-style): the dense kernel's
// pivot replacement and the solver-level behaviour on nearly singular
// systems, where iterative refinement absorbs the perturbation.

#include <gtest/gtest.h>

#include <sstream>

#include "blr.hpp"
#include "linalg/factorizations.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

TEST(GetrfStatic, ReplacesTinyPivotsAndCompletes) {
  // Singular matrix: classic getrf reports breakdown, the static variant
  // perturbs and finishes.
  la::DMatrix a(3, 3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) a(i, j) = static_cast<real_t>(i + 1);  // rank 1
  la::DMatrix b = a;
  std::vector<index_t> ipiv;
  EXPECT_GT(la::getrf(b.view(), ipiv), 0);

  index_t replaced = 0;
  la::getrf_static(a.view(), ipiv, real_t(1e-8), replaced);
  EXPECT_EQ(replaced, 2);  // two zero pivots after the first elimination
  for (index_t i = 0; i < 3; ++i) EXPECT_NE(a(i, i), 0.0);
}

TEST(GetrfStatic, NoReplacementOnWellConditionedMatrix) {
  Prng rng(5);
  la::DMatrix a = la::random_diagdom(20, rng);
  const la::DMatrix a0 = a;
  std::vector<index_t> ipiv;
  index_t replaced = 0;
  la::getrf_static(a.view(), ipiv, real_t(1e-10), replaced);
  EXPECT_EQ(replaced, 0);

  // Must agree exactly with plain getrf.
  la::DMatrix b = a0;
  std::vector<index_t> ipiv2;
  ASSERT_EQ(la::getrf(b.view(), ipiv2), 0);
  EXPECT_EQ(ipiv, ipiv2);
  EXPECT_EQ(la::diff_fro(a.cview(), b.cview()), 0.0);
}

CscMatrix nearly_singular_grid() {
  // Pure Neumann-like operator: the graph Laplacian without any diagonal
  // shift is exactly singular (constant null vector).
  const CscMatrix lap = sparse::laplacian_2d(8, 8);
  std::vector<sparse::Triplet> t;
  const auto& cp = lap.colptr();
  const auto& ri = lap.rowind();
  const auto& v = lap.values();
  for (index_t j = 0; j < lap.cols(); ++j) {
    for (index_t p = cp[static_cast<std::size_t>(j)];
         p < cp[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = ri[static_cast<std::size_t>(p)];
      real_t val = v[static_cast<std::size_t>(p)];
      if (i == j) {
        // Row sum becomes exactly zero: subtract the boundary deficit.
        real_t offsum = 0;
        for (index_t q = cp[static_cast<std::size_t>(j)];
             q < cp[static_cast<std::size_t>(j) + 1]; ++q) {
          if (ri[static_cast<std::size_t>(q)] != j)
            offsum += v[static_cast<std::size_t>(q)];
        }
        val = -offsum;
      }
      t.push_back({i, j, val});
    }
  }
  auto m = CscMatrix::from_triplets(lap.rows(), lap.cols(), std::move(t),
                                    sparse::Symmetry::General);
  return m;
}

TEST(StaticPivoting, SingularSystemFactorsWithThreshold) {
  const CscMatrix a = nearly_singular_grid();
  SolverOptions opts;
  opts.strategy = Strategy::Dense;
  opts.factorization = Factorization::Lu;

  // With static pivoting the factorization completes and reports the
  // replacement. (Without it, the exactly singular operator either aborts
  // on a zero pivot or sails through on a rounding-level one — both are
  // admissible, so only the static path is asserted.)
  opts.pivot_threshold = 1e-12;
  Solver s(opts);
  s.factorize(a);
  EXPECT_GE(s.stats().pivots_replaced, 1);

  // A compatible right-hand side (b orthogonal to the null space) is solved
  // to good accuracy after refinement.
  std::vector<real_t> xstar(static_cast<std::size_t>(a.rows()));
  Prng rng(3);
  real_t mean = 0;
  for (auto& v : xstar) {
    v = rng.normal();
    mean += v;
  }
  mean /= static_cast<real_t>(xstar.size());
  for (auto& v : xstar) v -= mean;  // zero-mean exact solution
  std::vector<real_t> b(xstar.size());
  a.spmv(xstar.data(), b.data());
  std::vector<real_t> x(b.size());
  s.solve(b.data(), x.data());
  RefinementOptions ropts;
  ropts.max_iterations = 30;
  ropts.target = 1e-10;
  const auto res = s.refine(a, b.data(), x.data(), ropts);
  EXPECT_LT(res.final_error(), 1e-8);
}

TEST(StaticPivoting, SummaryMentionsReplacedPivots) {
  const CscMatrix a = nearly_singular_grid();
  SolverOptions opts;
  opts.strategy = Strategy::Dense;
  opts.factorization = Factorization::Lu;
  opts.pivot_threshold = 1e-12;
  Solver s(opts);
  s.factorize(a);
  std::ostringstream os;
  s.print_summary(os);
  EXPECT_NE(os.str().find("static pivots"), std::string::npos);
  EXPECT_NE(os.str().find("LU"), std::string::npos);
}

TEST(PrintSummary, WorksAtEveryStage) {
  Solver s{SolverOptions{}};
  std::ostringstream o1;
  s.print_summary(o1);
  EXPECT_NE(o1.str().find("not analyzed"), std::string::npos);

  const CscMatrix a = sparse::laplacian_2d(6, 6);
  s.analyze(a);
  std::ostringstream o2;
  s.print_summary(o2);
  EXPECT_NE(o2.str().find("not factorized"), std::string::npos);

  s.factorize(a);
  std::ostringstream o3;
  s.print_summary(o3);
  EXPECT_NE(o3.str().find("factors"), std::string::npos);
}

} // namespace
