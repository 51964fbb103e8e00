// Tests of the analysis phase: the plan (ordering, supernode partition,
// block symbolic structure) is a pure function of the pattern and the
// options — the same at every thread count and pinned against drift — and
// the tree-model amalgamation decides exactly like a rebuild of the block
// structure on every pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blr.hpp"
#include "graph_fixtures.hpp"
#include "symbolic/amalgamation.hpp"

namespace {

using namespace blr;
using core::SolverOptions;
using core::SymbolicPlan;
using sparse::CscMatrix;

/// FNV-1a over perm, iperm, ranges and every cblk (columns, parent, bloks).
std::uint64_t fingerprint(const SymbolicPlan& p) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](index_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ull;
  };
  for (const index_t v : p.ord.perm) mix(v);
  for (const index_t v : p.ord.iperm) mix(v);
  for (const index_t v : p.ord.ranges) mix(v);
  for (const symbolic::Cblk& c : p.sf.cblks()) {
    mix(c.fcol);
    mix(c.lcol);
    mix(c.parent);
    for (const symbolic::Blok& b : c.bloks) {
      mix(b.frow);
      mix(b.lrow);
      mix(b.fcblk);
    }
  }
  return h;
}

std::shared_ptr<const SymbolicPlan> analyze(const CscMatrix& a, SolverOptions opts,
                                            int threads) {
  opts.threads = threads;
  core::Solver solver(opts);
  solver.analyze(a);
  return solver.plan();
}

void expect_same_plan(const SymbolicPlan& ref, const SymbolicPlan& p,
                      const std::string& where) {
  EXPECT_EQ(ref.ord.perm, p.ord.perm) << where;
  EXPECT_EQ(ref.ord.iperm, p.ord.iperm) << where;
  EXPECT_EQ(ref.ord.ranges, p.ord.ranges) << where;
  ASSERT_EQ(ref.sf.num_cblks(), p.sf.num_cblks()) << where;
  for (index_t k = 0; k < ref.sf.num_cblks(); ++k) {
    const symbolic::Cblk& rc = ref.sf.cblk(k);
    const symbolic::Cblk& c = p.sf.cblk(k);
    ASSERT_EQ(rc.fcol, c.fcol) << where << " cblk " << k;
    ASSERT_EQ(rc.lcol, c.lcol) << where << " cblk " << k;
    ASSERT_EQ(rc.parent, c.parent) << where << " cblk " << k;
    ASSERT_EQ(rc.bloks.size(), c.bloks.size()) << where << " cblk " << k;
    for (std::size_t b = 0; b < c.bloks.size(); ++b) {
      ASSERT_EQ(rc.bloks[b].frow, c.bloks[b].frow) << where << " cblk " << k;
      ASSERT_EQ(rc.bloks[b].lrow, c.bloks[b].lrow) << where << " cblk " << k;
      ASSERT_EQ(rc.bloks[b].fcblk, c.bloks[b].fcblk) << where << " cblk " << k;
    }
  }
}

/// The analysis options of the bench/e2e conv-diff MinMem LU workload.
SolverOptions minmem_split_opts() {
  SolverOptions o;
  o.split.split_threshold = 128;
  o.split.split_size = 64;
  return o;
}

TEST(AnalysisDeterminism, PlanIndependentOfThreads) {
  // Every input is larger than the nested-dissection fork floor, so the
  // pooled runs really split parts (and components) across workers.
  struct Case {
    std::string name;
    CscMatrix a;
    SolverOptions opts;
  };
  std::vector<Case> cases;
  cases.push_back({"laplacian_3d(20)", sparse::laplacian_3d(20, 20, 20), {}});
  cases.push_back({"convection_diffusion_3d(18)",
                   sparse::convection_diffusion_3d(18, 18, 18, 0.5), minmem_split_opts()});
  cases.push_back({"heterogeneous_poisson_3d(16)",
                   sparse::heterogeneous_poisson_3d(16, 16, 16, 4.0, 7), {}});
  cases.push_back({"laplacian_2d(70)", sparse::laplacian_2d(70, 70), {}});
  cases.push_back({"two_disjoint_grids(50)", fixtures::two_disjoint_grids(50, 50), {}});
  cases.push_back({"random_pattern(3000)", fixtures::random_pattern_matrix(3000, 4, 11), {}});
  for (const Case& c : cases) {
    const auto ref = analyze(c.a, c.opts, 1);
    for (const int threads : {2, 4, 8}) {
      expect_same_plan(*ref, *analyze(c.a, c.opts, threads),
                       c.name + " at " + std::to_string(threads) + " threads");
    }
  }

  // Pinned fingerprints: a change to the ordering, the amalgamation or the
  // symbolic structure shows here even when it is thread-independent.
  for (const int threads : {1, 4}) {
    EXPECT_EQ(fingerprint(*analyze(sparse::laplacian_3d(16, 16, 16), {}, threads)),
              0xd9a3b6ab0b929b71ull)
        << threads;
    EXPECT_EQ(fingerprint(*analyze(sparse::convection_diffusion_3d(16, 16, 16, 0.5),
                                   minmem_split_opts(), threads)),
              0xa9b6b45e6e188b6bull)
        << threads;
  }
}

/// Reference amalgamation: the greedy passes deciding from a fresh build of
/// the block structure on every pass (the tree model in amalgamation.cpp
/// must reproduce its output exactly).
std::vector<index_t> amalgamate_by_rebuild(const CscMatrix& a, const ordering::Ordering& ord,
                                           std::vector<index_t> ranges,
                                           const symbolic::AmalgamationOptions& opts) {
  if (ranges.size() <= 2) return ranges;
  const symbolic::SymbolicFactor sf0 = symbolic::SymbolicFactor::build(a, ord, ranges);
  const double budget = opts.frat * static_cast<double>(sf0.factor_entries_lower());
  double spent = 0;
  for (int pass = 0; pass < opts.max_passes; ++pass) {
    const symbolic::SymbolicFactor sf = symbolic::SymbolicFactor::build(a, ord, ranges);
    const index_t ncblk = sf.num_cblks();
    std::vector<char> merged_into_next(static_cast<std::size_t>(ncblk), 0);
    bool any = false;
    for (index_t k = 0; k + 1 < ncblk; ++k) {
      if (merged_into_next[static_cast<std::size_t>(k)]) continue;
      const symbolic::Cblk& c = sf.cblk(k);
      if (c.parent != k + 1) continue;
      if (c.width() >= opts.min_width) continue;
      const symbolic::Cblk& p = sf.cblk(c.parent);
      const double wc = static_cast<double>(c.width());
      const double wp = static_cast<double>(p.width());
      const double hc = static_cast<double>(c.height());
      const double hp = static_cast<double>(p.height());
      const double added = wc * (2 * wp + hp - hc);
      if (spent + added > budget) continue;
      spent += added;
      merged_into_next[static_cast<std::size_t>(k)] = 1;
      if (k + 2 < ncblk) merged_into_next[static_cast<std::size_t>(k + 1)] = 1;
      any = true;
      ranges.erase(std::find(ranges.begin(), ranges.end(), c.lcol));
    }
    if (!any) break;
  }
  return ranges;
}

TEST(Amalgamation, TreeModelMatchesRebuild) {
  struct Case {
    std::string name;
    CscMatrix a;
  };
  std::vector<Case> cases;
  cases.push_back({"laplacian_3d(12)", sparse::laplacian_3d(12, 12, 12)});
  cases.push_back({"laplacian_2d(40)", sparse::laplacian_2d(40, 40)});
  cases.push_back({"elasticity_3d(5)", sparse::elasticity_3d(5, 5, 5)});
  cases.push_back({"random_pattern(800)", fixtures::random_pattern_matrix(800, 6, 29)});
  for (const Case& c : cases) {
    const auto ord = ordering::nested_dissection(sparse::Graph::from_matrix(c.a));
    for (const double frat : {0.0, 0.08, 0.5}) {
      for (const index_t min_width : {16, 64}) {
        symbolic::AmalgamationOptions o;
        o.frat = frat;
        o.min_width = min_width;
        const auto ref = amalgamate_by_rebuild(c.a, ord, ord.ranges, o);
        EXPECT_EQ(symbolic::amalgamate(c.a, ord, ord.ranges, o), ref)
            << c.name << " frat " << frat << " min_width " << min_width;
        // Guard against a vacuous comparison: a generous budget merges.
        if (frat == 0.5) EXPECT_LT(ref.size(), ord.ranges.size()) << c.name;
      }
    }
  }
}

} // namespace
