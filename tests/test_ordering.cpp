// Tests of the nested-dissection ordering: permutation validity, separator
// correctness, supernode partition structure and fill reduction.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph_fixtures.hpp"
#include "ordering/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/graph.hpp"
#include "symbolic/symbolic.hpp"

namespace {

using namespace blr;
using namespace blr::ordering;
using sparse::CscMatrix;
using sparse::Graph;

void expect_valid_ordering(const Ordering& ord, index_t n) {
  ASSERT_EQ(static_cast<index_t>(ord.perm.size()), n);
  ASSERT_EQ(static_cast<index_t>(ord.iperm.size()), n);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const index_t p : ord.perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = 1;
  }
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(ord.iperm[static_cast<std::size_t>(ord.perm[static_cast<std::size_t>(i)])], i);
  // Ranges partition [0, n).
  ASSERT_GE(ord.ranges.size(), 2u);
  EXPECT_EQ(ord.ranges.front(), 0);
  EXPECT_EQ(ord.ranges.back(), n);
  for (std::size_t s = 1; s < ord.ranges.size(); ++s)
    EXPECT_LT(ord.ranges[s - 1], ord.ranges[s]);
}

TEST(NestedDissection, ValidPermutationOn3dGrid) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const Graph g = Graph::from_matrix(a);
  const Ordering ord = nested_dissection(g);
  expect_valid_ordering(ord, a.rows());
  EXPECT_GT(ord.num_supernodes(), 1);
}

TEST(NestedDissection, ValidOnDisconnectedGraph) {
  const CscMatrix a = blr::fixtures::two_disjoint_grids(6, 6);
  const Ordering ord = nested_dissection(Graph::from_matrix(a));
  expect_valid_ordering(ord, a.rows());
}

TEST(NestedDissection, TinyGraphsBecomeSingleSupernode) {
  const CscMatrix a = sparse::laplacian_2d(3, 3);
  NdOptions opts;
  opts.cmin = 100;  // bigger than the graph
  const Ordering ord = nested_dissection(Graph::from_matrix(a), opts);
  expect_valid_ordering(ord, 9);
  EXPECT_EQ(ord.num_supernodes(), 1);
}

TEST(FindSeparator, SeparatesGridIntoBalancedParts) {
  const CscMatrix a = sparse::laplacian_2d(16, 16);
  const Graph g = Graph::from_matrix(a);
  const Separator sep = find_separator(g, NdOptions{});
  ASSERT_FALSE(sep.a.empty());
  ASSERT_FALSE(sep.b.empty());
  ASSERT_FALSE(sep.s.empty());
  EXPECT_EQ(sep.a.size() + sep.b.size() + sep.s.size(),
            static_cast<std::size_t>(g.num_vertices()));

  // No edge may connect A and B (the defining property).
  std::vector<char> side(static_cast<std::size_t>(g.num_vertices()), 2);
  for (const index_t v : sep.a) side[static_cast<std::size_t>(v)] = 0;
  for (const index_t v : sep.b) side[static_cast<std::size_t>(v)] = 1;
  for (const index_t v : sep.a) {
    for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u)
      EXPECT_NE(side[static_cast<std::size_t>(*u)], 1)
          << "edge between parts: " << v << " - " << *u;
  }
  // On a 16x16 grid the separator should be close to one grid line.
  EXPECT_LE(sep.s.size(), 40u);
  // Reasonable balance.
  EXPECT_GT(std::min(sep.a.size(), sep.b.size()), 40u);
}

TEST(FindSeparator, PathGraphSeparatorIsOneVertex) {
  // Path of 31 vertices.
  std::vector<sparse::Triplet> t;
  for (index_t i = 0; i + 1 < 31; ++i) {
    t.push_back({i, i + 1, 1.0});
    t.push_back({i + 1, i, 1.0});
  }
  for (index_t i = 0; i < 31; ++i) t.push_back({i, i, 4.0});
  const CscMatrix a = CscMatrix::from_triplets(31, 31, std::move(t));
  const Separator sep = find_separator(Graph::from_matrix(a), NdOptions{});
  EXPECT_EQ(sep.s.size(), 1u);
}

TEST(NestedDissection, ReducesFillVersusNaturalOrder) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const Graph g = Graph::from_matrix(a);
  const Ordering nd = nested_dissection(g);
  const Ordering nat = natural_order(a.rows(), 32);

  symbolic::SplitOptions split;
  const auto sf_nd = symbolic::SymbolicFactor::build(
      a, nd, symbolic::split_ranges(nd.ranges, split));
  const auto sf_nat = symbolic::SymbolicFactor::build(
      a, nat, symbolic::split_ranges(nat.ranges, split));
  EXPECT_LT(sf_nd.factor_entries_lower(), sf_nat.factor_entries_lower());
}

TEST(NaturalOrder, ChunkedRanges) {
  const Ordering ord = natural_order(10, 4);
  expect_valid_ordering(ord, 10);
  EXPECT_EQ(ord.num_supernodes(), 3);  // 4 + 4 + 2
  EXPECT_EQ(ord.supernode_size(2), 2);
}

TEST(NestedDissection, SeparatorsComeAfterSubdomains) {
  // The last supernode must be the top separator: its vertices disconnect
  // the rest of the graph.
  const CscMatrix a = sparse::laplacian_2d(12, 12);
  const Graph g = Graph::from_matrix(a);
  const Ordering ord = nested_dissection(g);
  const index_t ns = ord.num_supernodes();
  const index_t last_begin = ord.ranges[static_cast<std::size_t>(ns) - 1];
  // Remove last supernode's vertices; the remainder must be disconnected
  // (or the last supernode is the whole graph, which would be wrong here).
  ASSERT_LT(last_begin, a.rows());
  std::vector<index_t> rest(ord.perm.begin(), ord.perm.begin() + last_begin);
  ASSERT_FALSE(rest.empty());
  const Graph sub = g.induced(rest);
  const auto [comp, ncomp] = sub.connected_components();
  (void)comp;
  EXPECT_GE(ncomp, 2);
}

TEST(FindSeparator, FmRefinementNeverWorsensSeparator) {
  // Property over several graph families: FM refinement keeps the vertex
  // separator valid and at most as large as the unrefined one.
  std::vector<CscMatrix> cases;
  cases.push_back(sparse::laplacian_2d(15, 15));
  cases.push_back(sparse::laplacian_3d(7, 7, 7));
  cases.push_back(sparse::laplacian_2d(45, 6));  // elongated
  cases.push_back(sparse::elasticity_3d(4, 4, 4));
  for (const auto& a : cases) {
    const Graph g = Graph::from_matrix(a);
    NdOptions off;
    off.fm_passes = 0;
    NdOptions on;
    on.fm_passes = 6;
    const Separator s0 = find_separator(g, off);
    const Separator s1 = find_separator(g, on);
    EXPECT_LE(s1.s.size(), s0.s.size());
    // Validity: no A-B edge.
    std::vector<char> side(static_cast<std::size_t>(g.num_vertices()), 2);
    for (const index_t v : s1.a) side[static_cast<std::size_t>(v)] = 0;
    for (const index_t v : s1.b) side[static_cast<std::size_t>(v)] = 1;
    for (const index_t v : s1.a) {
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u)
        ASSERT_NE(side[static_cast<std::size_t>(*u)], 1);
    }
    EXPECT_EQ(s1.a.size() + s1.b.size() + s1.s.size(),
              static_cast<std::size_t>(g.num_vertices()));
  }
}

} // namespace
