// Matrices on irregular patterns shared by the ordering, analysis and
// random-graph tests.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "sparse/csc.hpp"
#include "sparse/generators.hpp"

namespace blr::fixtures {

/// Random diagonally dominant matrix on a random symmetric pattern with
/// about `avg_degree` off-diagonals per row (plus a guaranteed Hamiltonian
/// path so the graph is connected unless `connect` is false).
inline sparse::CscMatrix random_pattern_matrix(index_t n, index_t avg_degree,
                                               std::uint64_t seed, bool connect = true) {
  Prng rng(seed);
  std::vector<sparse::Triplet> t;
  const index_t edges = n * avg_degree / 2;
  for (index_t e = 0; e < edges; ++e) {
    const auto i = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto j = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    if (i == j) continue;
    const real_t v = rng.normal();
    t.push_back({i, j, v});
    t.push_back({j, i, v});
  }
  if (connect) {
    for (index_t i = 0; i + 1 < n; ++i) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  // Strong diagonal keeps LU robust without global pivoting.
  for (index_t i = 0; i < n; ++i)
    t.push_back({i, i, static_cast<real_t>(4 * avg_degree) + 10.0});
  return sparse::CscMatrix::from_triplets(n, n, std::move(t), sparse::Symmetry::General);
}

/// Two disjoint copies of the nx-by-ny 2D Laplacian: a disconnected graph.
inline sparse::CscMatrix two_disjoint_grids(index_t nx, index_t ny) {
  const sparse::CscMatrix g1 = sparse::laplacian_2d(nx, ny);
  std::vector<sparse::Triplet> t;
  const index_t n1 = g1.rows();
  for (index_t j = 0; j < n1; ++j) {
    for (index_t p = g1.colptr()[static_cast<std::size_t>(j)];
         p < g1.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = g1.rowind()[static_cast<std::size_t>(p)];
      const real_t v = g1.values()[static_cast<std::size_t>(p)];
      t.push_back({i, j, v});
      t.push_back({i + n1, j + n1, v});
    }
  }
  return sparse::CscMatrix::from_triplets(2 * n1, 2 * n1, std::move(t));
}

} // namespace blr::fixtures
