// Tests of the sparse substrate: CSC assembly/queries, SpMV, transpose,
// permutation, the adjacency graph, and Matrix Market I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "common/prng.hpp"
#include "sparse/csc.hpp"
#include "sparse/graph.hpp"
#include "sparse/mm_io.hpp"

namespace {

using namespace blr;
using namespace blr::sparse;

CscMatrix small_matrix() {
  // [ 4 0 1 ]
  // [ 0 3 0 ]
  // [ 1 0 5 ]
  return CscMatrix::from_triplets(
      3, 3, {{0, 0, 4}, {1, 1, 3}, {2, 2, 5}, {0, 2, 1}, {2, 0, 1}});
}

TEST(Csc, FromTripletsSortsAndSums) {
  const CscMatrix m = CscMatrix::from_triplets(
      2, 2, {{1, 0, 1.5}, {0, 0, 2.0}, {1, 0, 0.5}});  // duplicate (1,0)
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Csc, RowIndicesSortedWithinColumns) {
  Prng rng(5);
  std::vector<Triplet> t;
  for (int i = 0; i < 200; ++i) {
    t.push_back({static_cast<index_t>(rng.below(30)),
                 static_cast<index_t>(rng.below(30)), rng.normal()});
  }
  const CscMatrix m = CscMatrix::from_triplets(30, 30, std::move(t));
  for (index_t j = 0; j < 30; ++j) {
    for (index_t p = m.colptr()[static_cast<std::size_t>(j)] + 1;
         p < m.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      EXPECT_LT(m.rowind()[static_cast<std::size_t>(p - 1)],
                m.rowind()[static_cast<std::size_t>(p)]);
    }
  }
}

TEST(Csc, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(CscMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(CscMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), Error);
}

TEST(Csc, SpmvMatchesDense) {
  const CscMatrix m = small_matrix();
  const std::vector<real_t> x{1, 2, 3};
  std::vector<real_t> y(3);
  m.spmv(x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 4 * 1 + 1 * 3);
  EXPECT_DOUBLE_EQ(y[1], 3 * 2);
  EXPECT_DOUBLE_EQ(y[2], 1 * 1 + 5 * 3);

  std::vector<real_t> yt(3);
  m.spmv(x.data(), yt.data(), /*transpose=*/true);
  EXPECT_DOUBLE_EQ(yt[0], 4 * 1 + 1 * 3);  // symmetric here
}

TEST(Csc, TransposedSwapsPattern) {
  const CscMatrix m = CscMatrix::from_triplets(2, 3, {{0, 2, 7}, {1, 0, 3}});
  const CscMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 7);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 3);
  EXPECT_EQ(t.nnz(), 2);
}

TEST(Csc, PatternSymmetryDetection) {
  EXPECT_TRUE(small_matrix().pattern_symmetric());
  const CscMatrix asym = CscMatrix::from_triplets(2, 2, {{0, 0, 1}, {0, 1, 1}, {1, 1, 1}});
  EXPECT_FALSE(asym.pattern_symmetric());
}

TEST(Csc, PermutedIsPApt) {
  const CscMatrix m = small_matrix();
  const std::vector<index_t> perm{2, 0, 1};  // perm[new] = old
  const CscMatrix p = m.permuted(perm);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(p.at(i, j),
                       m.at(perm[static_cast<std::size_t>(i)],
                            perm[static_cast<std::size_t>(j)]));
}

/// P·A·Pᵗ built the way permuted() used to: renumbered triplets through
/// from_triplets' sort.
CscMatrix permuted_by_triplets(const CscMatrix& m, const std::vector<index_t>& perm) {
  std::vector<index_t> iperm(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k)
    iperm[static_cast<std::size_t>(perm[k])] = static_cast<index_t>(k);
  std::vector<Triplet> trip;
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t p = m.colptr()[static_cast<std::size_t>(j)];
         p < m.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      trip.push_back({iperm[static_cast<std::size_t>(m.rowind()[static_cast<std::size_t>(p)])],
                      iperm[static_cast<std::size_t>(j)],
                      m.values()[static_cast<std::size_t>(p)]});
    }
  }
  return CscMatrix::from_triplets(m.rows(), m.cols(), std::move(trip), m.symmetry());
}

// permuted() copies and re-sorts columns instead of sorting triplets; the
// result is the same matrix, array for array: identity and reversed
// permutations, random ones, empty columns, and nonsymmetric patterns.
TEST(Csc, PermutedMatchesTripletConstruction) {
  Prng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const index_t n = 1 + static_cast<index_t>(rng.next_u64() % 60);
    std::vector<Triplet> trip;
    for (index_t j = 0; j < n; ++j) {
      if (j % 5 == 3) continue;  // an empty column (and row, if symmetric)
      const bool symmetric = trial % 2 == 0;
      trip.push_back({j, j, 4.0 + rng.uniform()});
      const int extra = static_cast<int>(rng.next_u64() % 6);
      for (int e = 0; e < extra; ++e) {
        const index_t i = static_cast<index_t>(rng.next_u64() % static_cast<std::uint64_t>(n));
        if (i % 5 == 3) continue;
        trip.push_back({i, j, rng.normal()});
        if (symmetric) trip.push_back({j, i, rng.normal()});
      }
    }
    const CscMatrix m = CscMatrix::from_triplets(n, n, trip);
    std::vector<index_t> identity(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) identity[static_cast<std::size_t>(i)] = i;
    std::vector<index_t> reversed(identity.rbegin(), identity.rend());
    std::vector<index_t> shuffled = identity;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.next_u64() % i]);
    for (const auto* perm : {&identity, &reversed, &shuffled}) {
      const CscMatrix got = m.permuted(*perm);
      const CscMatrix want = permuted_by_triplets(m, *perm);
      EXPECT_EQ(got.colptr(), want.colptr()) << "trial " << trial;
      EXPECT_EQ(got.rowind(), want.rowind()) << "trial " << trial;
      EXPECT_EQ(got.values(), want.values()) << "trial " << trial;
      EXPECT_EQ(got.symmetry(), want.symmetry());
    }
  }
}

TEST(Csc, ToDenseAndNorm) {
  const CscMatrix m = small_matrix();
  const la::DMatrix d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_NEAR(m.norm_fro(), std::sqrt(16 + 9 + 25 + 1 + 1.0), 1e-14);
}

TEST(Csc, BackwardErrorZeroForExactSolution) {
  const CscMatrix m = small_matrix();
  // b = A·[1,1,1]
  std::vector<real_t> x{1, 1, 1};
  std::vector<real_t> b(3);
  m.spmv(x.data(), b.data());
  EXPECT_LT(backward_error(m, x.data(), b.data()), 1e-15);
  x[0] += 0.5;
  EXPECT_GT(backward_error(m, x.data(), b.data()), 0.1);
}

TEST(Graph, FromMatrixSymmetrizesAndDropsDiagonal) {
  const CscMatrix asym = CscMatrix::from_triplets(
      3, 3, {{0, 0, 1}, {0, 1, 1}, {2, 1, 1}});
  const Graph g = Graph::from_matrix(asym);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);  // (0,1), (1,2)
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, InducedSubgraphRemapsIndices) {
  // Path 0-1-2-3.
  const CscMatrix m = CscMatrix::from_triplets(
      4, 4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
  const Graph g = Graph::from_matrix(m);
  const Graph sub = g.induced({1, 2, 3});
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.degree(0), 1);  // vertex 1 connects to 2 only inside subset
  EXPECT_EQ(sub.degree(1), 2);
}

TEST(Graph, ConnectedComponents) {
  const CscMatrix m = CscMatrix::from_triplets(
      5, 5, {{0, 1, 1}, {2, 3, 1}});
  const Graph g = Graph::from_matrix(m);
  const auto [comp, n] = g.connected_components();
  EXPECT_EQ(n, 3);  // {0,1}, {2,3}, {4}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
}

TEST(MatrixMarket, RoundTripGeneral) {
  const CscMatrix m = small_matrix();
  std::stringstream ss;
  write_matrix_market(m, ss);
  const CscMatrix r = read_matrix_market(ss);
  EXPECT_EQ(r.rows(), 3);
  EXPECT_EQ(r.nnz(), m.nnz());
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(r.at(i, j), m.at(i, j));
}

TEST(MatrixMarket, SymmetricStorageExpands) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "3 3 3\n"
     << "1 1 2.0\n"
     << "3 1 -1.0\n"
     << "3 3 4.0\n";
  const CscMatrix m = read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 4);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(m.at(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
  EXPECT_EQ(m.symmetry(), Symmetry::SymmetricValues);
}

TEST(MatrixMarket, PatternField) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 2\n"
     << "1 1\n"
     << "2 2\n";
  const CscMatrix m = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 1.0);
}

TEST(MatrixMarket, RejectsBadHeader) {
  std::stringstream ss;
  ss << "%%NotMatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(MatrixMarket, RejectsTruncatedData) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}


TEST(MatrixMarket, TruncatedHeaderNamesTheProblem) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n% only comments\n";
  try {
    read_matrix_market(ss);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("size line"), std::string::npos);
  }
}

TEST(MatrixMarket, NegativeEntryCountIsRejected) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n2 2 -3\n";
  try {
    read_matrix_market(ss);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(MatrixMarket, OverflowingEntryCountIsRejected) {
  std::stringstream ss;
  // 2^80: overflows long long, operator>> sets failbit instead of wrapping.
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "2 2 1208925819614629174706176\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(MatrixMarket, EntryCountBeyondDenseCapacityIsRejected) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n2 2 5\n"
     << "1 1 1.0\n1 2 1.0\n2 1 1.0\n2 2 1.0\n1 1 1.0\n";
  try {
    read_matrix_market(ss);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds rows x cols"), std::string::npos);
  }
}

TEST(MatrixMarket, OutOfRangeIndexNamesTheLine) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
     << "1 1 1.0\n7 2 1.0\n";
  try {
    read_matrix_market(ss);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(MatrixMarket, NonFiniteValueIsRejected) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
     << "1 1 1.0\n2 2 nan\n";
  try {
    read_matrix_market(ss);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(MatrixMarket, MalformedEntryNamesTheLine) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
     << "1 1 1.0\nbogus line\n";
  try {
    read_matrix_market(ss);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

} // namespace
