#include "sparse/csc.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace blr::sparse {

CscMatrix CscMatrix::from_triplets(index_t rows, index_t cols,
                                   std::vector<Triplet> triplets, Symmetry sym) {
  BLR_CHECK(rows >= 0 && cols >= 0, "invalid dimensions");
  for (const auto& t : triplets) {
    BLR_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
              "triplet index out of range");
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return (a.col != b.col) ? a.col < b.col : a.row < b.row;
  });

  CscMatrix m(rows, cols);
  m.sym_ = sym;
  m.rowind_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::vector<index_t> count(static_cast<std::size_t>(cols), 0);

  for (std::size_t k = 0; k < triplets.size();) {
    const index_t r = triplets[k].row;
    const index_t c = triplets[k].col;
    real_t v = 0;
    while (k < triplets.size() && triplets[k].row == r && triplets[k].col == c) {
      v += triplets[k].value;
      ++k;
    }
    m.rowind_.push_back(r);
    m.values_.push_back(v);
    ++count[static_cast<std::size_t>(c)];
  }
  for (index_t j = 0; j < cols; ++j) {
    m.colptr_[static_cast<std::size_t>(j) + 1] =
        m.colptr_[static_cast<std::size_t>(j)] + count[static_cast<std::size_t>(j)];
  }
  return m;
}

real_t CscMatrix::at(index_t i, index_t j) const {
  const auto begin = rowind_.begin() + colptr_[static_cast<std::size_t>(j)];
  const auto end = rowind_.begin() + colptr_[static_cast<std::size_t>(j) + 1];
  const auto it = std::lower_bound(begin, end, i);
  if (it == end || *it != i) return 0.0;
  return values_[static_cast<std::size_t>(it - rowind_.begin())];
}

void CscMatrix::spmv(const real_t* x, real_t* y, bool transpose) const {
  if (!transpose) {
    std::fill_n(y, rows_, 0.0);
    for (index_t j = 0; j < cols_; ++j) {
      const real_t xj = x[j];
      if (xj == 0.0) continue;
      for (index_t p = colptr_[static_cast<std::size_t>(j)];
           p < colptr_[static_cast<std::size_t>(j) + 1]; ++p) {
        y[rowind_[static_cast<std::size_t>(p)]] += values_[static_cast<std::size_t>(p)] * xj;
      }
    }
  } else {
    for (index_t j = 0; j < cols_; ++j) {
      real_t s = 0.0;
      for (index_t p = colptr_[static_cast<std::size_t>(j)];
           p < colptr_[static_cast<std::size_t>(j) + 1]; ++p) {
        s += values_[static_cast<std::size_t>(p)] * x[rowind_[static_cast<std::size_t>(p)]];
      }
      y[j] = s;
    }
  }
}

CscMatrix CscMatrix::transposed() const {
  CscMatrix t(cols_, rows_);
  t.sym_ = sym_;
  t.rowind_.resize(rowind_.size());
  t.values_.resize(values_.size());
  // Count entries per row (= column of the transpose).
  std::vector<index_t> next(static_cast<std::size_t>(rows_) + 1, 0);
  for (const index_t r : rowind_) ++next[static_cast<std::size_t>(r) + 1];
  for (index_t i = 0; i < rows_; ++i)
    next[static_cast<std::size_t>(i) + 1] += next[static_cast<std::size_t>(i)];
  t.colptr_.assign(next.begin(), next.end());
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t p = colptr_[static_cast<std::size_t>(j)];
         p < colptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t r = rowind_[static_cast<std::size_t>(p)];
      const index_t q = next[static_cast<std::size_t>(r)]++;
      t.rowind_[static_cast<std::size_t>(q)] = j;
      t.values_[static_cast<std::size_t>(q)] = values_[static_cast<std::size_t>(p)];
    }
  }
  return t;
}

bool CscMatrix::pattern_symmetric() const {
  if (rows_ != cols_) return false;
  const CscMatrix t = transposed();
  return t.colptr_ == colptr_ && t.rowind_ == rowind_;
}

CscMatrix CscMatrix::permuted(const std::vector<index_t>& perm) const {
  BLR_CHECK(rows_ == cols_, "permuted() requires a square matrix");
  BLR_CHECK(static_cast<index_t>(perm.size()) == rows_, "permutation size mismatch");
  // iperm[old] = new.
  std::vector<index_t> iperm(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    BLR_CHECK(perm[k] >= 0 && perm[k] < rows_, "permutation entry out of range");
    iperm[static_cast<std::size_t>(perm[k])] = static_cast<index_t>(k);
  }

  // Column k of the result is column perm[k] with its rows renumbered and
  // re-sorted. Every CscMatrix holds sorted, duplicate-free columns (they
  // come from from_triplets), so this is the triplet construction's result
  // in O(nnz) plus one short sort per column.
  CscMatrix m(rows_, cols_);
  m.sym_ = sym_;
  m.rowind_.resize(rowind_.size());
  m.values_.resize(values_.size());
  std::vector<std::pair<index_t, real_t>> col;
  index_t q = 0;
  for (index_t k = 0; k < cols_; ++k) {
    const auto j = static_cast<std::size_t>(perm[static_cast<std::size_t>(k)]);
    col.clear();
    for (index_t p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      col.emplace_back(iperm[static_cast<std::size_t>(rowind_[static_cast<std::size_t>(p)])],
                       values_[static_cast<std::size_t>(p)]);
    }
    std::sort(col.begin(), col.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [r, v] : col) {
      m.rowind_[static_cast<std::size_t>(q)] = r;
      m.values_[static_cast<std::size_t>(q)] = v;
      ++q;
    }
    m.colptr_[static_cast<std::size_t>(k) + 1] = q;
  }
  return m;
}

la::DMatrix CscMatrix::to_dense() const {
  la::DMatrix d(rows_, cols_);
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t p = colptr_[static_cast<std::size_t>(j)];
         p < colptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      d(rowind_[static_cast<std::size_t>(p)], j) = values_[static_cast<std::size_t>(p)];
    }
  }
  return d;
}

real_t CscMatrix::norm_fro() const {
  real_t s = 0;
  for (const real_t v : values_) s += v * v;
  return std::sqrt(s);
}

real_t backward_error(const CscMatrix& a, const real_t* x, const real_t* b) {
  std::vector<real_t> r(static_cast<std::size_t>(a.rows()));
  a.spmv(x, r.data());
  real_t rnorm = 0;
  real_t bnorm = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const real_t d = r[static_cast<std::size_t>(i)] - b[i];
    rnorm += d * d;
    bnorm += b[i] * b[i];
  }
  return std::sqrt(rnorm) / std::sqrt(bnorm);
}

} // namespace blr::sparse
