#pragma once

#include <vector>

#include "common/types.hpp"

namespace blr::sparse {

class CscMatrix;

/// Undirected adjacency graph (CSR arrays, no self loops). This is the
/// structure the ordering phase (nested dissection / minimum degree)
/// operates on; it is built from the symmetrized pattern of the matrix.
class Graph {
public:
  Graph() = default;
  Graph(index_t n, std::vector<index_t> ptr, std::vector<index_t> adj)
      : n_(n), ptr_(std::move(ptr)), adj_(std::move(adj)) {}

  /// Build from a sparse matrix pattern (symmetrized, diagonal dropped).
  static Graph from_matrix(const CscMatrix& a);

  [[nodiscard]] index_t num_vertices() const { return n_; }
  [[nodiscard]] index_t num_edges() const { return static_cast<index_t>(adj_.size()) / 2; }
  [[nodiscard]] index_t degree(index_t v) const {
    return ptr_[static_cast<std::size_t>(v) + 1] - ptr_[static_cast<std::size_t>(v)];
  }

  /// Neighbors of v as a begin/end pair into the adjacency array.
  [[nodiscard]] const index_t* neighbors_begin(index_t v) const {
    return adj_.data() + ptr_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const index_t* neighbors_end(index_t v) const {
    return adj_.data() + ptr_[static_cast<std::size_t>(v) + 1];
  }

  [[nodiscard]] const std::vector<index_t>& ptr() const { return ptr_; }
  [[nodiscard]] const std::vector<index_t>& adj() const { return adj_; }

  /// Induced subgraph on `vertices` (local indices 0..k-1 follow the order
  /// of `vertices`; the caller keeps the local->global map). Costs this
  /// graph's vertex count plus the edges of `vertices`, so a recursion
  /// induces each part from its parent's subgraph, not from the whole graph.
  [[nodiscard]] Graph induced(const std::vector<index_t>& vertices) const;

  /// Connected components; returns component id per vertex and the count.
  [[nodiscard]] std::pair<std::vector<index_t>, index_t> connected_components() const;

private:
  index_t n_ = 0;
  std::vector<index_t> ptr_{0};
  std::vector<index_t> adj_;
};

} // namespace blr::sparse
