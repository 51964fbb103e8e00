#pragma once

#include <vector>

#include "common/types.hpp"
#include "sparse/graph.hpp"

namespace blr {
class ThreadPool;
}

namespace blr::ordering {

/// Options controlling the nested-dissection ordering. Defaults mirror the
/// Scotch configuration the paper uses (cmin = minimal size of non-separated
/// subgraphs; those become supernodes directly).
struct NdOptions {
  index_t cmin = 32;           ///< stop dissecting below this many vertices
  double balance_frac = 0.25;  ///< each part must hold >= this fraction of non-separator vertices
  int bfs_trials = 4;          ///< BFS sources tried per separator search
  int fm_passes = 4;           ///< Fiduccia-Mattheyses-style separator refinement passes
  bool reorder_separators = true;  ///< BFS-reorder separator vertices (blocking optimization of [21])
};

/// Result of the ordering phase: a fill-reducing permutation plus the
/// supernodal partition induced by the separator tree.
///
/// perm[new] = old and iperm[old] = new. Supernode s covers the contiguous
/// *new*-index range [ranges[s], ranges[s+1]); separators come after the
/// subdomains they split, so the partition is already in elimination order.
struct Ordering {
  std::vector<index_t> perm;
  std::vector<index_t> iperm;
  std::vector<index_t> ranges;  ///< size = #supernodes + 1, ranges[0] = 0

  [[nodiscard]] index_t num_supernodes() const {
    return static_cast<index_t>(ranges.size()) - 1;
  }
  [[nodiscard]] index_t supernode_size(index_t s) const {
    return ranges[static_cast<std::size_t>(s) + 1] - ranges[static_cast<std::size_t>(s)];
  }
};

/// Nested dissection of the adjacency graph. With a `pool`, the two halves
/// of every part of at least kForkFloor vertices (ordering.cpp) are ordered
/// as parallel pool items; each writes its own slice of the output, so the
/// result is identical with and without a pool and at every pool size.
Ordering nested_dissection(const sparse::Graph& g, const NdOptions& opts = {},
                           ThreadPool* pool = nullptr);

/// Identity ordering with a single-supernode-per-chunk partition — baseline
/// and debugging aid (terrible fill; tests only).
Ordering natural_order(index_t n, index_t chunk);

/// A vertex separator split of a graph: vertex sets A, B, S with no edge
/// between A and B. Exposed for testing.
struct Separator {
  std::vector<index_t> a;
  std::vector<index_t> b;
  std::vector<index_t> s;
};

/// Level-set based vertex separator of a *connected* graph (local indices).
Separator find_separator(const sparse::Graph& g, const NdOptions& opts);

} // namespace blr::ordering
