#include "symbolic/amalgamation.hpp"

#include "common/error.hpp"

namespace blr::symbolic {

std::vector<index_t> amalgamate(const sparse::CscMatrix& a,
                                const ordering::Ordering& ord,
                                std::vector<index_t> ranges,
                                const AmalgamationOptions& opts) {
  BLR_CHECK(opts.frat >= 0, "frat must be non-negative");
  if (ranges.size() <= 2) return ranges;

  // Fill budget is relative to the *initial* block structure.
  const SymbolicFactor sf0 = SymbolicFactor::build(a, ord, ranges);
  const double budget =
      opts.frat * static_cast<double>(sf0.factor_entries_lower());
  double spent = 0;

  // The passes run on the supernodal tree alone (DESIGN.md §17). Merging
  // cblk k into its range-adjacent parent k + 1 leaves k + 1's row set
  // unchanged: k's rows below k + 1 already went up into k + 1, and every
  // other cblk keeps its rows (only their split into bloks can change). So
  // the merged node has width w_k + w_{k+1}, height h_{k+1} and parent
  // parent(k + 1), and a pass needs only these four arrays, not a rebuild
  // of the block structure.
  struct Node {
    index_t width;
    index_t height;
    index_t parent;  ///< -1 at a root
    index_t lcol;
  };
  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(sf0.num_cblks()));
  for (const Cblk& c : sf0.cblks()) nodes.push_back({c.width(), c.height(), c.parent, c.lcol});

  for (int pass = 0; pass < opts.max_passes; ++pass) {
    const index_t ncblk = static_cast<index_t>(nodes.size());

    // Greedy non-overlapping merge of (child, parent = child + 1) pairs.
    std::vector<char> merge(static_cast<std::size_t>(ncblk), 0);  // k merges into k + 1
    std::vector<char> locked(static_cast<std::size_t>(ncblk), 0);
    bool any = false;
    for (index_t k = 0; k + 1 < ncblk; ++k) {
      if (locked[static_cast<std::size_t>(k)]) continue;
      const Node& c = nodes[static_cast<std::size_t>(k)];
      if (c.parent != k + 1) continue;           // parent must be range-adjacent
      if (c.width >= opts.min_width) continue;   // only merge small supernodes
      const Node& p = nodes[static_cast<std::size_t>(k) + 1];

      // Added explicit zeros when c's columns adopt the merged structure:
      // before: wc^2 + hc*wc  (c)  +  wp^2 + hp*wp  (p)
      // after : (wc+wp)^2 + hp*(wc+wp)
      const double wc = static_cast<double>(c.width);
      const double wp = static_cast<double>(p.width);
      const double hc = static_cast<double>(c.height);
      const double hp = static_cast<double>(p.height);
      const double added = wc * (2 * wp + hp - hc);
      if (spent + added > budget) continue;

      spent += added;
      merge[static_cast<std::size_t>(k)] = 1;
      // Lock the parent for this pass so chains merge one link per pass and
      // every decision uses a consistent structure.
      locked[static_cast<std::size_t>(k) + 1] = 1;
      any = true;
    }
    if (!any) break;

    // Apply the pass: renumber, then fold each merged child into its parent.
    std::vector<index_t> renum(static_cast<std::size_t>(ncblk));
    index_t next = 0;
    for (index_t k = 0; k < ncblk; ++k) {
      renum[static_cast<std::size_t>(k)] = next;
      if (!merge[static_cast<std::size_t>(k)]) ++next;
    }
    std::vector<Node> merged;
    merged.reserve(static_cast<std::size_t>(next));
    index_t carry = 0;  // width of a child folded into the next node
    for (index_t k = 0; k < ncblk; ++k) {
      const Node& c = nodes[static_cast<std::size_t>(k)];
      if (merge[static_cast<std::size_t>(k)]) {
        carry = c.width;
        continue;
      }
      merged.push_back({c.width + carry, c.height,
                        c.parent < 0 ? -1 : renum[static_cast<std::size_t>(c.parent)],
                        c.lcol});
      carry = 0;
    }
    nodes = std::move(merged);
  }

  ranges.assign(1, 0);
  for (const Node& c : nodes) ranges.push_back(c.lcol);
  return ranges;
}

} // namespace blr::symbolic
