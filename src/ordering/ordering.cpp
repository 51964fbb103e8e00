#include "ordering/ordering.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace blr::ordering {

namespace {

/// BFS level of every vertex from `start`; returns (levels, farthest vertex,
/// number of levels). Unreached vertices keep level -1.
struct BfsResult {
  std::vector<index_t> level;
  index_t farthest;
  index_t num_levels;
};

BfsResult bfs_levels(const sparse::Graph& g, index_t start) {
  BfsResult r;
  r.level.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  // One FIFO queue visits the levels in order, so its last vertex is the
  // last vertex of the deepest level.
  std::vector<index_t> queue{start};
  r.level[static_cast<std::size_t>(start)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const index_t v = queue[head];
    const index_t next = r.level[static_cast<std::size_t>(v)] + 1;
    for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
      if (r.level[static_cast<std::size_t>(*u)] < 0) {
        r.level[static_cast<std::size_t>(*u)] = next;
        queue.push_back(*u);
      }
    }
  }
  r.farthest = queue.back();
  r.num_levels = r.level[static_cast<std::size_t>(r.farthest)] + 1;
  return r;
}

/// BFS visit order over the whole (possibly disconnected) graph; gives
/// locality-preserving intra-supernode orderings.
std::vector<index_t> bfs_order(const sparse::Graph& g) {
  const index_t n = g.num_vertices();
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (index_t s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    seen[static_cast<std::size_t>(s)] = 1;
    std::size_t head = order.size();
    order.push_back(s);
    while (head < order.size()) {
      const index_t v = order[head++];
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        if (!seen[static_cast<std::size_t>(*u)]) {
          seen[static_cast<std::size_t>(*u)] = 1;
          order.push_back(*u);
        }
      }
    }
  }
  return order;
}

/// Parts with at least this many vertices order their two halves (or their
/// connected components) as parallel pool items; smaller parts recurse on
/// the calling thread. Calibrated on the bench/e2e inputs (lap and
/// conv-diff 36³ share a pattern; heterogeneous Poisson 32³) and lap2d 200²
/// on a 4-vCPU host, best of 11: with a 4-worker pool, lap 36³ orders in
/// 21–30 ms at every floor from 256 to 8,192 (47–55 ms serially), so the
/// floor sits where the fork count stays small at no measured cost. It
/// changes only where work runs, never the ordering (DESIGN.md §17).
constexpr index_t kForkFloor = 2048;

/// One part of the recursion: a subgraph plus the global id of each of its
/// vertices.
struct Part {
  sparse::Graph graph;
  std::vector<index_t> glob;
};

/// The part of `parent` on its local vertices `local`, induced from the
/// parent's subgraph, so the cost follows the parent's size rather than n.
Part subpart(const Part& parent, const std::vector<index_t>& local) {
  Part p{parent.graph.induced(local), std::vector<index_t>(local.size())};
  for (std::size_t i = 0; i < local.size(); ++i)
    p.glob[i] = parent.glob[static_cast<std::size_t>(local[i])];
  return p;
}

/// The nested-dissection recursion. Each part owns a slice of the output
/// whose offset follows from the sizes of the parts ordered before it (A,
/// then B, then the separator S), so the halves can run on different
/// threads and still write exactly what the serial recursion writes.
class Dissector {
public:
  Dissector(const NdOptions& opts, ThreadPool* pool, index_t n)
      : opts_(opts), pool_(pool),
        perm_(static_cast<std::size_t>(n)), is_end_(static_cast<std::size_t>(n) + 1, 0) {}

  /// Orders `part` into perm[off, off + |part|).
  void dissect(const Part& part, index_t off) {
    const index_t k = part.graph.num_vertices();
    if (k == 0) return;
    if (k <= opts_.cmin) {
      emit(part.glob, &part.graph, off);
      return;
    }
    const auto [comp, ncomp] = part.graph.connected_components();
    if (ncomp > 1) {
      // Dissect each connected component independently, in component order.
      std::vector<std::vector<index_t>> groups(static_cast<std::size_t>(ncomp));
      for (index_t v = 0; v < k; ++v)
        groups[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])].push_back(v);
      std::vector<index_t> offs(static_cast<std::size_t>(ncomp), off);
      for (std::size_t c = 1; c < groups.size(); ++c)
        offs[c] = offs[c - 1] + static_cast<index_t>(groups[c - 1].size());
      fork(k, ncomp, [&](index_t c) {
        const auto i = static_cast<std::size_t>(c);
        dissect(subpart(part, groups[i]), offs[i]);
      });
      return;
    }
    const Separator sep = find_separator(part.graph, opts_);
    if (sep.a.empty() || sep.b.empty()) {
      emit(part.glob, &part.graph, off);  // dense-ish subgraph, keep whole
      return;
    }
    const index_t na = static_cast<index_t>(sep.a.size());
    const index_t nb = static_cast<index_t>(sep.b.size());
    fork(k, 2, [&](index_t half) {
      if (half == 0) dissect(subpart(part, sep.a), off);
      else dissect(subpart(part, sep.b), off + na);
    });
    const Part s = subpart(part, sep.s);
    emit(s.glob, opts_.reorder_separators ? &s.graph : nullptr, off + na + nb);
  }

  Ordering finish() && {
    const index_t n = static_cast<index_t>(perm_.size());
    Ordering out;
    out.ranges.push_back(0);
    for (index_t i = 1; i <= n; ++i) {
      if (is_end_[static_cast<std::size_t>(i)]) out.ranges.push_back(i);
    }
    out.iperm.assign(static_cast<std::size_t>(n), -1);
    for (index_t i = 0; i < n; ++i) {
      index_t& slot = out.iperm[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
      BLR_CHECK(slot < 0, "ordering lost vertices");
      slot = i;
    }
    out.perm = std::move(perm_);
    return out;
  }

private:
  /// One supernode holding `glob` at perm[off, ...), BFS-ordered over
  /// `graph` for locality when given.
  void emit(const std::vector<index_t>& glob, const sparse::Graph* graph, index_t off) {
    auto* dst = perm_.data() + off;
    if (graph != nullptr && glob.size() > 2) {
      for (const index_t local : bfs_order(*graph)) *dst++ = glob[static_cast<std::size_t>(local)];
    } else {
      std::copy(glob.begin(), glob.end(), dst);
    }
    is_end_[static_cast<std::size_t>(off) + glob.size()] = 1;
  }

  /// f(0), ..., f(items - 1) for a part of `size` vertices: pool items when
  /// the part clears kForkFloor, otherwise in order on this thread.
  void fork(index_t size, index_t items, const std::function<void(index_t)>& f) {
    if (pool_ != nullptr && size >= kForkFloor) {
      pool_->parallel_for(items, f);
    } else {
      for (index_t i = 0; i < items; ++i) f(i);
    }
  }

  const NdOptions& opts_;
  ThreadPool* pool_;
  std::vector<index_t> perm_;
  std::vector<char> is_end_;  ///< is_end_[i]: a supernode ends before new index i
};

} // namespace

Separator find_separator(const sparse::Graph& g, const NdOptions& opts) {
  const index_t n = g.num_vertices();

  // Candidate BFS sources: 0, then pseudo-peripheral chases. Each source's
  // levels are scanned as soon as the chase computes them; only the best
  // candidate's (source levels, separator level) is kept, and the three
  // sets are built once, at the end.
  std::vector<index_t> sources;
  std::vector<index_t> best_level;  // BFS levels of the best candidate's source
  index_t best_m = -1;              // its separator level; -1 = none yet
  index_t best_cost = n + 1;
  double best_balance = 0.0;
  index_t src = 0;
  for (int trial = 0; trial < opts.bfs_trials; ++trial) {
    if (std::find(sources.begin(), sources.end(), src) != sources.end()) break;
    sources.push_back(src);
    BfsResult bfs = bfs_levels(g, src);
    src = bfs.farthest;
    if (bfs.num_levels < 3) continue;
    // Count vertices per level.
    std::vector<index_t> count(static_cast<std::size_t>(bfs.num_levels), 0);
    // Unreached vertices (disconnected graph) keep level -1; they fall into
    // part A below (-1 < m for every candidate level), so skip them here.
    for (const index_t l : bfs.level) {
      if (l >= 0) ++count[static_cast<std::size_t>(l)];
    }
    bool improved = false;
    index_t below = count[0];
    for (index_t m = 1; m + 1 < bfs.num_levels; ++m) {
      const index_t ns = count[static_cast<std::size_t>(m)];
      const index_t na = below;
      const index_t nb = n - na - ns;
      below += ns;
      if (na == 0 || nb == 0) continue;
      const double balance =
          static_cast<double>(std::min(na, nb)) / static_cast<double>(na + nb);
      const bool feasible = balance >= opts.balance_frac;
      // Prefer feasible splits with the smallest separator; among infeasible
      // candidates keep the most balanced as a fallback.
      if (feasible ? (ns < best_cost || (ns == best_cost && balance > best_balance))
                   : (best_cost > n && balance > best_balance)) {
        if (feasible) best_cost = ns;
        best_balance = balance;
        best_m = m;
        improved = true;
      }
    }
    if (improved) best_level = std::move(bfs.level);
  }

  Separator best;
  if (best_m < 0) {  // no split found: everything is separator
    best.s.resize(static_cast<std::size_t>(n));
    std::iota(best.s.begin(), best.s.end(), index_t{0});
    return best;
  }

  // 0=A, 1=B, 2=S, from the best candidate's level split.
  std::vector<char> side(static_cast<std::size_t>(n));
  index_t na0 = 0, nb0 = 0;
  for (index_t v = 0; v < n; ++v) {
    const index_t l = best_level[static_cast<std::size_t>(v)];
    const char sv = l < best_m ? 0 : (l == best_m ? 2 : 1);
    side[static_cast<std::size_t>(v)] = sv;
    na0 += sv == 0;
    nb0 += sv == 1;
  }

  // Shrink the separator: a separator vertex with no neighbor on one side
  // can move to the other side without reconnecting A and B.
  bool changed = true;
  while (changed) {
    changed = false;
    for (index_t v = 0; v < n; ++v) {
      if (side[static_cast<std::size_t>(v)] != 2) continue;
      bool touches_a = false;
      bool touches_b = false;
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        const char su = side[static_cast<std::size_t>(*u)];
        touches_a |= (su == 0);
        touches_b |= (su == 1);
      }
      if (!touches_a && !touches_b) {
        // Isolated from both parts: put it on the smaller side.
        side[static_cast<std::size_t>(v)] = (na0 <= nb0) ? 0 : 1;
        changed = true;
      } else if (!touches_b) {
        side[static_cast<std::size_t>(v)] = 0;
        changed = true;
      } else if (!touches_a) {
        side[static_cast<std::size_t>(v)] = 1;
        changed = true;
      }
    }
  }
  // FM-style refinement: moving a separator vertex v into part P removes it
  // from S but pulls v's neighbors from the *other* part into S, so the
  // separator shrinks whenever v has at most one such neighbor. Greedy
  // positive-gain passes with a balance guard.
  for (int pass = 0; pass < opts.fm_passes; ++pass) {
    bool improved = false;
    index_t na = 0, nb = 0;
    for (index_t v = 0; v < n; ++v) {
      na += side[static_cast<std::size_t>(v)] == 0;
      nb += side[static_cast<std::size_t>(v)] == 1;
    }
    for (index_t v = 0; v < n; ++v) {
      if (side[static_cast<std::size_t>(v)] != 2) continue;
      index_t in_a = 0, in_b = 0;
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        in_a += side[static_cast<std::size_t>(*u)] == 0;
        in_b += side[static_cast<std::size_t>(*u)] == 1;
      }
      const index_t gain_to_a = 1 - in_b;  // separator-size reduction
      const index_t gain_to_b = 1 - in_a;
      // Pick the better strictly-improving move; prefer growing the smaller
      // part on ties to keep the recursion balanced.
      int dest = -1;
      if (gain_to_a > 0 && (gain_to_a > gain_to_b || (gain_to_a == gain_to_b && na <= nb))) {
        dest = 0;
      } else if (gain_to_b > 0) {
        dest = 1;
      }
      if (dest < 0) continue;
      side[static_cast<std::size_t>(v)] = static_cast<char>(dest);
      (dest == 0 ? na : nb) += 1;
      // Opposite-side neighbors join the separator.
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        if (side[static_cast<std::size_t>(*u)] == (dest == 0 ? 1 : 0)) {
          side[static_cast<std::size_t>(*u)] = 2;
          (dest == 0 ? nb : na) -= 1;
        }
      }
      improved = true;
    }
    if (!improved) break;
  }

  // Rebuild the three sets from the final side assignment.
  best.a.clear();
  best.b.clear();
  best.s.clear();
  for (index_t v = 0; v < n; ++v) {
    switch (side[static_cast<std::size_t>(v)]) {
      case 0: best.a.push_back(v); break;
      case 1: best.b.push_back(v); break;
      default: best.s.push_back(v); break;
    }
  }
  // Refinement can empty a side on tiny graphs; callers treat that as
  // "no usable separator".
  return best;
}

Ordering nested_dissection(const sparse::Graph& g, const NdOptions& opts,
                           ThreadPool* pool) {
  BLR_CHECK(opts.cmin >= 1, "cmin must be >= 1");
  const index_t n = g.num_vertices();
  Dissector d(opts, pool, n);
  Part all{g, std::vector<index_t>(static_cast<std::size_t>(n))};
  std::iota(all.glob.begin(), all.glob.end(), index_t{0});
  d.dissect(all, 0);
  return std::move(d).finish();
}

Ordering natural_order(index_t n, index_t chunk) {
  BLR_CHECK(chunk >= 1, "chunk must be >= 1");
  Ordering out;
  out.perm.resize(static_cast<std::size_t>(n));
  std::iota(out.perm.begin(), out.perm.end(), index_t{0});
  out.iperm = out.perm;
  out.ranges.push_back(0);
  for (index_t r = chunk; r < n; r += chunk) out.ranges.push_back(r);
  out.ranges.push_back(n);
  return out;
}

} // namespace blr::ordering
