#include "core/symbolic_plan.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "sparse/graph.hpp"
#include "symbolic/amalgamation.hpp"

namespace blr::core {

std::uint64_t SymbolicPlan::hash_pattern(const sparse::CscMatrix& a) {
  // FNV-1a over the raw index arrays: cheap (one pass over the pattern,
  // no values) and order-sensitive, which is exactly what "same CSC
  // structure" means.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(a.rows()));
  for (index_t p : a.colptr()) mix(static_cast<std::uint64_t>(p));
  for (index_t i : a.rowind()) mix(static_cast<std::uint64_t>(i));
  return h;
}

std::shared_ptr<const SymbolicPlan> SymbolicPlan::build(
    const sparse::CscMatrix& a, const SolverOptions& opts, ThreadPool* pool) {
  BLR_CHECK(a.rows() == a.cols(), "solver requires a square matrix");
  BLR_CHECK(a.pattern_symmetric(),
            "the solver requires a symmetric nonzero pattern (symmetrize the "
            "matrix, e.g. by assembling A + Aᵗ's pattern, before factorizing)");
  // One timer, read at each phase boundary.
  Timer timer;
  double mark = 0;
  const auto lap = [&timer, &mark] {
    const double now = timer.elapsed();
    return now - std::exchange(mark, now);
  };

  const sparse::Graph g = sparse::Graph::from_matrix(a);
  ordering::Ordering ord = ordering::nested_dissection(g, opts.nd, pool);
  // Leave the pool idle: parallel_for helpers that found no work may still
  // be queued, and the factorization's scheduler counters start from zero.
  if (pool != nullptr) pool->wait_idle();
  const double ordering_s = lap();
  std::vector<index_t> ranges = ord.ranges;
  if (opts.amalgamate) {
    ranges = symbolic::amalgamate(a, ord, std::move(ranges), opts.amalgamation);
  }
  const double amalgamation_s = lap();
  ranges = symbolic::split_ranges(ranges, opts.split);
  symbolic::SymbolicFactor sf = symbolic::SymbolicFactor::build(a, ord, ranges);
  const double symbolic_s = lap();

  auto plan = std::make_shared<SymbolicPlan>();
  plan->ord = std::move(ord);
  plan->sf = std::move(sf);
  plan->n = a.rows();
  plan->nnz = a.nnz();
  plan->pattern_hash = hash_pattern(a);
  plan->ordering_seconds = ordering_s;
  plan->amalgamation_seconds = amalgamation_s;
  plan->symbolic_seconds = symbolic_s;
  plan->build_seconds = timer.elapsed();
  return plan;
}

} // namespace blr::core
