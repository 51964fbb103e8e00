#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/options.hpp"
#include "ordering/ordering.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic.hpp"

namespace blr {
class ThreadPool;
}

namespace blr::core {

class SolvePlan;

/// The immutable product of the analysis phase (DESIGN.md §15): ordering,
/// supernode partition and block symbolic structure for one sparse pattern,
/// shared read-only across every numeric pass over that pattern. A Solver
/// holds one by shared_ptr; a Session (and any factors it is still serving)
/// can keep the same plan alive across re-factorizations, so numeric state
/// may reference `ord`/`sf` without lifetime gymnastics.
///
/// The plan fingerprints the pattern it was built from (`n`, `nnz`,
/// `pattern_hash`): refactorize() verifies the fingerprint before reusing
/// the plan, so feeding a structurally different matrix fails loudly
/// instead of producing garbage.
struct SymbolicPlan {
  ordering::Ordering ord;        ///< fill-reducing permutation + partition
  symbolic::SymbolicFactor sf;   ///< block symbolic structure
  index_t n = 0;                 ///< pattern dimension
  index_t nnz = 0;               ///< pattern nonzero count
  std::uint64_t pattern_hash = 0;  ///< FNV-1a over colptr + rowind
  double build_seconds = 0;      ///< wall time of the analysis
  double ordering_seconds = 0;   ///< ...of it: adjacency graph + nested dissection
  double amalgamation_seconds = 0;  ///< ...of it: supernode amalgamation
  double symbolic_seconds = 0;   ///< ...of it: splitting + block symbolic build

  /// FNV-1a fingerprint of a sparse pattern (values ignored).
  static std::uint64_t hash_pattern(const sparse::CscMatrix& a);

  /// Run the analysis phase — nested dissection, amalgamation, supernode
  /// splitting, block symbolic factorization — under `opts` and freeze the
  /// result. With a `pool` (called from outside it), nested dissection
  /// spreads over it and the pool is idle again on return; the plan is a
  /// pure function of the pattern and `opts` either way (DESIGN.md §17).
  /// Throws blr::Error for non-square or (with opts.check_pattern)
  /// pattern-asymmetric input.
  static std::shared_ptr<const SymbolicPlan> build(const sparse::CscMatrix& a,
                                                   const SolverOptions& opts,
                                                   ThreadPool* pool = nullptr);

  /// Whether `a` has exactly the pattern this plan was built from.
  [[nodiscard]] bool matches(const sparse::CscMatrix& a) const {
    return a.rows() == n && a.cols() == n && a.nnz() == nnz &&
           hash_pattern(a) == pattern_hash;
  }

  /// The triangular-solve schedule over `sf` (DESIGN.md §16), built lazily
  /// on first request and cached for the plan's lifetime — like the plan
  /// itself, it is purely symbolic, so re-factorizations and session
  /// snapshots over the same pattern all share one copy and repeated solves
  /// pay zero graph-build cost. Thread-safe. `built`, when given, reports
  /// whether this call did the build (false = cache hit).
  [[nodiscard]] std::shared_ptr<const SolvePlan> solve_plan(
      bool* built = nullptr) const;

private:
  // Lazy solve-plan cache behind solve_plan().
  mutable std::shared_ptr<const SolvePlan> solve_plan_cache_;
  mutable std::unique_ptr<std::mutex> solve_plan_mu_ =
      std::make_unique<std::mutex>();
};

} // namespace blr::core
