#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "common/resource_governor.hpp"
#include "common/thread_pool.hpp"
#include "core/numeric.hpp"
#include "core/options.hpp"
#include "core/refinement.hpp"
#include "core/stats.hpp"
#include "core/symbolic_plan.hpp"
#include "lowrank/buffer_pool.hpp"

namespace blr::core {

/// Public facade of the BLR supernodal solver.
///
/// Typical use:
/// ```
///   blr::core::SolverOptions opts;
///   opts.strategy = blr::core::Strategy::MinimalMemory;
///   opts.tolerance = 1e-8;
///   opts.precision = blr::core::TilePrecision::MixedTiles;  // optional fp32 LR storage
///   blr::core::Solver solver(opts);
///   solver.factorize(A);              // analyze() implied
///   solver.solve(b.data(), x.data());
///   solver.refine(A, b.data(), x.data());  // optional GMRES/CG polish
/// ```
///
/// For time-stepping / nonlinear-iteration workloads where the pattern is
/// fixed but the values change every step, call refactorize() instead of
/// factorize() from the second step on: the symbolic plan is reused as-is,
/// retired factor buffers are recycled, and each block's compression is
/// seeded with the rank the previous pass learned (verify-and-grow, so the
/// τ accuracy contract is unchanged — DESIGN.md §15).
///
/// Every configuration knob lives in SolverOptions (see options.hpp: each
/// field documents its default and which strategy reads it); measurements of
/// the last run — times, compression, per-precision kernel counters, memory
/// peaks — are in stats() and pretty-printed by print_summary().
class Solver {
public:
  explicit Solver(SolverOptions opts = {});
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Preprocessing: nested-dissection ordering, supernode splitting and
  /// block symbolic factorization, frozen into an immutable SymbolicPlan.
  /// Independent of numerical values — call once and factorize() /
  /// refactorize() repeatedly for matrices with the same pattern.
  void analyze(const sparse::CscMatrix& a);

  /// Numeric phase: assembly (+ initial compression for Minimal-Memory) and
  /// the block factorization under the configured strategy. Under
  /// TilePrecision::MixedTiles, low-rank factors are stored in fp32 between
  /// kernels (DESIGN.md §10). A cold pass: any
  /// warm state (learned ranks, pooled buffers, cached task graph) from
  /// previous passes is discarded first.
  void factorize(const sparse::CscMatrix& a);

  /// Cheap numeric pass over a matrix with the SAME pattern analyze() saw
  /// but (typically) different values. Reuses the symbolic plan verbatim,
  /// recycles the previous factors' storage through a buffer pool, replays
  /// the cached task graph, and seeds each block's
  /// compression with the previously learned rank — verified at the τ bound
  /// and grown on mismatch, so accuracy is identical to a cold factorize()
  /// (DESIGN.md §15). Falls back to factorize() when analyze() has not run;
  /// throws blr::Error when the pattern fingerprint does not match.
  void refactorize(const sparse::CscMatrix& a);

  /// Direct triangular solve (b, x of length n; aliasing allowed).
  void solve(const real_t* b, real_t* x) const;
  [[nodiscard]] std::vector<real_t> solve(const std::vector<real_t>& b) const;

  /// Multi right-hand-side solve: X = A⁻¹·B (both n x nrhs).
  void solve(la::DConstView b, la::DView x) const;

  /// Polish x with the factorization-preconditioned iterative method the
  /// paper uses: CG when the factorization is LLᵗ, GMRES otherwise.
  RefinementResult refine(const sparse::CscMatrix& a, const real_t* b, real_t* x,
                          const RefinementOptions& opts = {}) const;

  /// The factorization as a preconditioner application M⁻¹.
  [[nodiscard]] Preconditioner preconditioner() const;

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

  /// Human-readable one-screen summary of the last run (configuration,
  /// structure, per-phase times, memory, compression).
  void print_summary(std::ostream& os) const;

  /// Per-worker scheduler counters accumulated by the last factorize()
  /// (empty for sequential solvers), indexed by pool worker id.
  [[nodiscard]] std::vector<ThreadPool::WorkerStats> worker_stats() const {
    return pool_ ? pool_->worker_stats() : std::vector<ThreadPool::WorkerStats>{};
  }
  [[nodiscard]] const SolverOptions& options() const { return opts_; }
  /// Tasks still queued (unexecuted) in the worker pool — 0 once a run,
  /// including a resource-cancelled one, has fully drained. Exposed so
  /// tests can pin the no-task-leak guarantee of governed cancellation.
  [[nodiscard]] std::size_t pool_pending() const {
    return pool_ ? pool_->pending() : 0;
  }
  [[nodiscard]] bool analyzed() const { return plan_ != nullptr; }
  [[nodiscard]] bool factorized() const { return num_ != nullptr; }
  [[nodiscard]] bool is_llt() const { return llt_; }

  [[nodiscard]] const ordering::Ordering& ordering() const { return plan_->ord; }
  [[nodiscard]] const symbolic::SymbolicFactor& symbolic() const {
    return plan_->sf;
  }
  [[nodiscard]] const NumericFactor& numeric() const { return *num_; }

  /// The frozen analysis product (nullptr before analyze()). Shared so a
  /// Session — and any factors it is still serving — can keep the plan
  /// alive across re-analyses of this solver.
  [[nodiscard]] std::shared_ptr<const SymbolicPlan> plan() const {
    return plan_;
  }
  /// Shared ownership of the current factors (nullptr when !factorized()).
  /// A Session snapshots this before each blocked solve so a concurrent
  /// refactorize() can never destroy factors mid-solve; non-const so the
  /// last owner can retire the factors into a buffer pool.
  [[nodiscard]] std::shared_ptr<NumericFactor> numeric_shared() const {
    return num_;
  }
  /// The cross-pass buffer pool retired factor storage is recycled through.
  [[nodiscard]] lr::BufferPool& buffer_pool() { return buffers_; }
  /// Summary of the last terminal factorization failure (empty when the
  /// last numeric pass succeeded, or none ran yet).
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

private:
  /// Shared body of factorize()/refactorize(): the attempt loop with both
  /// recovery ladders. `warm` enables plan/buffer/rank/task-graph reuse.
  void factorize_impl(const sparse::CscMatrix& a, bool warm);
  /// Throw a structured NumericalError (FailureKind::NotFactorized, with the
  /// last terminal failure embedded) when no successful factorization is
  /// held; `fn` names the rejected entry point.
  void require_factors(const char* fn) const;
  /// Fold one solve's execution record into stats_ (solve is const — stats
  /// capture uses the same const_cast pattern as time_solve always has).
  void note_solve(const SolveRunInfo& ri, double seconds) const;

  SolverOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  /// Dedicated solve-phase pool + its one-drain-at-a-time lock, shared with
  /// every NumericFactor this solver produces (DESIGN.md §16). Null when
  /// the effective solve thread count is 1.
  std::shared_ptr<SolveEngine> solve_engine_;
  std::shared_ptr<const SymbolicPlan> plan_;
  std::shared_ptr<NumericFactor> num_;
  /// Enforces memory_budget_bytes / deadline_ms across every attempt of one
  /// factorize() call (armed for its whole duration, numerical retries
  /// included — the deadline covers the ladder, not each rung).
  ResourceGovernor governor_;
  SolverStats stats_;
  bool llt_ = false;

  // Warm state carried between numeric passes over one plan (DESIGN.md §15).
  RankMemory ranks_;            ///< per-block ranks learned by the last pass
  lr::BufferPool buffers_;      ///< retired factor storage for reuse
  std::unique_ptr<TaskGraph> dag_cache_;  ///< factorization task graph
  std::uint64_t refactorizations_ = 0;
  /// Summary of the last terminal factorization failure (empty: none);
  /// embedded in the structured not-factorized error require_factors throws.
  std::string last_error_;
};

} // namespace blr::core

namespace blr {
using core::Factorization;
using core::RefinementOptions;
using core::RefinementResult;
using core::Solver;
using core::SolverOptions;
using core::SolverStats;
using core::Strategy;
using core::TilePrecision;
} // namespace blr
