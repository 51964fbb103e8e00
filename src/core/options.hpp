#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "lowrank/compression.hpp"
#include "ordering/ordering.hpp"
#include "symbolic/amalgamation.hpp"
#include "symbolic/symbolic.hpp"

namespace blr::core {

/// The factorization scenarios compared in the paper.
enum class Strategy {
  Dense,          ///< original PaStiX: every block dense (the baseline)
  JustInTime,     ///< Algorithm 2: compress a panel when its supernode is eliminated (LR2GE updates)
  MinimalMemory,  ///< Algorithm 1: compress A up front, maintain LR through the factorization (LR2LR updates, accumulated per block)
};

/// Numeric factorization kind.
enum class Factorization {
  Auto,  ///< LLᵗ when the matrix says SPD, LU otherwise
  Lu,
  Llt,
};

/// Per-tile storage precision policy (DESIGN.md §10). All arithmetic always
/// runs in fp64; MixedTiles only changes how low-rank factors are *stored*
/// between kernels.
enum class TilePrecision {
  Fp64,        ///< every tile stored in working precision (bit-identical baseline)
  MixedTiles,  ///< eligible low-rank U/V factors stored in fp32 at rest;
               ///< dense tiles and diagonal (pivotal) blocks always stay fp64
};

/// Deterministic fault-injection hook: forces a specific breakdown so every
/// failure-handling path (structured reports, cooperative cancellation, the
/// recovery ladder) is exercisable in tests and under sanitizers. The
/// trigger budget is shared across copies of the options, so a recovery
/// retry sees the fault already consumed (modelling a transient failure)
/// unless max_triggers allows it to fire again.
struct FaultInjection {
  enum class Kind {
    None,             ///< injection disabled (the default)
    TinyPivot,        ///< zero the leading pivot column of `supernode`'s
                      ///< diagonal block right before its factorization
    PoisonBlock,      ///< write a NaN into `supernode`'s assembled diagonal
                      ///< block (caught by the non-finite assembly guard)
    CompressionFail,  ///< fail the `index`-th low-rank compression in
                      ///< execution order: task-id order on one thread,
                      ///< where Minimal-Memory's assembly compressions
                      ///< (in the first task writing each supernode)
                      ///< interleave with its eliminations'; on a pool the
                      ///< count follows the schedule
    AllocFail,        ///< fail a tracked allocation with an injected
                      ///< ResourceError: at_bytes > 0 arms the MemoryTracker
                      ///< fail point (optionally filtered by alloc_category);
                      ///< at_bytes == 0 fails at `supernode`'s assembly
    ClockSkew,        ///< advance the ResourceGovernor's clock by
                      ///< skew_seconds right before `supernode`'s diagonal
                      ///< factorization, deterministically tripping the
                      ///< deadline watchdog there
  };
  Kind kind = Kind::None;
  index_t supernode = 0;  ///< target column block (TinyPivot / PoisonBlock /
                          ///< AllocFail with at_bytes == 0 / ClockSkew)
  index_t index = 0;      ///< which compression fails (CompressionFail)
  /// AllocFail: live-total threshold (bytes) at which the next tracked
  /// allocation fails; 0 targets `supernode`'s assembly instead.
  std::size_t at_bytes = 0;
  /// AllocFail with at_bytes > 0: restrict the armed fail point to one
  /// MemCategory (cast to int); -1 (default) fails whichever allocation
  /// crosses the threshold first.
  int alloc_category = -1;
  /// ClockSkew: seconds added to the governor's observed clock (default
  /// large enough to trip any test deadline).
  double skew_seconds = 1e6;
  /// Total firings allowed across all factorization attempts (< 0:
  /// unlimited). The default of 1 models a transient fault: the first
  /// attempt breaks down, a recovery retry runs clean.
  int max_triggers = 1;
  /// Trigger opportunities swallowed before the first firing (default 0).
  /// Lets a test aim the fault at the Nth numeric pass of a solver or
  /// Session: skip_triggers = 1 with max_triggers = 1 runs the first pass
  /// clean and breaks the second (e.g. a budget breach mid-refactorize).
  int skip_triggers = 0;

  [[nodiscard]] bool enabled() const { return kind != Kind::None; }

  /// Atomically claim one firing; false once max_triggers is exhausted
  /// (or while skip_triggers opportunities are still being swallowed).
  bool try_fire() const {
    if (kind == Kind::None) return false;
    if (skip_triggers > 0) {
      int s = skipped_->load(std::memory_order_relaxed);
      while (s < skip_triggers) {
        if (skipped_->compare_exchange_weak(s, s + 1, std::memory_order_relaxed))
          return false;
      }
    }
    if (max_triggers < 0) {
      fired_->fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    int cur = fired_->load(std::memory_order_relaxed);
    while (cur < max_triggers) {
      if (fired_->compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  [[nodiscard]] int fired() const { return fired_->load(std::memory_order_relaxed); }

private:
  /// Shared across copies so recovery attempts (which copy SolverOptions)
  /// observe the firings of earlier attempts.
  std::shared_ptr<std::atomic<int>> fired_ =
      std::make_shared<std::atomic<int>>(0);
  /// Skip budget consumed so far; shared for the same reason.
  std::shared_ptr<std::atomic<int>> skipped_ =
      std::make_shared<std::atomic<int>>(0);
};

/// One rung of the recovery ladder: the configuration change applied before
/// the next factorization attempt. Rungs are cumulative — each retry keeps
/// the changes of every earlier rung.
struct RecoveryStep {
  enum class Action {
    TightenTolerance,  ///< multiply τ by tolerance_factor (a tighter τ keeps
                       ///< more of the spectrum, curing loose-compression
                       ///< breakdowns)
    StaticPivoting,    ///< enable PaStiX-style static pivoting with
                       ///< pivot_threshold (forces LU: LLᵗ has no pivot
                       ///< replacement)
    SwitchToLu,        ///< re-factorize LLᵗ breakdowns as LU
    DenseFallback,     ///< abandon compression entirely (Strategy::Dense)
    // Resource-pressure rungs (climbed on ResourceError, not NumericalError):
    DemoteFp32,        ///< store low-rank factors fp32 at rest
                       ///< (TilePrecision::MixedTiles, ~50% off the LR part)
    LoosenTolerance,   ///< multiply τ by tolerance_factor (> 1 here: trade
                       ///< accuracy for lower ranks and smaller factors)
    SwitchToMinMem,    ///< Strategy::MinimalMemory — compress up front so the
                       ///< dense factor structure is never allocated (the
                       ///< paper's lowest-peak scenario)
  };
  Action action = Action::TightenTolerance;
  real_t tolerance_factor = 1e-2;  ///< τ multiplier (TightenTolerance < 1,
                                   ///< LoosenTolerance > 1)
  real_t pivot_threshold = 1e-8;   ///< static-pivot cutoff (StaticPivoting)
};

const char* recovery_action_name(RecoveryStep::Action a);

/// Retry ladder applied by Solver::factorize when the numeric factorization
/// throws NumericalError: each failed attempt climbs one rung, amends the
/// effective options, and re-runs. Every attempt (including the first and
/// the final outcome) is recorded in SolverStats::attempts and surfaced by
/// print_summary. An empty ladder with enabled=true uses default_ladder().
struct RecoveryPolicy {
  bool enabled = false;
  std::vector<RecoveryStep> ladder;
  /// Degradation ladder climbed on ResourceError (budget breaches only —
  /// deadline breaches never retry: no rung recovers spent wall-clock).
  /// Empty with enabled=true uses default_resource_ladder().
  std::vector<RecoveryStep> resource_ladder;

  /// tighten τ ×1e-2 → static pivoting @1e-8 (LU) → dense fallback.
  static std::vector<RecoveryStep> default_ladder();
  /// fp32 demotion → loosen τ ×1e2 → Minimal-Memory strategy. Note the τ
  /// direction: the numerical ladder *tightens* τ (keep more spectrum to
  /// cure a breakdown); the resource ladder *loosens* it (lower ranks,
  /// smaller factors) — memory pressure is an accuracy/memory dial, not a
  /// stability problem.
  static std::vector<RecoveryStep> default_resource_ladder();
};

/// Everything configurable about a solver run. Defaults reproduce the
/// paper's experimental setup (§4: split 256/128, compressible width 128,
/// minimal height 20, RRQR, τ = 1e-8).
struct SolverOptions {
  /// Compression scenario (default JustInTime): which blocks go low-rank
  /// and when. Read by the numeric engine's update policy; Dense disables
  /// compression entirely.
  Strategy strategy = Strategy::JustInTime;
  /// LU vs LLᵗ (default Auto: LLᵗ when the matrix is marked SPD). Read by
  /// every strategy.
  Factorization factorization = Factorization::Auto;
  /// Rank-revealing compression family, RRQR (default, the paper's choice)
  /// or SVD. Read by every compressing strategy.
  lr::CompressionKind kind = lr::CompressionKind::Rrqr;
  real_t tolerance = 1e-8;  ///< block compression tolerance τ (default 1e-8); read by every compressing strategy
  /// Worker threads for the numeric factorization (default 1: the task graph
  /// drains in task-id order on the calling thread; every count gives the
  /// same bits). Read by every strategy. The same pool also runs analyze()'s
  /// nested dissection, whose plan is identical at every count.
  int threads = 1;

  /// Worker threads for the solve phase; 0 (default) inherits `threads`.
  /// When the effective count is > 1, solves drain the cached SolvePlan DAG
  /// over a dedicated solve pool (DESIGN.md §16), memcmp-identical to the
  /// sequential drain at every thread count and RHS width; 1 solves on the
  /// calling thread. Solves with little work (core::kSolvePoolFlops) drain
  /// on the calling thread anyway, and concurrent solve() calls beyond the
  /// first drain the same plan on their own thread rather than queueing.
  /// The solve pool is separate from the factorization pool, so a Session
  /// can serve parallel solves while a refactorize() runs on the other
  /// pool. Read at Solver construction.
  int solve_threads = 0;

  /// Per-tile storage precision (default Fp64). MixedTiles stores the U/V
  /// factors of eligible low-rank tiles in fp32 at rest — roughly halving
  /// Factors bytes on the compressed part — while all arithmetic, dense
  /// tiles and diagonal/pivotal blocks stay fp64 (DESIGN.md §10). Read by
  /// both compressing strategies (JustInTime, MinimalMemory); ignored by
  /// Dense.
  TilePrecision precision = TilePrecision::Fp64;

  /// Nested-dissection ordering knobs (defaults follow the paper's setup);
  /// read by analyze() before any strategy runs.
  ordering::NdOptions nd;
  /// Supernode splitting (paper §4: split 256/128); read by analyze().
  symbolic::SplitOptions split;
  /// Amalgamation tuning (fill budget for merging small supernodes); read
  /// by analyze() when `amalgamate` is set.
  symbolic::AmalgamationOptions amalgamation;
  bool amalgamate = true;  ///< merge small supernodes under the fill budget (default on); read by analyze()

  /// A column block is compressible when at least this wide...
  index_t compress_min_width = 128;
  /// ...and an off-diagonal block when at least this tall.
  index_t compress_min_height = 20;

  /// Static pivoting threshold for the LU path (PaStiX-style): local pivots
  /// with magnitude below `pivot_threshold * ||A||_max` are replaced instead
  /// of aborting, and the replacement count lands in the stats. 0 disables
  /// (a tiny pivot then throws NumericalError).
  real_t pivot_threshold = 0.0;

  /// Hard budget (bytes) on the live tracked memory of the factorization —
  /// factors, workspace, everything the MemoryTracker sees. 0 (default)
  /// means ungoverned. A tracked allocation that would push the live total
  /// past the budget fails softly with blr::ResourceError carrying a
  /// structured ResourceReport; with recovery enabled the resource ladder
  /// (fp32 demotion → loosen τ → Minimal-Memory) retries before the error
  /// surfaces. The recorded peak never exceeds the budget (DESIGN.md §13).
  std::size_t memory_budget_bytes = 0;

  /// Wall-clock deadline (milliseconds) on factorize(), spanning every
  /// recovery attempt. 0 (default) means none. Enforced by an epoch-checked
  /// watchdog polled from the numeric hot loops: on expiry the run cancels
  /// cooperatively (the task DAG drains without leaks) and factorize throws
  /// blr::ResourceError — deadline breaches are terminal, never retried.
  double deadline_ms = 0;

  /// Deterministic fault injection for testing breakdown handling.
  FaultInjection fault;

  /// Automatic retry ladders on numerical breakdown and resource pressure
  /// (disabled by default).
  RecoveryPolicy recovery;

  /// Skip the compression attempt on blocks the previous pass proved dense
  /// (dense storage is exact, so skipping cannot change the answer). Read
  /// by refactorize().
  bool warm_dense_skip = true;
};

const char* strategy_name(Strategy s);
const char* kind_name(lr::CompressionKind k);
const char* precision_name(TilePrecision p);

} // namespace blr::core
