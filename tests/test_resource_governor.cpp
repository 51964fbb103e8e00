// Resource-governance tests (DESIGN.md §13): memory budgets enforced by the
// soft-failing MemoryTracker, the wall-clock deadline watchdog, injected
// allocation failures and clock skew, the resource degradation ladder, and
// the per-attempt counter capture. Labelled `resource` so the CI sanitizer
// stages (ASan/TSan) pick the whole file up.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <thread>
#include <vector>

#include "blr.hpp"

namespace {

using namespace blr;
using core::FaultInjection;
using core::RecoveryStep;
using sparse::CscMatrix;

/// Small-problem options so the BLR machinery engages on test matrices.
SolverOptions small_opts() {
  SolverOptions opts;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  opts.split.split_threshold = 64;
  opts.split.split_size = 32;
  return opts;
}

std::vector<real_t> random_rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// ||b - A x||_inf — sanity check that a degraded (governed) factorization
/// still produces a usable solve.
double residual_inf(const CscMatrix& a, const std::vector<real_t>& x,
                    const std::vector<real_t>& b) {
  std::vector<real_t> ax(b.size());
  a.spmv(x.data(), ax.data());
  double r = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    r = std::max(r, std::abs(static_cast<double>(b[i] - ax[i])));
  }
  return r;
}

/// Peak of one ungoverned run under `opts` (for runtime budget calibration:
/// absolute byte counts vary with splitting and compression decisions, so
/// the budgets below are derived from a measured baseline, never hardcoded).
std::size_t measured_peak(const CscMatrix& a, const SolverOptions& opts) {
  Solver solver(opts);
  solver.factorize(a);
  return solver.stats().total_peak_bytes;
}

// ---------------------------------------------------------------------------
// MemoryTracker peak tracking under contention (TSan target)
// ---------------------------------------------------------------------------

TEST(TrackerConcurrency, PeaksAreRaceFreeAndExact) {
  auto& t = MemoryTracker::instance();
  t.reset();

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr std::size_t kBlock = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        t.allocate(MemCategory::Factors, kBlock);
        t.release(MemCategory::Factors, kBlock);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Everything released: live counters drain to zero.
  EXPECT_EQ(t.current(MemCategory::Factors), 0u);
  EXPECT_EQ(t.current_total(), 0u);
  // CAS-max peaks: at least one holder's block, at most all concurrent
  // holders, and never below the final live value.
  EXPECT_GE(t.peak(MemCategory::Factors), kBlock);
  EXPECT_LE(t.peak(MemCategory::Factors), kThreads * kBlock);
  t.reset();
}

TEST(TrackerBudget, RollbackKeepsPeakUnderBudget) {
  auto& t = MemoryTracker::instance();
  t.reset();
  t.set_budget(1000);
  t.allocate(MemCategory::Factors, 800);
  EXPECT_THROW(t.allocate(MemCategory::Factors, 300), ResourceError);
  // The refused request was rolled back before any peak update.
  EXPECT_EQ(t.current_total(), 800u);
  EXPECT_EQ(t.peak_total(), 800u);
  // A fitting request still proceeds after the refusal.
  t.allocate(MemCategory::Workspace, 150);
  EXPECT_EQ(t.current_total(), 950u);
  t.release(MemCategory::Workspace, 150);
  t.release(MemCategory::Factors, 800);
  t.reset();
}

TEST(TrackerBudget, ReportCarriesStructuredBreach) {
  auto& t = MemoryTracker::instance();
  t.reset();
  t.set_budget(512);
  t.allocate(MemCategory::Factors, 256);
  try {
    t.allocate(MemCategory::Workspace, 400);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    const ResourceReport& r = e.report();
    EXPECT_EQ(r.kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(r.budget_bytes, 512u);
    EXPECT_EQ(r.requested_bytes, 400u);
    EXPECT_EQ(r.category, MemCategory::Workspace);
    EXPECT_EQ(r.live_bytes[static_cast<std::size_t>(MemCategory::Factors)],
              256u);
    EXPECT_FALSE(r.injected);
    EXPECT_NE(r.to_string().find("memory-budget"), std::string::npos);
  }
  t.release(MemCategory::Factors, 256);
  t.reset();
}

// ---------------------------------------------------------------------------
// Budget grid: tight-but-feasible and infeasible budgets across execution
// modes (sequential / parallel / parallel with finer supernodes x fp64 /
// mixed-precision tiles)
// ---------------------------------------------------------------------------

/// small_opts()' supernode split size, and a finer one that doubles the
/// supernode count (and so the update groups) on the 10^3 Laplacian.
constexpr int kDefaultSplit = 32;
constexpr int kFineSplit = 16;

struct GovMode {
  int threads;
  TilePrecision precision;
  int split_size;
};

class BudgetModeTest : public ::testing::TestWithParam<GovMode> {
protected:
  SolverOptions opts_for_mode() {
    SolverOptions opts = small_opts();
    opts.threads = GetParam().threads;
    opts.precision = GetParam().precision;
    opts.split.split_size = GetParam().split_size;
    opts.split.split_threshold = 2 * GetParam().split_size;
    return opts;
  }
};

TEST_P(BudgetModeTest, FeasibleBudgetSucceedsWithinBudget) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = opts_for_mode();
  const std::size_t peak = measured_peak(a, opts);
  ASSERT_GT(peak, 0u);

  // Parallel runs get more headroom: their peak varies with the overlap the
  // schedule happens to achieve, and the budget must stay feasible.
  opts.memory_budget_bytes = GetParam().threads > 1 ? peak * 2 : peak + peak / 4;
  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_LE(solver.stats().total_peak_bytes, opts.memory_budget_bytes);
  EXPECT_EQ(solver.stats().memory_budget_bytes, opts.memory_budget_bytes);

  const std::vector<real_t> b = random_rhs(a.rows(), 42);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(residual_inf(a, x, b), 1e-4);
}

TEST_P(BudgetModeTest, InfeasibleBudgetFailsSoftlyAndSurvives) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = opts_for_mode();
  opts.memory_budget_bytes = 64 * 1024;  // far below any feasible run

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    const ResourceReport& r = e.report();
    EXPECT_EQ(r.kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(r.budget_bytes, opts.memory_budget_bytes);
    EXPECT_LE(r.peak_bytes, opts.memory_budget_bytes);
    EXPECT_FALSE(r.injected);
  }
  EXPECT_FALSE(solver.factorized());
  EXPECT_EQ(solver.pool_pending(), 0u);

  // "Fail the request, never the process": the same process factorizes
  // ungoverned right after the refusal (the budget did not leak onto the
  // process-wide tracker).
  SolverOptions clean = opts_for_mode();
  Solver retry(clean);
  retry.factorize(a);
  EXPECT_TRUE(retry.factorized());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BudgetModeTest,
    ::testing::Values(GovMode{1, TilePrecision::Fp64, kDefaultSplit},
                      GovMode{1, TilePrecision::MixedTiles, kDefaultSplit},
                      GovMode{4, TilePrecision::Fp64, kDefaultSplit},
                      GovMode{4, TilePrecision::MixedTiles, kDefaultSplit},
                      GovMode{4, TilePrecision::Fp64, kFineSplit},
                      GovMode{4, TilePrecision::MixedTiles, kFineSplit}),
    // The suffixes keep the test IDs of the former engine axes: "Split" now
    // marks the finer supernodes, "Dag"/"Barrier" mixed/fp64 tiles.
    [](const auto& info) {
      std::ostringstream os;
      os << (info.param.threads > 1 ? "ParWS" : "Seq")
         << (info.param.split_size == kFineSplit ? "Split" : "")
         << (info.param.precision == TilePrecision::MixedTiles ? "Dag"
                                                                : "Barrier");
      return os.str();
    });

TEST(BudgetRegime, BelowDenseAboveBlrSucceeds) {
  // The paper's headline claim, governed: a budget the dense factors would
  // NOT fit but the BLR run does. Needs a problem large enough for the
  // Minimal-Memory peak to drop visibly below the dense footprint
  // (laplacian_3d(24) at tau=1e-4: peak ~96% of dense).
  const CscMatrix a = sparse::laplacian_3d(24, 24, 24);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::MinimalMemory;
  opts.tolerance = 1e-4;

  Solver probe(opts);
  probe.factorize(a);
  const std::size_t dense_bytes =
      probe.stats().factor_entries_dense * sizeof(real_t);
  const std::size_t blr_peak = probe.stats().total_peak_bytes;
  ASSERT_LT(blr_peak, dense_bytes)
      << "calibration: the BLR peak must undercut the dense footprint here";

  opts.memory_budget_bytes = (dense_bytes + blr_peak) / 2;
  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_LE(solver.stats().total_peak_bytes, opts.memory_budget_bytes);
  EXPECT_LT(opts.memory_budget_bytes, dense_bytes);
}

// ---------------------------------------------------------------------------
// Injected allocation failures (FaultInjection::Kind::AllocFail)
// ---------------------------------------------------------------------------

TEST(AllocFailInjection, ByteThresholdFiresOnFactors) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 1;  // first tracked allocation trips
  opts.fault.alloc_category = static_cast<int>(MemCategory::Factors);

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(e.report().category, MemCategory::Factors);
    EXPECT_TRUE(e.report().injected);
  }
  EXPECT_FALSE(solver.factorized());
}

TEST(AllocFailInjection, ByteThresholdFiresOnWorkspace) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;  // compressions allocate workspace
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 1;
  opts.fault.alloc_category = static_cast<int>(MemCategory::Workspace);

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().category, MemCategory::Workspace);
    EXPECT_TRUE(e.report().injected);
  }
}

TEST(AllocFailInjection, UnusedCategoriesNeverFire) {
  // The factorization allocates only Factors and Workspace: a fail point
  // filtered to Symbolic or Other never triggers, and the run completes.
  // This pins the category coverage of the numeric phase.
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  for (const MemCategory cat : {MemCategory::Symbolic, MemCategory::Other}) {
    SolverOptions opts = small_opts();
    opts.fault.kind = FaultInjection::Kind::AllocFail;
    opts.fault.at_bytes = 1;
    opts.fault.alloc_category = static_cast<int>(cat);
    Solver solver(opts);
    EXPECT_NO_THROW(solver.factorize(a));
    EXPECT_TRUE(solver.factorized());
  }
}

TEST(AllocFailInjection, AtSupernodeAssemblyCarriesSupernode) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 0;  // target a supernode's assembly instead
  opts.fault.supernode = 3;

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().supernode, 3);
    EXPECT_TRUE(e.report().injected);
    EXPECT_EQ(e.report().kind, ResourceKind::MemoryBudget);
  }
}

TEST(AllocFailInjection, TransientFaultRecoversOnRetry) {
  // max_triggers = 1 models a transient failure: the first attempt trips the
  // injected breach, the degradation retry runs clean (the shared trigger
  // budget is already consumed at re-arming time).
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.fault.kind = FaultInjection::Kind::AllocFail;
  opts.fault.at_bytes = 1;
  opts.fault.max_triggers = 1;
  opts.recovery.enabled = true;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_FALSE(attempts[0].succeeded);
  EXPECT_TRUE(attempts[0].resource);
  EXPECT_TRUE(attempts[1].succeeded);
  EXPECT_EQ(attempts[1].action, "demote-fp32");
  EXPECT_EQ(solver.stats().resource_rungs, 1);
}

// ---------------------------------------------------------------------------
// Deadlines: injected clock skew (deterministic) and a real expiry
// ---------------------------------------------------------------------------

TEST(Deadline, ClockSkewTripsDeterministicallySequential) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.deadline_ms = 60'000;  // far away: only the injected skew can trip it
  opts.fault.kind = FaultInjection::Kind::ClockSkew;
  opts.fault.supernode = 2;
  opts.recovery.enabled = true;  // deadline must NOT ladder-retry

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::Deadline);
    EXPECT_TRUE(e.report().injected);
    EXPECT_GT(e.report().elapsed_seconds, e.report().deadline_seconds);
  }
  EXPECT_FALSE(solver.factorized());
  // Terminal: one attempt, no rungs climbed against spent wall-clock.
  ASSERT_EQ(solver.stats().attempts.size(), 1u);
  EXPECT_TRUE(solver.stats().attempts[0].resource);
  EXPECT_EQ(solver.stats().resource_rungs, 0);
}

TEST(Deadline, ClockSkewDuringDagDrainsWithoutTaskLeak) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = small_opts();
  opts.threads = 4;
  opts.deadline_ms = 60'000;
  opts.fault.kind = FaultInjection::Kind::ClockSkew;
  opts.fault.supernode = 5;

  Solver solver(opts);
  EXPECT_THROW(solver.factorize(a), ResourceError);
  EXPECT_FALSE(solver.factorized());
  // Cooperative cancellation drained the graph: nothing still queued, and the
  // attempt record shows tasks discarded rather than leaked.
  EXPECT_EQ(solver.pool_pending(), 0u);
  ASSERT_EQ(solver.stats().attempts.size(), 1u);
  const auto& at = solver.stats().attempts[0];
  EXPECT_TRUE(at.resource);
  EXPECT_LT(at.dag_executed, at.dag_tasks);

  // The pool is reusable after the drain.
  SolverOptions clean = small_opts();
  clean.threads = 4;
  Solver retry(clean);
  retry.factorize(a);
  EXPECT_TRUE(retry.factorized());
}

TEST(Deadline, RealExpiryFailsSoftly) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::Dense;
  opts.deadline_ms = 1e-3;  // expires at the first clock read

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::Deadline);
    EXPECT_FALSE(e.report().injected);
  }
  EXPECT_FALSE(solver.factorized());
}

// ---------------------------------------------------------------------------
// The resource degradation ladder
// ---------------------------------------------------------------------------

/// The ladder's input: lap 14³, a small input on which Minimal Memory
/// peaks below Just-In-Time at τ = 1e-4 (by 0.25%). On inputs this small
/// the two factor peaks tie and the workspace live at the peak decides:
/// there, Minimal Memory's largest contribution is a recompressed
/// low-rank×low-rank product, JIT's the W factors of one low-rank grid
/// (DESIGN.md §12). On lap 10³ the grid leaves JIT 0.2% below Minimal
/// Memory; it was 0.6% above with per-pair products.
CscMatrix ladder_matrix() { return sparse::laplacian_3d(14, 14, 14); }

/// Just-In-Time at τ = 1e-4, the ladder's starting point.
SolverOptions ladder_jit_opts() {
  SolverOptions jit = small_opts();
  jit.strategy = Strategy::JustInTime;
  jit.tolerance = 1e-4;
  return jit;
}

TEST(ResourceLadder, SwitchToMinMemRescuesTightBudget) {
  // Calibrate a budget that Minimal-Memory fits but Just-In-Time (whose peak
  // includes the not-yet-compressed panels) does not, then let a one-rung
  // ladder walk JIT down to MinMem deterministically.
  const CscMatrix a = ladder_matrix();
  const SolverOptions jit = ladder_jit_opts();
  SolverOptions mm = jit;
  mm.strategy = Strategy::MinimalMemory;
  const std::size_t peak_jit = measured_peak(a, jit);
  const std::size_t peak_mm = measured_peak(a, mm);
  ASSERT_LT(peak_mm, peak_jit) << "calibration: MinMem must beat JIT here";
  const std::size_t budget = peak_mm + (peak_jit - peak_mm) / 4;

  SolverOptions opts = jit;
  opts.memory_budget_bytes = budget;
  opts.recovery.enabled = true;
  opts.recovery.resource_ladder.resize(1);
  opts.recovery.resource_ladder[0].action =
      RecoveryStep::Action::SwitchToMinMem;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_TRUE(attempts[0].resource);
  EXPECT_FALSE(attempts[0].succeeded);
  EXPECT_EQ(attempts[1].action, "switch-to-minmem");
  EXPECT_EQ(attempts[1].strategy, "Minimal Memory");
  EXPECT_TRUE(attempts[1].succeeded);
  EXPECT_EQ(solver.stats().resource_rungs, 1);
  EXPECT_LE(solver.stats().total_peak_bytes, budget);

  const std::vector<real_t> b = random_rhs(a.rows(), 7);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(residual_inf(a, x, b), 1e-4);
}

TEST(ResourceLadder, DefaultLadderDegradesToSuccess) {
  const CscMatrix a = ladder_matrix();
  const SolverOptions jit = ladder_jit_opts();
  SolverOptions mm = jit;
  mm.strategy = Strategy::MinimalMemory;
  const std::size_t peak_jit = measured_peak(a, jit);
  const std::size_t peak_mm = measured_peak(a, mm);
  ASSERT_LT(peak_mm, peak_jit);

  SolverOptions opts = jit;
  opts.memory_budget_bytes = peak_mm + (peak_jit - peak_mm) / 4;
  opts.recovery.enabled = true;  // default ladder: fp32 → loosen τ → MinMem

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_GE(solver.stats().resource_rungs, 1);
  EXPECT_LE(solver.stats().resource_rungs, 3);
  EXPECT_TRUE(solver.stats().attempts.back().succeeded);
  EXPECT_TRUE(solver.stats().attempts.front().resource);
  EXPECT_LE(solver.stats().total_peak_bytes, opts.memory_budget_bytes);
}

TEST(ResourceLadder, ExhaustedLadderSurfacesStructuredFailure) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  SolverOptions opts = small_opts();
  opts.memory_budget_bytes = 64 * 1024;  // no rung can fit this
  opts.recovery.enabled = true;

  Solver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.report().kind, ResourceKind::MemoryBudget);
    EXPECT_EQ(e.report().attempt, 3);  // initial + 3 default rungs
  }
  EXPECT_FALSE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 4u);
  for (const auto& at : attempts) {
    EXPECT_FALSE(at.succeeded);
    EXPECT_TRUE(at.resource);
    EXPECT_LE(at.peak_bytes, opts.memory_budget_bytes);
  }
  EXPECT_EQ(attempts[1].action, "demote-fp32");
  EXPECT_EQ(attempts[2].action, "loosen-tolerance");
  EXPECT_EQ(attempts[3].action, "switch-to-minmem");
}

// ---------------------------------------------------------------------------
// Per-attempt counters (Solver::factorize re-entry)
// ---------------------------------------------------------------------------

TEST(AttemptCounters, DagCountersArePerAttemptNotCumulative) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 1;  // early breakdown: most graph tasks never run
  opts.recovery.enabled = true;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  // Attempt 0 stopped mid-graph; attempt 1 ran the whole graph. Were the
  // counters cumulative, attempt 1 would report ~2x the graph size.
  EXPECT_GT(attempts[0].dag_tasks, 0u);
  EXPECT_LT(attempts[0].dag_executed, attempts[0].dag_tasks);
  EXPECT_EQ(attempts[1].dag_executed, attempts[1].dag_tasks);
  EXPECT_EQ(attempts[1].dag_tasks, solver.stats().dag_tasks);
  EXPECT_GT(attempts[0].peak_bytes, 0u);
  EXPECT_GT(attempts[1].peak_bytes, 0u);
}

TEST(AttemptCounters, SchedulerCountersArePerAttempt) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.threads = 4;
  opts.strategy = Strategy::JustInTime;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 5;
  opts.recovery.enabled = true;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  const auto& attempts = solver.stats().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_GT(attempts[1].scheduler_tasks, 0u);
  // The clean retry matches the final whole-run snapshot — per-attempt, not
  // accumulated across the failed first try.
  EXPECT_EQ(attempts[1].scheduler_tasks, solver.stats().scheduler_tasks);
  EXPECT_EQ(attempts[1].scheduler_discarded, 0u);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

TEST(GovernanceSummary, PrintsBudgetAndDeadline) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.memory_budget_bytes = 512ull * 1024 * 1024;
  opts.deadline_ms = 60'000;

  Solver solver(opts);
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_GT(solver.stats().deadline_margin, 0.0);

  std::ostringstream os;
  solver.print_summary(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("governance"), std::string::npos);
  EXPECT_NE(s.find("budget"), std::string::npos);
  EXPECT_NE(s.find("deadline"), std::string::npos);
}

} // namespace
