// Breakdown-path tests: structured failure reports, deterministic fault
// injection, cooperative cancellation of the parallel schedulers, and the
// recovery ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>

#include "blr.hpp"
#include "core/task_graph.hpp"

namespace {

using namespace blr;
using core::FaultInjection;
using core::RecoveryStep;
using sparse::CscMatrix;

std::vector<real_t> random_rhs(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// Small-problem options so the BLR machinery engages on test matrices.
SolverOptions small_opts() {
  SolverOptions opts;
  opts.compress_min_width = 16;
  opts.compress_min_height = 8;
  opts.split.split_threshold = 64;
  opts.split.split_size = 32;
  return opts;
}

/// -A for an SPD A: symmetric pattern, negative definite values, so LLᵗ
/// breaks down at the very first pivot while LU factorizes cleanly.
CscMatrix negated(const CscMatrix& a) {
  CscMatrix out = a;
  for (auto& v : out.values()) v = -v;
  out.set_symmetry(sparse::Symmetry::SymmetricValues);
  return out;
}

/// A with row and column j zeroed (pattern kept): structurally singular.
CscMatrix zero_row_col(const CscMatrix& a, index_t j0) {
  CscMatrix out = a;
  const auto& colptr = out.colptr();
  const auto& rowind = out.rowind();
  auto& values = out.values();
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t p = colptr[static_cast<std::size_t>(j)];
         p < colptr[static_cast<std::size_t>(j) + 1]; ++p) {
      if (j == j0 || rowind[static_cast<std::size_t>(p)] == j0)
        values[static_cast<std::size_t>(p)] = 0;
    }
  }
  out.set_symmetry(sparse::Symmetry::General);
  return out;
}

// ---------------------------------------------------------------------------
// Fault kinds x {sequential, parallel, parallel with finer supernodes} x
// {fp64, mixed-precision tiles}
// ---------------------------------------------------------------------------

/// small_opts()' supernode split size, and a finer one that doubles the
/// supernode count (and so the update groups) on the 8^3 Laplacian.
constexpr int kDefaultSplit = 32;
constexpr int kFineSplit = 16;

struct Mode {
  int threads;
  TilePrecision precision;
  int split_size;
};

class FaultModeTest : public ::testing::TestWithParam<Mode> {
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

TEST_P(FaultModeTest, TinyPivotReportsSupernodeAndPivot) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = opts_for_mode();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;  // deterministic ZeroPivot kind
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const FailureReport& r = e.report();
    EXPECT_EQ(r.kind, FailureKind::ZeroPivot);
    EXPECT_EQ(r.supernode, 0);
    EXPECT_EQ(r.local_pivot, 0);
    EXPECT_EQ(r.pivot_magnitude, 0.0);
    EXPECT_EQ(r.factorization, "LU");
    EXPECT_EQ(r.strategy, "Just-In-Time");
    EXPECT_EQ(r.attempt, 0);
    EXPECT_NE(e.what(), std::string());
    // The message embeds the structured fields.
    EXPECT_NE(std::string(e.what()).find("zero-pivot"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("supernode 0"), std::string::npos);
  }

  // A failed factorize must not leave stale factors behind.
  EXPECT_FALSE(solver.factorized());
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0), x(b.size());
  EXPECT_THROW(solver.solve(b.data(), x.data()), Error);

  // The fault budget (max_triggers = 1) is consumed: the same solver — and
  // for parallel modes the same cancelled-and-reset pool — factorizes
  // cleanly on the next call.
  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
  const auto rhs = random_rhs(a.rows(), 42);
  solver.solve(rhs.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), rhs.data()), 1e-5);
  EXPECT_EQ(opts.fault.fired(), 1);  // shared across the solver's copy
}

TEST_P(FaultModeTest, PoisonedBlockIsCaughtByAssemblyGuard) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = opts_for_mode();
  opts.strategy = Strategy::JustInTime;
  opts.fault.kind = FaultInjection::Kind::PoisonBlock;
  opts.fault.supernode = 2;
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NonFiniteBlock);
    EXPECT_EQ(e.report().supernode, 2);
  }
  EXPECT_FALSE(solver.factorized());

  solver.factorize(a);  // budget consumed -> clean
  EXPECT_TRUE(solver.factorized());
}

TEST_P(FaultModeTest, CompressionFailureIsStructured) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = opts_for_mode();
  opts.strategy = Strategy::JustInTime;
  opts.fault.kind = FaultInjection::Kind::CompressionFail;
  opts.fault.index = 0;  // first compression site
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::CompressionFailure);
    EXPECT_GE(e.report().supernode, 0);
  }
  EXPECT_FALSE(solver.factorized());

  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FaultModeTest,
    ::testing::Values(
        Mode{1, TilePrecision::Fp64, kDefaultSplit},
        Mode{4, TilePrecision::Fp64, kDefaultSplit},
        Mode{4, TilePrecision::Fp64, kFineSplit},
        Mode{1, TilePrecision::MixedTiles, kDefaultSplit},
        Mode{4, TilePrecision::MixedTiles, kDefaultSplit},
        Mode{4, TilePrecision::MixedTiles, kFineSplit}),
    // The suffixes keep the test IDs of the former engine axes: "Split" now
    // marks the finer supernodes, "Dag" the mixed-precision tiles.
    [](const ::testing::TestParamInfo<Mode>& info) {
      std::string s =
          info.param.threads == 1 ? "Sequential" : "ParallelWorkStealing";
      if (info.param.split_size == kFineSplit) s += "Split";
      if (info.param.precision == TilePrecision::MixedTiles) s += "Dag";
      return s;
    });

// The structured report of a supernode-addressed breakdown must not depend
// on the schedule: the sequential drain and a pool drain meet the fault at
// the same supernode and pivot, so every field matches exactly.
// (Compression-site faults count sites in execution order, which differs
// between schedules; FaultModeTest covers them. The name predates the
// single driver.)
TEST(DagBreakdown, SequentialFaultReportsMatchBarrier) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  for (const auto kind :
       {FaultInjection::Kind::TinyPivot, FaultInjection::Kind::PoisonBlock}) {
    std::vector<FailureReport> reports;
    for (const int threads : {1, 4}) {
      SolverOptions opts = small_opts();
      opts.strategy = Strategy::JustInTime;
      opts.factorization = Factorization::Lu;
      opts.threads = threads;
      opts.fault.kind = kind;
      opts.fault.supernode = 2;
      Solver solver(opts);
      try {
        solver.factorize(a);
        ADD_FAILURE() << "expected NumericalError";
      } catch (const NumericalError& e) {
        reports.push_back(e.report());
      }
      EXPECT_FALSE(solver.factorized());
    }
    ASSERT_EQ(reports.size(), 2u);
    for (FailureReport& r : reports) {
      EXPECT_EQ(r.kind, reports[0].kind);
      EXPECT_EQ(r.supernode, 2);
      EXPECT_EQ(r.local_pivot, reports[0].local_pivot);
      EXPECT_EQ(r.detail, reports[0].detail);
      // Every rendered field but the wall time matches.
      r.elapsed_seconds = reports[0].elapsed_seconds;
      EXPECT_EQ(r.to_string(), reports[0].to_string());
    }
  }
}

// Each supernode is assembled by the first graph task that writes it, so
// an assembly fault at an interior supernode (one its children update, so
// an Upd task assembles it) fires inside a pooled drain, not before it. The
// report names that supernode, the drain leaves nothing queued, and the
// recovery ladder still finishes the factorization.
TEST(DagBreakdown, AssemblyFaultsFireInsideTheDrain) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.threads = 4;
  index_t interior = -1;
  {
    Solver probe(opts);
    probe.analyze(a);
    interior = probe.symbolic().cblk(0).bloks.front().fcblk;
  }
  for (const auto kind :
       {FaultInjection::Kind::PoisonBlock, FaultInjection::Kind::AllocFail}) {
    const auto arm = [&](SolverOptions o) {
      o.fault = FaultInjection{};  // a fresh trigger budget per solver
      o.fault.kind = kind;
      o.fault.supernode = interior;  // AllocFail: at_bytes == 0, assembly
      return o;
    };
    Solver failing(arm(opts));
    index_t named = -1;
    try {
      failing.factorize(a);
      ADD_FAILURE() << "expected a structured failure";
    } catch (const NumericalError& e) {
      EXPECT_EQ(kind, FaultInjection::Kind::PoisonBlock);
      EXPECT_EQ(e.report().kind, FailureKind::NonFiniteBlock);
      named = e.report().supernode;
    } catch (const ResourceError& e) {
      EXPECT_EQ(kind, FaultInjection::Kind::AllocFail);
      EXPECT_TRUE(e.report().injected);
      named = e.report().supernode;
    }
    EXPECT_EQ(named, interior);
    EXPECT_EQ(failing.pool_pending(), 0u);
    EXPECT_GT(failing.stats().dag_executed, 0u);  // the drain had started
    EXPECT_LT(failing.stats().dag_executed, failing.stats().dag_tasks);

    SolverOptions ro = arm(opts);
    ro.recovery.enabled = true;
    Solver recovering(ro);
    recovering.factorize(a);
    ASSERT_TRUE(recovering.factorized());
    const auto& attempts = recovering.stats().attempts;
    ASSERT_GE(attempts.size(), 2u);
    EXPECT_FALSE(attempts.front().succeeded);
    EXPECT_TRUE(attempts.back().succeeded);
    const auto b = random_rhs(a.rows(), 9);
    std::vector<real_t> x(b.size());
    recovering.solve(b.data(), x.data());
    EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5);
  }
}

// A mid-graph breakdown must cancel everything still queued: no task body
// leaks past ThreadPool::cancel, the pool drains idle, and the very same
// solver (same pool) factorizes cleanly afterwards.
TEST(DagBreakdown, BreakdownCancelsOutstandingDagTasks) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.threads = 4;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  Solver solver(opts);

  EXPECT_THROW(solver.factorize(a), NumericalError);
  const SolverStats& st = solver.stats();
  ASSERT_GT(st.dag_tasks, 0u);
  // The failing Elim task stops the run: its subtree is never released
  // (and anything already queued drains discarded), so far fewer bodies ran
  // than exist. Whether the pool's queue held tasks at cancel time is a
  // race, so the suppression is asserted on the release layer — some tasks
  // were never enqueued at all — not on the discard counter.
  EXPECT_LT(st.dag_executed, st.dag_tasks);
  EXPECT_LT(st.dag_executed + st.scheduler_discarded, st.dag_tasks);

  // The pool survives: the consumed fault budget lets the same solver
  // factorize and solve cleanly, with every graph task running this time.
  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
  EXPECT_EQ(solver.stats().dag_executed, solver.stats().dag_tasks);
  EXPECT_EQ(solver.stats().scheduler_discarded, 0u);
  const auto b = random_rhs(a.rows(), 5);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5);
}

// The recovery ladder must behave identically whether the failing attempt
// drains in task-id order or over the pool: same rung sequence, same
// effective configuration, same result. (The name predates the single
// driver.)
TEST(DagBreakdown, RecoveryLadderMatchesBarrier) {
  const CscMatrix a = negated(sparse::laplacian_3d(6, 6, 6));
  std::vector<SolverStats> stats;
  for (const int threads : {1, 4}) {
    SolverOptions opts = small_opts();
    opts.strategy = Strategy::JustInTime;
    opts.factorization = Factorization::Llt;
    opts.threads = threads;
    opts.recovery.enabled = true;  // default ladder
    Solver solver(opts);
    solver.factorize(a);
    EXPECT_TRUE(solver.factorized());
    EXPECT_FALSE(solver.is_llt());
    stats.push_back(solver.stats());
  }
  ASSERT_EQ(stats[0].attempts.size(), stats[1].attempts.size());
  for (std::size_t i = 0; i < stats[0].attempts.size(); ++i) {
    EXPECT_EQ(stats[0].attempts[i].action, stats[1].attempts[i].action);
    EXPECT_EQ(stats[0].attempts[i].strategy, stats[1].attempts[i].strategy);
    EXPECT_EQ(stats[0].attempts[i].succeeded, stats[1].attempts[i].succeeded);
    EXPECT_EQ(stats[0].attempts[i].llt, stats[1].attempts[i].llt);
    EXPECT_EQ(stats[0].attempts[i].tolerance, stats[1].attempts[i].tolerance);
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// The supernode the scheduler starts first. Initially-ready leaves are
/// submitted in ascending index order and the work-stealing heap pops the
/// highest critical-path priority (FIFO tie-break), so the first task is the
/// priority argmax (a leaf: chain costs strictly decrease toward the root).
index_t first_scheduled_supernode(const CscMatrix& a, SolverOptions opts) {
  opts.threads = 1;
  Solver probe(opts);
  probe.analyze(a);
  const auto& prio = probe.symbolic().critical_priorities();
  return static_cast<index_t>(std::max_element(prio.begin(), prio.end()) -
                              prio.begin());
}

TEST(Cancellation, BreakdownCancelsOutstandingWork) {
  // Plenty of supernodes, with the fault at the first leaf the scheduler
  // picks. How much other work the workers start before the cancel lands
  // depends on the host's timing; the deterministic count of run and
  // discarded tasks is pinned at the drain layer (the next test). Here the
  // breakdown must stop the graph, and the pool must survive it.
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.threads = 4;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = first_scheduled_supernode(a, opts);
  Solver solver(opts);

  EXPECT_THROW(solver.factorize(a), NumericalError);

  const SolverStats& st = solver.stats();
  ASSERT_GT(st.num_cblks, 40) << "test matrix too small to be meaningful";
  // The failed Elim releases none of its successors: its updates and every
  // task that waits on them never run.
  EXPECT_LT(st.dag_executed, st.dag_tasks);

  // Per-worker counters are consistent with the aggregate.
  std::uint64_t discarded = 0;
  for (const auto& ws : solver.worker_stats()) discarded += ws.discarded;
  EXPECT_EQ(discarded, st.scheduler_discarded);

  // The pool survives cancellation: the consumed fault budget lets the same
  // solver factorize and solve cleanly.
  solver.factorize(a);
  const auto b = random_rhs(a.rows(), 7);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5);
  EXPECT_EQ(solver.stats().scheduler_discarded, 0u);
}

TEST(Cancellation, DrainDiscardsQueuedWorkDeterministically) {
  // A breakdown with a deterministic trigger: the first task to start holds
  // every other worker inside a task of its own until it has cancelled the
  // pool, the way NumericFactor::record_failure does. Exactly one task per
  // worker runs; every queued task, and every successor the held tasks
  // release, is discarded unrun; the pool is then reusable.
  constexpr int kWorkers = 4;
  constexpr std::uint32_t kRoots = 64;
  core::DepBuilder builder;
  for (std::uint32_t i = 0; i < kRoots; ++i) {
    const auto root = builder.add_task();
    builder.write(root, i);
    const auto succ = builder.add_task();
    builder.write(succ, i);  // root -> succ
  }
  const core::DepBuilder::Deps deps = builder.infer();
  const auto no_priority = [](std::uint32_t) -> std::int64_t { return 0; };

  ThreadPool pool(kWorkers);
  std::atomic<bool> first{true};
  std::atomic<int> held{0};
  std::atomic<bool> cancelled{false};
  const core::DepDrainStats rs = core::drain_deps(
      deps, &pool,
      [&](std::uint32_t) {
        if (first.exchange(false)) {
          while (held.load() < kWorkers - 1) std::this_thread::yield();
          pool.cancel();  // the breakdown
          cancelled.store(true);
          return false;
        }
        held.fetch_add(1);
        while (!cancelled.load()) std::this_thread::yield();
        return true;
      },
      no_priority);

  // (a) few tasks ran: one per worker,
  EXPECT_EQ(rs.executed, static_cast<std::uint64_t>(kWorkers));
  const ThreadPool::WorkerStats ws = pool.total_stats();
  EXPECT_EQ(ws.executed, static_cast<std::uint64_t>(kWorkers));
  // (b) queued work was discarded: the other roots, and the successors the
  // held tasks released; the failed task's successor was never submitted.
  EXPECT_EQ(ws.discarded, (kRoots - kWorkers) + (kWorkers - 1));
  EXPECT_EQ(pool.pending(), 0);

  // (c) the pool is reusable once the cancel is cleared.
  pool.reset_cancel();
  pool.reset_stats();
  const core::DepDrainStats again = core::drain_deps(
      deps, &pool, [](std::uint32_t) { return true; }, no_priority);
  EXPECT_EQ(again.executed, 2 * kRoots);
  EXPECT_EQ(pool.total_stats().discarded, 0u);
}

// ---------------------------------------------------------------------------
// Inherent (non-injected) breakdowns
// ---------------------------------------------------------------------------

TEST(Breakdown, NonSpdMatrixForcedToLltReportsNonPositivePivot) {
  const CscMatrix a = negated(sparse::laplacian_3d(6, 6, 6));
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::Dense;
  opts.factorization = Factorization::Llt;
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NonPositivePivot);
    EXPECT_GE(e.report().supernode, 0);
    EXPECT_GE(e.report().local_pivot, 0);
    EXPECT_EQ(e.report().factorization, "LLt");
  }
  EXPECT_FALSE(solver.factorized());
}

TEST(Breakdown, StructurallySingularLuReportsZeroPivot) {
  const CscMatrix base = sparse::laplacian_2d(16, 16);
  const CscMatrix a = zero_row_col(base, base.rows() / 2);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::Dense;
  opts.factorization = Factorization::Lu;
  opts.pivot_threshold = 0;  // no static pivoting: the zero pivot must throw
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::ZeroPivot);
    EXPECT_GE(e.report().supernode, 0);
    EXPECT_EQ(e.report().pivot_magnitude, 0.0);
  }
}

TEST(Breakdown, NonFiniteInputIsRejectedBeforeFactorization) {
  CscMatrix a = sparse::laplacian_2d(8, 8);
  a.values()[3] = std::numeric_limits<real_t>::quiet_NaN();
  Solver solver(small_opts());
  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::NonFiniteInput);
  }
}

// ---------------------------------------------------------------------------
// Guards on the solve path
// ---------------------------------------------------------------------------

TEST(Breakdown, SolveBeforeFactorizeThrowsClearError) {
  Solver solver;
  std::vector<real_t> b(10, 1.0), x(10);
  try {
    solver.solve(b.data(), x.data());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("factorize()"), std::string::npos);
  }
  EXPECT_THROW(solver.preconditioner(), Error);
  EXPECT_THROW((void)solver.solve(b), Error);
}

// ---------------------------------------------------------------------------
// Recovery ladder
// ---------------------------------------------------------------------------

TEST(Recovery, TransientFaultRetriesAndMatchesCleanDenseRun) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const auto b = random_rhs(a.rows(), 11);

  // Clean Dense reference.
  SolverOptions dense = small_opts();
  dense.strategy = Strategy::Dense;
  Solver ref(dense);
  ref.factorize(a);
  std::vector<real_t> xref(b.size());
  ref.solve(b.data(), xref.data());
  const real_t err_ref = sparse::backward_error(a, xref.data(), b.data());

  // Parallel JIT run with a transient tiny pivot and a dense-fallback rung:
  // attempt 0 breaks down, attempt 1 re-runs as Dense (fault consumed).
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;  // deterministic zero-pivot kind
  opts.threads = 4;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  opts.fault.max_triggers = 1;
  opts.recovery.enabled = true;
  RecoveryStep fallback;
  fallback.action = RecoveryStep::Action::DenseFallback;
  opts.recovery.ladder = {fallback};
  Solver solver(opts);

  solver.factorize(a);  // no throw: the ladder absorbed the breakdown
  EXPECT_TRUE(solver.factorized());

  const SolverStats& st = solver.stats();
  ASSERT_EQ(st.attempts.size(), 2u);
  EXPECT_FALSE(st.attempts[0].succeeded);
  EXPECT_NE(st.attempts[0].error.find("zero-pivot"), std::string::npos);
  EXPECT_TRUE(st.attempts[1].succeeded);
  EXPECT_EQ(st.attempts[1].action, "dense-fallback");
  EXPECT_EQ(st.attempts[1].strategy, "Dense");

  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  const real_t err = sparse::backward_error(a, x.data(), b.data());
  // The retry ran the same clean Dense factorization the reference did.
  EXPECT_LT(err, 1e-12);
  EXPECT_LT(err, err_ref * 100 + 1e-14);
}

TEST(Recovery, DefaultLadderWalksToStaticPivotingForLltBreakdown) {
  // -Laplacian forced to LLᵗ is a persistent breakdown: tightening τ cannot
  // help, so the ladder must climb to static pivoting, which re-runs as LU
  // and succeeds.
  const CscMatrix a = negated(sparse::laplacian_3d(6, 6, 6));
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Llt;
  opts.recovery.enabled = true;  // empty ladder -> default_ladder()
  Solver solver(opts);

  solver.factorize(a);
  EXPECT_TRUE(solver.factorized());
  EXPECT_FALSE(solver.is_llt());

  const SolverStats& st = solver.stats();
  ASSERT_EQ(st.attempts.size(), 3u);  // initial, tighten-tolerance, static-pivoting
  EXPECT_FALSE(st.attempts[0].succeeded);
  EXPECT_EQ(st.attempts[1].action, "tighten-tolerance");
  EXPECT_FALSE(st.attempts[1].succeeded);
  EXPECT_EQ(st.attempts[2].action, "static-pivoting");
  EXPECT_TRUE(st.attempts[2].succeeded);
  EXPECT_FALSE(st.attempts[2].llt);

  const auto b = random_rhs(a.rows(), 3);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-5);
}

TEST(Recovery, ExhaustedLadderRethrowsWithAttemptCount) {
  // An unlimited-trigger fault defeats every rung: the final throw carries
  // the attempt index of the last try and stats record every attempt.
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  opts.fault.max_triggers = -1;  // never consumed
  opts.recovery.enabled = true;
  RecoveryStep tighten;  // a rung that cannot cure an injected zero pivot
  tighten.action = RecoveryStep::Action::TightenTolerance;
  opts.recovery.ladder = {tighten};
  Solver solver(opts);

  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().attempt, 1);
    EXPECT_NE(std::string(e.what()).find("attempt 1"), std::string::npos);
  }
  EXPECT_FALSE(solver.factorized());
  const SolverStats& st = solver.stats();
  ASSERT_EQ(st.attempts.size(), 2u);
  EXPECT_FALSE(st.attempts[0].succeeded);
  EXPECT_FALSE(st.attempts[1].succeeded);
}

TEST(Recovery, PrintSummaryListsAttempts) {
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  SolverOptions opts = small_opts();
  opts.strategy = Strategy::JustInTime;
  opts.factorization = Factorization::Lu;
  opts.fault.kind = FaultInjection::Kind::TinyPivot;
  opts.fault.supernode = 0;
  opts.recovery.enabled = true;
  Solver solver(opts);
  solver.factorize(a);

  std::ostringstream os;
  solver.print_summary(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("recovery"), std::string::npos);
  EXPECT_NE(s.find("[initial]"), std::string::npos);
  EXPECT_NE(s.find("[tighten-tolerance]"), std::string::npos);
}

} // namespace
