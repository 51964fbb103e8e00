// Parallel supernodal triangular solve tests (ctest label `solve`;
// DESIGN.md §16).
//
// Pins the solve-phase contracts:
//  - the parallel solve (DAG drain over the solve pool) is memcmp-identical
//    to the sequential drain, across strategies, factorization kinds,
//    precisions, solve thread counts and RHS widths;
//  - both are memcmp-identical to an independent test-local per-block
//    push-form two-sweep written directly against the stored factors;
//  - the SolvePlan is built once per symbolic plan and replayed by every
//    refactorize (plan_builds/plan_reuses counters);
//  - the fp32 widen cache is built lazily on the first solve, hit by every
//    later low-rank apply, and invalidated wholesale by refactorize();
//  - the solve kernels count themselves in the kernel table (solve_trsm /
//    solve_gemm rows);
//  - a Session serving concurrent clients over the parallel solve returns
//    bit-identical answers and reports the solve-phase detail per request.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blr.hpp"
#include "core/solve_plan.hpp"
#include "linalg/blas.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

SolverOptions base_options(Strategy strategy, TilePrecision precision,
                           int threads) {
  SolverOptions o;
  o.strategy = strategy;
  o.precision = precision;
  o.threads = threads;
  o.tolerance = 1e-8;
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

std::vector<real_t> seeded_block(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(nrhs));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// Same pattern, different values (keeps SPD matrices SPD).
CscMatrix step_values(const CscMatrix& a, real_t scale, real_t shift) {
  CscMatrix out = a;
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t p = out.colptr()[static_cast<std::size_t>(j)];
         p < out.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      out.values()[static_cast<std::size_t>(p)] *= scale;
      if (out.rowind()[static_cast<std::size_t>(p)] == j) {
        out.values()[static_cast<std::size_t>(p)] += shift;
      }
    }
  }
  return out;
}

// ---- (a) parallel == sequential, bitwise ----------------------------------

struct SolveConfig {
  Strategy strategy;
  Factorization facto;
  TilePrecision precision;
  int factor_threads;
  int solve_threads;
};

std::string config_name(const ::testing::TestParamInfo<SolveConfig>& info) {
  std::string s = core::strategy_name(info.param.strategy);
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](char c) { return c == ' ' || c == '-'; }),
          s.end());
  // "Adaptive" keeps the test ID of a deleted strategy; it marks the
  // Minimal-Memory LLᵗ run with fp32-at-rest tiles.
  if (info.param.strategy == Strategy::MinimalMemory &&
      info.param.facto == Factorization::Auto &&
      info.param.precision == TilePrecision::MixedTiles)
    s = "Adaptive";
  // "Dag"/"Barrier" keep the test IDs of the former engine axis; they mark
  // LU and the matrix's own (LLᵗ) factorization.
  s += info.param.facto == Factorization::Lu ? "Dag" : "Barrier";
  s += info.param.precision == TilePrecision::MixedTiles ? "Mixed" : "Fp64";
  s += "S" + std::to_string(info.param.solve_threads);
  return s;
}

class ParallelSolveDeterminism : public ::testing::TestWithParam<SolveConfig> {
};

// The parallel DAG drain reproduces the sequential drain bit for bit, from
// a single RHS up to batches wider than the pool.
TEST_P(ParallelSolveDeterminism, MatchesSequentialBitwise) {
  const SolveConfig cfg = GetParam();
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const index_t n = a.rows();

  SolverOptions seq_opts =
      base_options(cfg.strategy, cfg.precision, cfg.factor_threads);
  seq_opts.factorization = cfg.facto;
  seq_opts.solve_threads = 1;
  SolverOptions par_opts = seq_opts;
  par_opts.solve_threads = cfg.solve_threads;

  Solver seq(seq_opts);
  Solver par(par_opts);
  seq.factorize(a);
  par.factorize(a);

  // Narrow and wide blocks alike go through the DAG drain.
  const index_t widths[] = {1, 3,
                            static_cast<index_t>(4 * cfg.solve_threads)};
  for (const index_t nrhs : widths) {
    const auto b = seeded_block(n, nrhs, 1000 + static_cast<std::uint64_t>(nrhs));
    std::vector<real_t> xs(b.size()), xp(b.size());
    seq.solve(la::DConstView(b.data(), n, nrhs, n),
              la::DView(xs.data(), n, nrhs, n));
    par.solve(la::DConstView(b.data(), n, nrhs, n),
              la::DView(xp.data(), n, nrhs, n));
    ASSERT_EQ(0, std::memcmp(xs.data(), xp.data(), xs.size() * sizeof(real_t)))
        << "nrhs = " << nrhs;
  }

  // The parallel path actually engaged (and the sequential solver never
  // touched its — nonexistent — pool).
  const core::SolvePhaseStats& sp = par.stats().solve_phase;
  EXPECT_GT(sp.parallel_solves, 0u);
  EXPECT_GT(sp.tasks_executed, 0u);
  EXPECT_EQ(seq.stats().solve_phase.parallel_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelSolveDeterminism,
    ::testing::Values(
        SolveConfig{Strategy::JustInTime, Factorization::Auto,
                    TilePrecision::Fp64, 1, 2},
        SolveConfig{Strategy::JustInTime, Factorization::Lu,
                    TilePrecision::Fp64, 2, 8},
        SolveConfig{Strategy::JustInTime, Factorization::Lu,
                    TilePrecision::MixedTiles, 2, 2},
        SolveConfig{Strategy::MinimalMemory, Factorization::Auto,
                    TilePrecision::Fp64, 1, 8},
        SolveConfig{Strategy::MinimalMemory, Factorization::Lu,
                    TilePrecision::MixedTiles, 2, 8},
        SolveConfig{Strategy::MinimalMemory, Factorization::Auto,
                    TilePrecision::MixedTiles, 1, 2}),
    config_name);

// ---- (b) solve plan: built once, replayed by every refactorize ------------

TEST(SolvePlanCache, BuiltOnceReusedAcrossRefactorize) {
  const CscMatrix a1 = sparse::laplacian_3d(8, 8, 8);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  SolverOptions opts =
      base_options(Strategy::JustInTime, TilePrecision::Fp64, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a1);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
  EXPECT_EQ(solver.stats().solve_phase.plan_reuses, 0u);

  // The cached plan object is shared, not rebuilt.
  const auto p1 = solver.plan()->solve_plan();
  const auto p2 = solver.plan()->solve_plan();
  EXPECT_EQ(p1.get(), p2.get());

  // Structure: one forward and one backward task per supernode.
  const core::SymbolicPlan& plan = *solver.plan();
  EXPECT_EQ(p1->num_tasks(),
            2 * static_cast<std::uint64_t>(plan.sf.num_cblks()));
  EXPECT_GT(p1->critical_path(), 0u);

  solver.refactorize(a2);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
  EXPECT_EQ(solver.stats().solve_phase.plan_reuses, 1u);
  EXPECT_EQ(solver.plan()->solve_plan().get(), p1.get());

  // A fresh analyze drops the cache with the plan it belongs to.
  solver.analyze(a1);
  solver.factorize(a1);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
}

// ---- (c) fp32 widen cache: lazy build, hits, refactorize invalidation -----

TEST(WidenCache, BuiltOnFirstSolveInvalidatedByRefactorize) {
  const CscMatrix a1 = sparse::laplacian_3d(12, 12, 12);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  SolverOptions opts = base_options(Strategy::MinimalMemory,
                                    TilePrecision::MixedTiles, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a1);
  ASSERT_GT(solver.stats().num_fp32_blocks, 0);

  // Lazy: nothing widened until the first solve.
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), 0u);
  const auto b = seeded_block(a1.rows(), 1, 9);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  const std::size_t bytes1 = solver.numeric().widen_cache_bytes();
  EXPECT_GT(bytes1, 0u);
  EXPECT_GT(solver.numeric().widen_cache_tiles(), 0u);
  EXPECT_GT(solver.stats().solve_phase.widen_hits, 0u);
  EXPECT_EQ(solver.stats().solve_phase.widen_bytes, bytes1);

  // Every later solve hits the cache instead of re-promoting.
  const std::uint64_t hits1 = solver.numeric().widen_hits();
  solver.solve(b.data(), x.data());
  EXPECT_GT(solver.numeric().widen_hits(), hits1);
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), bytes1);

  // refactorize() produces fresh factors -> the old epoch's cache is gone
  // until the next solve rebuilds it against the new values.
  solver.refactorize(a2);
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), 0u);
  EXPECT_EQ(solver.numeric().widen_hits(), 0u);
  solver.solve(b.data(), x.data());
  EXPECT_GT(solver.numeric().widen_cache_bytes(), 0u);
  EXPECT_LT(sparse::backward_error(a2, x.data(), b.data()), 1e-4);
}

// ---- (d) dispatch integration: solve kernels in the table -----------------

TEST(SolveDispatch, SolveKernelsCountedInKernelTable) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = base_options(Strategy::MinimalMemory,
                                    TilePrecision::MixedTiles, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a);
  const auto b = seeded_block(a.rows(), 1, 5);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());

  std::uint64_t trsm_calls = 0, gemm_calls = 0, ge_calls = 0, lr32_calls = 0;
  for (const core::DispatchCount& d : solver.stats().dispatch) {
    if (d.kernel.rfind("solve_trsm", 0) == 0) trsm_calls += d.calls;
    if (d.kernel.rfind("solve_gemm", 0) == 0) gemm_calls += d.calls;
    if (d.kernel == "solve_gemm[ge]") ge_calls += d.calls;
    if (d.kernel == "solve_gemm[lr32]") lr32_calls += d.calls;
  }
  // Two trsm per supernode (forward + backward).
  EXPECT_EQ(trsm_calls,
            2 * static_cast<std::uint64_t>(solver.stats().num_cblks));
  EXPECT_GT(gemm_calls, 0u);
  // Dense tile applies are dispatched per task, not per tile.
  EXPECT_GT(ge_calls, 0u);
  EXPECT_LE(ge_calls,
            2 * static_cast<std::uint64_t>(solver.stats().num_cblks));
  // fp32-at-rest tiles route through the widened-operand lr32 kernel row.
  EXPECT_GT(lr32_calls, 0u);
  EXPECT_GT(solver.stats().solve_phase.tasks_executed, 0u);
}

// ---- (e) independent reference: per-block push-form two-sweep -------------

// Low-rank factor as an fp64 matrix (fp32-at-rest factors widened here).
la::DMatrix fp64_factor(const la::DMatrix& f64, const la::SMatrix& f32,
                        lr::Precision prec) {
  if (prec != lr::Precision::Fp32) return f64;
  la::DMatrix out(f32.rows(), f32.cols());
  la::convert(f32.cview(), out.view());
  return out;
}

// out -= blk·in (forward) or out -= blkᵗ·in (backward).
void reference_apply(const lr::Tile& blk, la::DConstView in, la::DView out,
                     bool backward) {
  if (blk.rank() == 0) return;
  if (!blk.is_lowrank()) {
    la::gemm(backward ? la::Trans::Yes : la::Trans::No, la::Trans::No,
             real_t(-1), blk.dense().cview(), in, real_t(1), out);
    return;
  }
  const lr::LrMatrix& f = blk.lr();
  const la::DMatrix u = fp64_factor(f.u, f.u32, f.prec);
  const la::DMatrix v = fp64_factor(f.v, f.v32, f.prec);
  // blk = u·vᵗ: forward u·(vᵗ·in), backward v·(uᵗ·in).
  const la::DMatrix& left = backward ? v : u;
  const la::DMatrix& right = backward ? u : v;
  la::DMatrix tmp(right.cols(), in.cols);
  la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), right.cview(), in,
           real_t(0), tmp.view());
  la::gemm(la::Trans::No, la::Trans::No, real_t(-1), left.cview(), tmp.cview(),
           real_t(1), out);
}

// The textbook supernodal two-sweep, one panel block at a time, pushing each
// forward update into its target as soon as the source is solved. Written
// against the stored factors with la:: calls only — no SolvePlan, no kernel
// dispatch — so it checks the solve's arithmetic, not just its determinism.
std::vector<real_t> reference_solve(const Solver& s, const std::vector<real_t>& b,
                                    index_t nrhs) {
  const core::NumericFactor& nf = s.numeric();
  const symbolic::SymbolicFactor& sf = s.symbolic();
  const ordering::Ordering& ord = s.ordering();
  const bool llt = s.is_llt();
  const index_t n = sf.n();
  la::DMatrix xp(n, nrhs);
  for (index_t r = 0; r < nrhs; ++r)
    for (index_t i = 0; i < n; ++i)
      xp(i, r) = b[static_cast<std::size_t>(
          ord.perm[static_cast<std::size_t>(i)] + r * n)];
  const la::DView x = xp.view();
  const auto seg = [&](index_t row, index_t rows) {
    return x.sub(row, 0, rows, nrhs);
  };

  for (index_t k = 0; k < sf.num_cblks(); ++k) {
    const symbolic::Cblk& c = sf.cblk(k);
    const core::CblkData& cd = nf.cblk_data(k);
    const la::DView xk = seg(c.fcol, c.width());
    if (llt) {
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
               la::Diag::NonUnit, real_t(1), cd.diag.dense().cview(), xk);
    } else {
      for (std::size_t j = 0; j < cd.ipiv.size(); ++j) {
        const index_t p = cd.ipiv[j];
        for (index_t r = 0; r < nrhs; ++r)
          std::swap(xk(static_cast<index_t>(j), r), xk(p, r));
      }
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No, la::Diag::Unit,
               real_t(1), cd.diag.dense().cview(), xk);
    }
    for (std::size_t bi = 0; bi < c.bloks.size(); ++bi) {
      const symbolic::Blok& bl = c.bloks[bi];
      reference_apply(cd.lpanel[bi], xk, seg(bl.frow, bl.height()),
                      /*backward=*/false);
    }
  }
  for (index_t k = sf.num_cblks(); k-- > 0;) {
    const symbolic::Cblk& c = sf.cblk(k);
    const core::CblkData& cd = nf.cblk_data(k);
    const la::DView xk = seg(c.fcol, c.width());
    for (std::size_t bi = 0; bi < c.bloks.size(); ++bi) {
      const symbolic::Blok& bl = c.bloks[bi];
      reference_apply(llt ? cd.lpanel[bi] : cd.upanel[bi],
                      seg(bl.frow, bl.height()), xk, /*backward=*/true);
    }
    la::trsm(la::Side::Left, llt ? la::Uplo::Lower : la::Uplo::Upper,
             llt ? la::Trans::Yes : la::Trans::No, la::Diag::NonUnit, real_t(1),
             cd.diag.dense().cview(), xk);
  }

  std::vector<real_t> out(b.size());
  for (index_t r = 0; r < nrhs; ++r)
    for (index_t j = 0; j < n; ++j)
      out[static_cast<std::size_t>(j + r * n)] =
          xp(ord.iperm[static_cast<std::size_t>(j)], r);
  return out;
}

TEST(SolveReference, PerBlockSweepBitwise) {
  struct Case {
    const char* name;
    Strategy strategy;
    Factorization factorization;
    TilePrecision precision;
  };
  const Case cases[] = {
      {"JIT LLt", Strategy::JustInTime, Factorization::Llt, TilePrecision::Fp64},
      {"MinMem LU", Strategy::MinimalMemory, Factorization::Lu,
       TilePrecision::Fp64},
      {"MinMem MixedTiles", Strategy::MinimalMemory, Factorization::Auto,
       TilePrecision::MixedTiles},
  };
  for (const Case& cs : cases) {
    const CscMatrix a = cs.factorization == Factorization::Lu
                            ? sparse::convection_diffusion_3d(12, 12, 12, 0.5)
                            : sparse::laplacian_3d(12, 12, 12);
    const index_t n = a.rows();
    for (const int solve_threads : {1, 4}) {
      SCOPED_TRACE(std::string(cs.name) + ", solve_threads " +
                   std::to_string(solve_threads));
      SolverOptions opts = base_options(cs.strategy, cs.precision, 1);
      opts.factorization = cs.factorization;
      opts.solve_threads = solve_threads;
      Solver solver(opts);
      solver.factorize(a);
      ASSERT_EQ(solver.is_llt(), cs.factorization != Factorization::Lu);
      // The reference exercises every tile kind it claims to cover.
      ASSERT_GT(solver.stats().num_lowrank_blocks, 0);
      if (cs.precision == TilePrecision::MixedTiles) {
        ASSERT_GT(solver.stats().num_fp32_blocks, 0);
      }
      // 50 columns drain as three uneven column chunks at 4 solve threads.
      for (const index_t nrhs : {1, 3, 16, 50}) {
        const auto b = seeded_block(n, nrhs, 77 + static_cast<std::uint64_t>(nrhs));
        std::vector<real_t> x(b.size());
        solver.solve(la::DConstView(b.data(), n, nrhs, n),
                     la::DView(x.data(), n, nrhs, n));
        const std::vector<real_t> want = reference_solve(solver, b, nrhs);
        ASSERT_EQ(0, std::memcmp(x.data(), want.data(), x.size() * sizeof(real_t)))
            << "nrhs = " << nrhs;
      }
      EXPECT_EQ(solver.stats().solve_phase.parallel_solves > 0,
                solve_threads > 1);
      EXPECT_EQ(solver.stats().solve_phase.split_solves > 0,
                solve_threads > 1);
    }
  }
}

// ---- (e2) small solves drain on the calling thread -------------------------

// A solve below kSolvePoolFlops drains on the calling thread even with a
// solve pool; from the threshold on it drains over the pool. Both sides of
// the threshold are pinned on one factor by the width of the RHS block, and
// both give the sequential bits.
TEST(ParallelSolveThreshold, SmallSolvesDrainOnCallingThread) {
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  const index_t n = a.rows();
  SolverOptions opts = base_options(Strategy::JustInTime, TilePrecision::Fp64, 1);
  opts.solve_threads = 4;
  Solver solver(opts);
  solver.factorize(a);
  SolverOptions seq_opts = opts;
  seq_opts.solve_threads = 1;
  Solver seq(seq_opts);
  seq.factorize(a);

  const double per_rhs = solver.numeric().solve_flops_per_rhs();
  ASSERT_GT(per_rhs, 0.0);
  // The widest block below the threshold, and one column more.
  const auto below = static_cast<index_t>(std::ceil(core::kSolvePoolFlops / per_rhs)) - 1;
  ASSERT_GE(below, 1) << "lap 6^3 is too large for a 1-RHS solve below the threshold";
  for (const index_t nrhs : {index_t(1), below, below + 1}) {
    const auto b = seeded_block(n, nrhs, 500 + static_cast<std::uint64_t>(nrhs));
    std::vector<real_t> x(b.size()), want(b.size());
    const core::SolvePhaseStats before = solver.stats().solve_phase;
    solver.solve(la::DConstView(b.data(), n, nrhs, n), la::DView(x.data(), n, nrhs, n));
    seq.solve(la::DConstView(b.data(), n, nrhs, n), la::DView(want.data(), n, nrhs, n));
    const core::SolvePhaseStats& after = solver.stats().solve_phase;
    const bool pooled = per_rhs * static_cast<double>(nrhs) >= core::kSolvePoolFlops;
    EXPECT_EQ(pooled, nrhs == below + 1) << "nrhs = " << nrhs;
    EXPECT_EQ(after.parallel_solves - before.parallel_solves, pooled ? 1u : 0u)
        << "nrhs = " << nrhs;
    EXPECT_EQ(after.sequential_solves - before.sequential_solves, pooled ? 0u : 1u)
        << "nrhs = " << nrhs;
    ASSERT_EQ(0, std::memcmp(x.data(), want.data(), x.size() * sizeof(real_t)))
        << "nrhs = " << nrhs;
  }
}

// ---- (f) session: concurrent clients over the parallel solve --------------

TEST(SessionParallelSolve, ConcurrentClientsBitIdenticalToSequential) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const index_t n = a.rows();
  SolverOptions opts =
      base_options(Strategy::JustInTime, TilePrecision::Fp64, 2);
  opts.solve_threads = 4;

  SolverOptions ref_opts = opts;
  ref_opts.solve_threads = 1;
  ref_opts.threads = 1;

  Session session(opts);
  session.refactorize(a);
  Solver ref(ref_opts);
  ref.factorize(a);

  constexpr int kClients = 8;
  std::vector<std::vector<real_t>> bs, xs, want;
  for (int i = 0; i < kClients; ++i) {
    bs.push_back(seeded_block(n, 1, 100 + static_cast<std::uint64_t>(i)));
    xs.emplace_back(static_cast<std::size_t>(n));
    want.emplace_back(static_cast<std::size_t>(n));
    ref.solve(bs.back().data(), want.back().data());
  }

  std::vector<SolveStats> st(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      st[static_cast<std::size_t>(i)] =
          session.solve(bs[static_cast<std::size_t>(i)].data(),
                        xs[static_cast<std::size_t>(i)].data());
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(0, std::memcmp(xs[static_cast<std::size_t>(i)].data(),
                             want[static_cast<std::size_t>(i)].data(),
                             static_cast<std::size_t>(n) * sizeof(real_t)))
        << "client " << i;
    // Per-request solve-phase detail: the blocked solve that served each
    // request ran on the solve engine (DAG drain) and reported its task
    // count.
    const SolveStats& s = st[static_cast<std::size_t>(i)];
    EXPECT_TRUE(s.parallel || s.column_split) << "client " << i;
    EXPECT_GT(s.solve_tasks, 0u) << "client " << i;
  }
}

// Direct Solver::solve entry points racing the session's queue must not
// deadlock or corrupt results: the engine lock's loser falls back to the
// sequential sweep, which is bit-identical anyway.
TEST(SessionParallelSolve, EngineContentionFallsBackSequentially) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const index_t n = a.rows();
  SolverOptions opts =
      base_options(Strategy::JustInTime, TilePrecision::Fp64, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a);

  const auto b = seeded_block(n, 1, 321);
  std::vector<real_t> want(static_cast<std::size_t>(n));
  solver.solve(b.data(), want.data());

  constexpr int kRacers = 6;
  std::vector<std::vector<real_t>> xs(kRacers);
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    xs[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(n));
    racers.emplace_back([&, i] {
      // NumericFactor::solve is const and safe under concurrent callers;
      // stats capture is skipped to keep the race on the engine lock only.
      solver.numeric().solve(b.data(), xs[static_cast<std::size_t>(i)].data());
    });
  }
  for (auto& t : racers) t.join();
  for (int i = 0; i < kRacers; ++i) {
    ASSERT_EQ(0, std::memcmp(xs[static_cast<std::size_t>(i)].data(),
                             want.data(),
                             static_cast<std::size_t>(n) * sizeof(real_t)))
        << "racer " << i;
  }
}

} // namespace
