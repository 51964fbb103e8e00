// The factorization task graph's pinning harness (DESIGN.md §12): unit
// tests for read/write-set dependency inference, release order, and the
// epoch hand-off contract, plus the randomized stress grid that memcmp's
// every parallel run — every strategy and factorization kind — against the
// sequential (task-id order) factors bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "blr.hpp"
#include "core/task_graph.hpp"

namespace {

using namespace blr;
using core::DagTask;
using core::DagTaskKind;
using core::DepBuilder;
using core::drain_deps;
using core::EpochGate;
using core::TaskGraph;
using sparse::CscMatrix;

// ---------------------------------------------------------------- DepBuilder

TEST(DepBuilder, ReadDependsOnLastWriter) {
  DepBuilder b;
  const auto w = b.add_task();
  const auto r1 = b.add_task();
  const auto r2 = b.add_task();
  b.write(w, 7);
  b.read(r1, 7);
  b.read(r2, 7);
  const auto d = b.infer();
  EXPECT_EQ(d.num_edges, 2u);
  EXPECT_EQ(d.indeg[w], 0);
  EXPECT_EQ(d.indeg[r1], 1);
  EXPECT_EQ(d.indeg[r2], 1);
}

TEST(DepBuilder, WriteDependsOnReadersSinceLastWrite) {
  DepBuilder b;
  const auto w1 = b.add_task();
  const auto r1 = b.add_task();
  const auto r2 = b.add_task();
  const auto w2 = b.add_task();
  b.write(w1, 3);
  b.read(r1, 3);
  b.read(r2, 3);
  b.write(w2, 3);
  const auto d = b.infer();
  // w1→r1, w1→r2, r1→w2, r2→w2 — and crucially NOT w1→w2 (the readers
  // already transitively order the writers, and the WAR edges are what
  // serialize the write chain).
  EXPECT_EQ(d.num_edges, 4u);
  EXPECT_EQ(d.indeg[w2], 2);
}

TEST(DepBuilder, WritersChainWithoutIntermediateReaders) {
  DepBuilder b;
  const auto w1 = b.add_task();
  const auto w2 = b.add_task();
  const auto w3 = b.add_task();
  b.write(w1, 0);
  b.write(w2, 0);
  b.write(w3, 0);
  const auto d = b.infer();
  EXPECT_EQ(d.num_edges, 2u);  // w1→w2→w3, a chain in declaration order
  EXPECT_EQ(d.indeg[w1], 0);
  EXPECT_EQ(d.indeg[w2], 1);
  EXPECT_EQ(d.indeg[w3], 1);
}

TEST(DepBuilder, DuplicateEdgesAcrossAddressesCollapse) {
  DepBuilder b;
  const auto a = b.add_task();
  const auto c = b.add_task();
  b.write(a, 1);
  b.write(a, 2);
  b.write(a, 3);
  b.read(c, 1);
  b.read(c, 2);
  b.write(c, 3);  // write-after-write: the same pair a third time
  const auto d = b.infer();
  EXPECT_EQ(d.num_edges, 1u);
  EXPECT_EQ(d.indeg[c], 1);
}

TEST(DepBuilder, OutOfOrderAccessDeclarationThrows) {
  DepBuilder b;
  const auto t0 = b.add_task();
  const auto t1 = b.add_task();
  b.write(t1, 5);
  b.write(t0, 5);  // accesses must be declared in task order
  EXPECT_THROW((void)b.infer(), Error);
}

// ----------------------------------------------------------------- EpochGate

TEST(EpochGateTest, ExpectAndAdvanceFollowTheProtocol) {
  EpochGate g(3);
  EXPECT_EQ(g.load(0), EpochGate::kUnassembled);
  EXPECT_NO_THROW(g.expect(0, EpochGate::kUnassembled));
  g.advance(0, EpochGate::kUnassembled, EpochGate::kAssembled);
  EXPECT_NO_THROW(g.expect(0, EpochGate::kAssembled));
  EXPECT_THROW(g.expect(0, EpochGate::kFactored), Error);
  // A double advance (a task running twice, or out of order) is caught by
  // the CAS, not absorbed.
  EXPECT_THROW(g.advance(0, EpochGate::kUnassembled, EpochGate::kAssembled),
               Error);
  g.advance(0, EpochGate::kAssembled, EpochGate::kFactored);
  EXPECT_EQ(g.load(0), EpochGate::kFactored);
  EXPECT_EQ(g.load(1), EpochGate::kUnassembled);  // addresses are independent
}

// ------------------------------------------------------------ TaskGraph shape

symbolic::SymbolicFactor small_symbolic(const CscMatrix& a) {
  const sparse::Graph g = sparse::Graph::from_matrix(a);
  ordering::Ordering ord = ordering::nested_dissection(g, {});
  std::vector<index_t> ranges =
      symbolic::split_ranges(ord.ranges, core::SolverOptions{}.split);
  return symbolic::SymbolicFactor::build(a, ord, ranges);
}

/// (source, target) pairs of the symbolic structure: one per distinct
/// target among each supernode's bloks.
std::uint32_t count_pairs(const symbolic::SymbolicFactor& sf) {
  std::uint32_t pairs = 0;
  for (index_t k = 0; k < sf.num_cblks(); ++k) {
    index_t last = -1;
    for (const symbolic::Blok& b : sf.cblk(k).bloks) {
      if (b.fcblk != last) ++pairs;
      last = b.fcblk;
    }
  }
  return pairs;
}

TEST(TaskGraphStructure, CanonicalIdsAndCounts) {
  const CscMatrix a = sparse::laplacian_3d(5, 5, 5);
  const symbolic::SymbolicFactor sf = small_symbolic(a);
  const TaskGraph g = TaskGraph::build(sf);
  ASSERT_GT(g.num_edges(), 0u);
  // One Elim per supernode plus one Upd per (source, target) pair.
  EXPECT_EQ(g.num_tasks(),
            static_cast<std::uint32_t>(sf.num_cblks()) + count_pairs(sf));

  // Sources in decreasing critical-path priority, each Elim(k) followed by
  // k's update groups by ascending target, each covering a nonempty run of
  // bloks that all face that target.
  const auto& prio = sf.critical_priorities();
  std::vector<char> seen(static_cast<std::size_t>(sf.num_cblks()), 0);
  index_t elims = 0;
  std::int64_t last_prio = INT64_MAX;
  for (std::uint32_t t = 0; t < g.num_tasks(); ++t) {
    const DagTask& task = g.task(t);
    if (task.kind == DagTaskKind::Elim) {
      ++elims;
      EXPECT_EQ(task.t, task.k);
      EXPECT_FALSE(seen[static_cast<std::size_t>(task.k)]);
      seen[static_cast<std::size_t>(task.k)] = 1;
      EXPECT_LE(prio[static_cast<std::size_t>(task.k)], last_prio);
      last_prio = prio[static_cast<std::size_t>(task.k)];
      continue;
    }
    ASSERT_GT(t, 0u);
    const DagTask& prev = g.task(t - 1);
    EXPECT_EQ(task.k, prev.k);
    EXPECT_GT(task.t, prev.kind == DagTaskKind::Elim ? task.k : prev.t);
    EXPECT_FALSE(seen[static_cast<std::size_t>(task.t)]);  // target not yet eliminated
    ASSERT_LT(task.b0, task.b1);
    for (index_t b = task.b0; b < task.b1; ++b)
      EXPECT_EQ(sf.cblk(task.k).bloks[static_cast<std::size_t>(b)].fcblk,
                task.t);
  }
  EXPECT_EQ(elims, sf.num_cblks());

  // Every edge points forward; the first Elim (a leaf) has no input.
  for (std::uint32_t t = 0; t < g.num_tasks(); ++t) {
    const auto [s, e] = g.successors(t);
    for (const std::uint32_t* p = s; p != e; ++p) EXPECT_GT(*p, t);
  }
  EXPECT_EQ(g.indegree(0), 0);

  // Exactly one task assembles each target t, and it precedes every other
  // task reading or writing t in every order the drain can take: each of
  // them is reachable from it along the inferred edges.
  std::vector<std::uint32_t> assembler(static_cast<std::size_t>(sf.num_cblks()),
                                       UINT32_MAX);
  for (std::uint32_t id = 0; id < g.num_tasks(); ++id) {
    if (!g.task(id).assembles) continue;
    std::uint32_t& m = assembler[static_cast<std::size_t>(g.task(id).t)];
    EXPECT_EQ(m, UINT32_MAX) << "target " << g.task(id).t << " assembled twice";
    m = id;
  }
  for (index_t t = 0; t < sf.num_cblks(); ++t) {
    const std::uint32_t m = assembler[static_cast<std::size_t>(t)];
    ASSERT_NE(m, UINT32_MAX) << "target " << t << " never assembled";
    std::vector<char> reach(g.num_tasks(), 0);
    std::vector<std::uint32_t> stack{m};
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      const auto [s, e] = g.successors(id);
      for (const std::uint32_t* p = s; p != e; ++p)
        if (!std::exchange(reach[*p], char{1})) stack.push_back(*p);
    }
    for (std::uint32_t id = 0; id < g.num_tasks(); ++id) {
      const DagTask& task = g.task(id);
      if (id == m || (task.k != t && task.t != t)) continue;
      EXPECT_TRUE(reach[id]) << "task " << id << " touches target " << t
                             << " without following its assembly " << m;
    }
  }

  // The critical path is a chain: at least Elim → Upd → Elim on the
  // longest elimination-tree path, at most every task.
  EXPECT_GE(g.critical_path(), 3u);
  EXPECT_LE(g.critical_path(), g.num_tasks());
}

TEST(TaskGraphStructure, SequentialReleaseOrderIsCanonical) {
  const CscMatrix a = sparse::laplacian_3d(5, 5, 5);
  const symbolic::SymbolicFactor sf = small_symbolic(a);
  const TaskGraph g = TaskGraph::build(sf);

  // The min-id sequential executor must release tasks exactly in id order —
  // ids are the declaration sequence, and every edge points forward.
  std::vector<std::uint32_t> order;
  const auto rs = drain_deps(
      g.deps(), nullptr,
      [&](std::uint32_t id) {
        order.push_back(id);
        return true;
      },
      [](std::uint32_t) { return 0; });
  ASSERT_EQ(order.size(), g.num_tasks());
  EXPECT_EQ(rs.executed, g.num_tasks());
  for (std::uint32_t t = 0; t < g.num_tasks(); ++t) EXPECT_EQ(order[t], t);
}

TEST(TaskGraphStructure, ParallelExecutionRespectsEveryEdge) {
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  const symbolic::SymbolicFactor sf = small_symbolic(a);
  const TaskGraph g = TaskGraph::build(sf);

  ThreadPool pool(4);
  std::vector<std::atomic<bool>> done(g.num_tasks());
  for (auto& d : done) d.store(false);
  std::atomic<bool> violated{false};

  // Predecessor lists from the successor CSR.
  std::vector<std::vector<std::uint32_t>> preds(g.num_tasks());
  for (std::uint32_t t = 0; t < g.num_tasks(); ++t) {
    const auto [s, e] = g.successors(t);
    for (const std::uint32_t* p = s; p != e; ++p) preds[*p].push_back(t);
  }

  const auto rs = drain_deps(
      g.deps(), &pool,
      [&](std::uint32_t id) {
        for (const std::uint32_t p : preds[id])
          if (!done[p].load(std::memory_order_acquire)) violated.store(true);
        done[id].store(true, std::memory_order_release);
        return true;
      },
      [](std::uint32_t) { return 0; });
  EXPECT_EQ(rs.executed, g.num_tasks());
  EXPECT_GE(rs.ready_peak, 1u);
  EXPECT_FALSE(violated.load());
}

TEST(TaskGraphStructure, CooperativeCancellationMidDag) {
  const CscMatrix a = sparse::laplacian_3d(6, 6, 6);
  const symbolic::SymbolicFactor sf = small_symbolic(a);
  const TaskGraph g = TaskGraph::build(sf);
  const std::uint32_t stop_at = g.num_tasks() / 3;

  for (const int threads : {0, 4}) {
    ThreadPool pool(threads == 0 ? 1 : threads);
    ThreadPool* pp = threads == 0 ? nullptr : &pool;
    std::atomic<std::uint64_t> ran{0};
    const auto rs = drain_deps(
        g.deps(), pp,
        [&](std::uint32_t id) {
          ran.fetch_add(1);
          if (id >= stop_at) {
            if (pp != nullptr) pp->cancel();
            return false;  // cooperative stop: successors stay unreleased
          }
          return true;
        },
        [](std::uint32_t) { return 0; });
    EXPECT_LT(rs.executed, g.num_tasks()) << "threads=" << threads;
    EXPECT_EQ(rs.executed, ran.load()) << "threads=" << threads;
    if (pp != nullptr) {
      // No task leaks past the drain: the pool is idle and reusable.
      EXPECT_EQ(pp->pending(), 0);
      pp->reset_cancel();
      std::atomic<int> again{0};
      pp->submit([&] { again.fetch_add(1); }, 0);
      pp->wait_idle();
      EXPECT_EQ(again.load(), 1);
    }
  }
}

// The epoch contract the numeric driver checks (the marked task moves its
// target from Unassembled to Assembled first; Elim(k) needs k Assembled and
// leaves it Factored; Upd(k, t) needs k Factored and t Assembled) holds on
// the graph's own order, and a run that eliminates a target before one of
// its update groups trips it.
void run_checked(const TaskGraph& g, EpochGate& gate, std::uint32_t id) {
  const DagTask& t = g.task(id);
  if (t.assembles)
    gate.advance(static_cast<std::uint64_t>(t.t), EpochGate::kUnassembled,
                 EpochGate::kAssembled);
  if (t.kind == DagTaskKind::Elim) {
    gate.expect(static_cast<std::uint64_t>(t.k), EpochGate::kAssembled);
    gate.advance(static_cast<std::uint64_t>(t.k), EpochGate::kAssembled,
                 EpochGate::kFactored);
  } else {
    gate.expect(static_cast<std::uint64_t>(t.k), EpochGate::kFactored);
    gate.expect(static_cast<std::uint64_t>(t.t), EpochGate::kAssembled);
  }
}

TEST(TaskGraphStructure, MisorderedRunTripsEpochCheck) {
  const CscMatrix a = sparse::laplacian_3d(5, 5, 5);
  const symbolic::SymbolicFactor sf = small_symbolic(a);
  const TaskGraph g = TaskGraph::build(sf);
  const auto nc = static_cast<std::uint64_t>(sf.num_cblks());

  EpochGate ok(nc);
  for (std::uint32_t id = 0; id < g.num_tasks(); ++id)
    EXPECT_NO_THROW(run_checked(g, ok, id));

  // Move the Elim of the root supernode (the last task declared for it)
  // ahead of the last update group into it.
  const index_t root = sf.num_cblks() - 1;
  std::uint32_t last_upd = UINT32_MAX;
  std::uint32_t root_elim = 0;
  for (std::uint32_t id = 0; id < g.num_tasks(); ++id) {
    const DagTask& task = g.task(id);
    if (task.kind == DagTaskKind::Upd && task.t == root) last_upd = id;
    if (task.kind == DagTaskKind::Elim && task.k == root) root_elim = id;
  }
  ASSERT_NE(last_upd, UINT32_MAX);
  ASSERT_GT(root_elim, last_upd);
  std::vector<std::uint32_t> order;
  for (std::uint32_t id = 0; id < g.num_tasks(); ++id) {
    if (id == last_upd) order.push_back(root_elim);
    if (id != root_elim) order.push_back(id);
  }
  EpochGate bad(nc);
  bool tripped = false;
  for (const std::uint32_t id : order) {
    try {
      run_checked(g, bad, id);
    } catch (const Error&) {
      tripped = true;
      EXPECT_EQ(id, last_upd);
      break;
    }
  }
  EXPECT_TRUE(tripped);
}

// ----------------------------------------------- factor-bits serialization

// Every byte of numeric factor state: tile representation (dense/low-rank,
// precision, rank) and the raw storage of whichever factors are live, plus
// the pivot vector. Two factorizations serialize equal iff their factors are
// bit-identical.
void serialize_tile(const lr::Tile& t, std::vector<unsigned char>& out) {
  const auto push = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    out.insert(out.end(), b, b + n);
  };
  const std::uint8_t head[2] = {static_cast<std::uint8_t>(t.is_lowrank()),
                                static_cast<std::uint8_t>(t.precision())};
  push(head, sizeof head);
  const index_t rank = t.rank();
  push(&rank, sizeof rank);
  if (t.is_lowrank()) {
    const lr::LrMatrix& l = t.lr();
    if (l.prec == lr::Precision::Fp32) {
      push(l.u32.data(), l.u32.bytes());
      push(l.v32.data(), l.v32.bytes());
    } else {
      push(l.u.data(), l.u.bytes());
      push(l.v.data(), l.v.bytes());
    }
  } else if (t.dense().size() > 0) {
    push(t.dense().data(), t.dense().bytes());
  }
}

std::vector<unsigned char> serialize_factors(const Solver& s) {
  std::vector<unsigned char> out;
  const symbolic::SymbolicFactor& sf = s.symbolic();
  for (index_t k = 0; k < sf.num_cblks(); ++k) {
    const core::CblkData& cd = s.numeric().cblk_data(k);
    serialize_tile(cd.diag, out);
    for (const lr::Tile& t : cd.lpanel) serialize_tile(t, out);
    for (const lr::Tile& t : cd.upanel) serialize_tile(t, out);
    const auto* b = reinterpret_cast<const unsigned char*>(cd.ipiv.data());
    out.insert(out.end(), b, b + cd.ipiv.size() * sizeof(index_t));
  }
  return out;
}

SolverOptions stress_opts(Strategy s, Factorization f, int threads) {
  SolverOptions o;
  o.strategy = s;
  o.factorization = f;
  o.threads = threads;
  // Small thresholds so the small stress matrices still exercise low-rank
  // tiles, multi-blok panels, and real update graphs.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

constexpr Strategy kStrategies[] = {Strategy::Dense, Strategy::JustInTime,
                                    Strategy::MinimalMemory};
constexpr Factorization kKinds[] = {Factorization::Llt, Factorization::Lu};

// The determinism contract: the per-target write chains pin the value
// history, so pool drains are bit-identical to the sequential run at ANY
// thread count — factors and solutions, every strategy × kind ×
// compression kernel × tile precision.
TEST(DagDeterminism, StressGridMatchesSequentialBarrierBitwise) {
  constexpr std::uint64_t kSeeds[] = {1, 7, 2026};
  for (const std::uint64_t seed : kSeeds) {
    const CscMatrix a = sparse::heterogeneous_poisson_3d(5, 5, 6, 3.0, seed);
    const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
    for (const Strategy s : kStrategies) {
      for (const Factorization f : kKinds) {
        for (const auto kind :
             {lr::CompressionKind::Rrqr, lr::CompressionKind::Svd}) {
          for (const TilePrecision p :
               {TilePrecision::Fp64, TilePrecision::MixedTiles}) {
            SolverOptions o = stress_opts(s, f, 1);
            o.kind = kind;
            o.precision = p;
            Solver seq(o);
            seq.factorize(a);
            const auto ref = serialize_factors(seq);
            const auto xref = seq.solve(b);
            // fp32-at-rest factors answer to fp32 accuracy (DESIGN.md §10).
            EXPECT_LT(sparse::backward_error(a, xref.data(), b.data()),
                      p == TilePrecision::Fp64 ? 1e-6 : 1e-4);
            for (const int threads : {2, 4, 8}) {
              o.threads = threads;
              Solver par(o);
              par.factorize(a);
              const auto got = serialize_factors(par);
              const auto x = par.solve(b);
              const std::string where =
                  "seed=" + std::to_string(seed) + " " + strategy_name(s) +
                  (f == Factorization::Lu ? " LU " : " LLt ") +
                  core::kind_name(kind) + " " + core::precision_name(p) +
                  " threads=" + std::to_string(threads);
              ASSERT_EQ(ref.size(), got.size()) << where;
              EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size()))
                  << where;
              EXPECT_EQ(0, std::memcmp(xref.data(), x.data(),
                                       x.size() * sizeof(real_t)))
                  << where;
              EXPECT_EQ(par.stats().dag_executed, par.stats().dag_tasks);
            }
          }
        }
      }
    }
  }
}

// Minimal-Memory's LUAR accumulators append in Upd and flush in Upd (at
// the flush rank) or in Elim; the per-target write chains fix that order,
// so accumulation stays bit-identical too. At τ = 1e-4, lap 20³ (LLᵗ) and
// conv-diff 20³ (LU) are small inputs whose accumulators reach the flush
// rank inside Upd tasks.
TEST(DagDeterminism, AccumulatedUpdatesStayBitIdentical) {
  for (const Factorization f : kKinds) {
    const CscMatrix a = f == Factorization::Lu
                            ? sparse::convection_diffusion_3d(20, 20, 20, 0.5)
                            : sparse::laplacian_3d(20, 20, 20);
    SolverOptions o = stress_opts(Strategy::MinimalMemory, f, 1);
    o.tolerance = 1e-4;
    Solver seq(o);
    seq.factorize(a);
    ASSERT_GT(seq.stats().num_lowrank_blocks, 0);
    const auto ref = serialize_factors(seq);
    for (const int threads : {2, 4, 8}) {
      o.threads = threads;
      Solver par(o);
      par.factorize(a);
      const auto got = serialize_factors(par);
      ASSERT_EQ(ref.size(), got.size());
      EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size()))
          << (f == Factorization::Lu ? "LU" : "LLt") << " threads=" << threads;
    }
  }
}

// The graph stats surfaced through SolverStats are internally consistent
// and filled by every factorization, whatever the thread count.
TEST(DagStats, CountersAreCoherent) {
  const CscMatrix a = sparse::laplacian_3d(7, 7, 7);
  Solver s(stress_opts(Strategy::JustInTime, Factorization::Llt, 4));
  s.factorize(a);
  const SolverStats& st = s.stats();
  EXPECT_GT(st.dag_tasks, static_cast<std::uint64_t>(st.num_cblks));
  EXPECT_GT(st.dag_edges, 0u);
  EXPECT_EQ(st.dag_executed, st.dag_tasks);
  EXPECT_GE(st.dag_ready_peak, 1u);
  EXPECT_GE(st.dag_critical_path, 3u);
  EXPECT_LE(st.dag_critical_path, st.dag_tasks);
  // One pool task per graph task, plus the helpers the panel fan-out
  // submitted (parallel_for runs its items on the pool as well).
  if (st.fanout_panels > 0) {
    EXPECT_GT(st.pool_helpers, 0u);
  }
  EXPECT_EQ(st.scheduler_tasks, st.dag_tasks + st.pool_helpers);

  Solver seq(stress_opts(Strategy::JustInTime, Factorization::Llt, 1));
  seq.factorize(a);
  EXPECT_EQ(seq.stats().dag_tasks, st.dag_tasks);
  EXPECT_EQ(seq.stats().dag_edges, st.dag_edges);
  EXPECT_EQ(seq.stats().dag_critical_path, st.dag_critical_path);
  EXPECT_EQ(seq.stats().dag_executed, st.dag_tasks);
  EXPECT_EQ(seq.stats().fanout_panels, 0u);
  EXPECT_EQ(seq.stats().pool_helpers, 0u);
}

// ------------------------------------------- fan-out: wide panels over the pool

struct FanOutCase {
  std::string name;
  CscMatrix a;
  SolverOptions o;
};

/// Problems whose top panels clear the fan-out floor: lap 20³ under JIT and
/// Dense LLᵗ, and conv-diff 16³ under the bench's MinMem LU options (split
/// 128/64, so its top panels are 64 wide).
std::vector<FanOutCase> fan_out_cases() {
  std::vector<FanOutCase> cases;
  SolverOptions jit;
  jit.factorization = Factorization::Llt;
  cases.push_back({"lap20 JIT LLt", sparse::laplacian_3d(20, 20, 20), jit});
  SolverOptions dense = jit;
  dense.strategy = Strategy::Dense;
  cases.push_back({"lap20 Dense LLt", sparse::laplacian_3d(20, 20, 20), dense});
  SolverOptions mm;
  mm.strategy = Strategy::MinimalMemory;
  mm.factorization = Factorization::Lu;
  mm.tolerance = 1e-4;
  mm.compress_min_width = 32;
  mm.compress_min_height = 16;
  mm.split.split_threshold = 128;
  mm.split.split_size = 64;
  cases.push_back(
      {"cd16 MinMem LU", sparse::convection_diffusion_3d(16, 16, 16, 0.5), mm});
  return cases;
}

// Every panel item touches only its own tiles, so spreading them over the
// pool keeps the factors and the solution bit-identical to the 1-thread run,
// and the fan-out happens only with a pool.
TEST(FanOutDeterminism, MatchesOneThreadBitwise) {
  for (FanOutCase& c : fan_out_cases()) {
    const std::vector<real_t> b(static_cast<std::size_t>(c.a.rows()), 1.0);
    c.o.threads = 1;
    Solver seq(c.o);
    seq.factorize(c.a);
    const auto ref = serialize_factors(seq);
    const auto xref = seq.solve(b);
    EXPECT_EQ(seq.stats().fanout_panels, 0u) << c.name;
    EXPECT_EQ(seq.stats().pool_helpers, 0u) << c.name;
    for (const int threads : {2, 4, 8}) {
      c.o.threads = threads;
      Solver par(c.o);
      par.factorize(c.a);
      const auto got = serialize_factors(par);
      const auto x = par.solve(b);
      const std::string where = c.name + " threads=" + std::to_string(threads);
      ASSERT_EQ(ref.size(), got.size()) << where;
      EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size())) << where;
      EXPECT_EQ(0, std::memcmp(xref.data(), x.data(), x.size() * sizeof(real_t)))
          << where;
      const SolverStats& st = par.stats();
      EXPECT_GT(st.fanout_panels, 0u) << where;
      EXPECT_EQ(st.scheduler_tasks, st.dag_tasks + st.pool_helpers) << where;
    }
  }
}

// A compression that fails inside a fanned-out panel reaches the caller as
// the same structured report as a sequential one, and the pool it was
// drained from stays usable.
TEST(FanOutFault, CompressionFailureInsideAFannedOutPanel) {
  const CscMatrix a = sparse::laplacian_3d(20, 20, 20);
  SolverOptions o;
  o.factorization = Factorization::Lu;
  o.threads = 4;
  // Under JIT every compression runs in the elimination hook. On this
  // problem every panel with a compressible blok fans out, so the injected
  // failure of the first compression lands in a fanned-out panel whatever
  // the schedule.
  {
    Solver probe(o);
    probe.factorize(a);
    const symbolic::SymbolicFactor& sf = probe.symbolic();
    index_t compressing = 0;
    for (index_t k = 0; k < sf.num_cblks(); ++k) {
      const symbolic::Cblk& c = sf.cblk(k);
      bool any = false;
      for (const symbolic::Blok& bl : c.bloks)
        any |= c.width() >= o.compress_min_width &&
               bl.height() >= o.compress_min_height;
      if (!any) continue;
      ++compressing;
      ASSERT_TRUE(probe.numeric().fans_out(k)) << "cblk " << k;
    }
    ASSERT_GT(compressing, 0);
  }
  o.fault.kind = core::FaultInjection::Kind::CompressionFail;
  o.fault.index = 0;
  Solver solver(o);
  index_t failed_at = -1;
  try {
    solver.factorize(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.report().kind, FailureKind::CompressionFailure);
    EXPECT_EQ(e.report().factorization, "LU");
    failed_at = e.report().supernode;
  }
  EXPECT_FALSE(solver.factorized());
  EXPECT_GT(solver.stats().fanout_panels, 0u);
  ASSERT_GE(failed_at, 0);

  // The fault budget is spent: the same solver and pool factorize cleanly,
  // with nothing left cancelled.
  solver.factorize(a);
  ASSERT_TRUE(solver.factorized());
  EXPECT_TRUE(solver.numeric().fans_out(failed_at));
  EXPECT_EQ(solver.stats().scheduler_discarded, 0u);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-6);
}

// ------------------------------------------------- dense updates: one GEMM per Upd

std::uint64_t dispatch_calls(const SolverStats& st, const std::string& kernel) {
  std::uint64_t calls = 0;
  for (const core::DispatchCount& d : st.dispatch) {
    if (d.kernel == kernel) calls += d.calls;
  }
  return calls;
}

/// What one factorization's Upd tasks do, counted from the task graph, the
/// symbolic structure and the final tile representations (a source's tiles
/// are final once it is eliminated, before any of its updates run).
struct UpdateCensus {
  std::uint64_t dense_tasks = 0;   ///< Upd with a dense × dense pair
  std::uint64_t column_gemms = 0;  ///< (Upd, column blok) with a dense pair
  std::uint64_t dense_pairs = 0;   ///< dense × dense block pairs
  std::uint64_t mirror_pairs = 0;  ///< pairs landing transposed in a U panel
  std::uint64_t mixed_tasks = 0;   ///< Upd with dense and low-rank row bloks
};

UpdateCensus census(const Solver& s, bool llt) {
  const symbolic::SymbolicFactor& sf = s.symbolic();
  const TaskGraph g = TaskGraph::build(sf);
  UpdateCensus c;
  for (std::uint32_t id = 0; id < g.num_tasks(); ++id) {
    const DagTask& u = g.task(id);
    if (u.kind != DagTaskKind::Upd) continue;
    const core::CblkData& cd = s.numeric().cblk_data(u.k);
    const index_t nb = static_cast<index_t>(cd.lpanel.size());
    const auto dense = [](const lr::Tile& t) { return !t.is_lowrank(); };
    bool any_dense = false, any_lowrank = false;
    for (index_t i = u.b0; i < nb; ++i) {
      (dense(cd.lpanel[static_cast<std::size_t>(i)]) ? any_dense : any_lowrank) = true;
    }
    if (any_dense && any_lowrank) ++c.mixed_tasks;
    const std::uint64_t columns_before = c.column_gemms;
    for (index_t j = u.b0; j < (llt ? u.b1 : nb); ++j) {
      const lr::Tile& b = (llt ? cd.lpanel : cd.upanel)[static_cast<std::size_t>(j)];
      std::uint64_t pairs = 0;
      for (index_t i = llt ? j : u.b0; i < (j < u.b1 ? nb : u.b1); ++i) {
        if (j >= u.b1) ++c.mirror_pairs;
        if (dense(b) && dense(cd.lpanel[static_cast<std::size_t>(i)])) ++pairs;
      }
      c.dense_pairs += pairs;
      if (pairs > 0) ++c.column_gemms;
    }
    if (c.column_gemms > columns_before) ++c.dense_tasks;
  }
  return c;
}

SolverOptions dense_update_opts(Factorization f) {
  SolverOptions o;
  o.strategy = Strategy::Dense;
  o.factorization = f;
  o.threads = 1;
  return o;
}

// Upd(k,t) issues one gemm[ge,ge] for all its dense block pairs (every
// target is dense under the Dense strategy), not one per column blok or
// per pair.
TEST(DenseUpdate, OneGemmPerUpdate) {
  const struct {
    CscMatrix a;
    Factorization f;
  } cases[] = {{sparse::laplacian_3d(10, 10, 10), Factorization::Llt},
               {sparse::convection_diffusion_3d(8, 8, 8, 0.5), Factorization::Lu}};
  for (const auto& cs : cases) {
    Solver s(dense_update_opts(cs.f));
    s.factorize(cs.a);
    const UpdateCensus c = census(s, cs.f == Factorization::Llt);
    ASSERT_GT(c.dense_tasks, 0u);
    ASSERT_GT(c.column_gemms, c.dense_tasks);  // per-column calls would differ
    ASSERT_GT(c.dense_pairs, c.column_gemms);  // so would per-pair calls
    EXPECT_EQ(dispatch_calls(s.stats(), "gemm[ge,ge]"), c.dense_tasks);
    EXPECT_GT(s.stats().dense_update_flops, 0u);
  }
}

// The LU update lands partly transposed, in the targets' U panels: the
// dense factorization still solves to working accuracy.
TEST(DenseUpdate, TransposedMirrorSolvesToWorkingAccuracy) {
  const CscMatrix a = sparse::convection_diffusion_3d(8, 8, 8, 0.5);
  Solver s(dense_update_opts(Factorization::Lu));
  s.factorize(a);
  ASSERT_GT(census(s, false).mirror_pairs, 0u);
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.25 * static_cast<real_t>(i % 5);
  const auto x = s.solve(b);
  EXPECT_LE(sparse::backward_error(a, x.data(), b.data()), 1e-12);
}

// MinMem LU with thresholds low enough that one Upd mixes dense and
// low-rank row bloks, and dense pairs land on low-rank targets (their
// product extend-adds as a dense contribution, lr2lr[ge]).
TEST(DenseUpdate, MixedOperandsStayAccurateAndDeterministic) {
  const CscMatrix a = sparse::convection_diffusion_3d(10, 10, 10, 0.5);
  SolverOptions o;
  o.strategy = Strategy::MinimalMemory;
  o.factorization = Factorization::Lu;
  o.tolerance = 1e-8;
  o.compress_min_width = 8;
  o.compress_min_height = 4;
  o.threads = 1;
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 - 0.125 * static_cast<real_t>(i % 7);
  Solver seq(o);
  seq.factorize(a);
  EXPECT_GT(census(seq, false).mixed_tasks, 0u);
  EXPECT_GT(dispatch_calls(seq.stats(), "gemm[ge,ge]"), 0u);
  EXPECT_GT(dispatch_calls(seq.stats(), "lr2lr[ge]"), 0u);
  const auto xref = seq.solve(b);
  EXPECT_LE(sparse::backward_error(a, xref.data(), b.data()), 10 * o.tolerance);
  o.threads = 4;
  Solver par(o);
  par.factorize(a);
  const auto x = par.solve(b);
  EXPECT_EQ(0, std::memcmp(xref.data(), x.data(), x.size() * sizeof(real_t)));
}

} // namespace
