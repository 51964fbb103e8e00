// The dataflow factorization's pinning harness (DESIGN.md §12): unit tests
// for read/write-set dependency inference, release order, and the epoch
// hand-off contract, plus the randomized stress grid that memcmp's every
// dataflow run — sequential and parallel, every strategy and factorization
// kind — against the sequential barrier factors bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "blr.hpp"
#include "core/task_graph.hpp"

namespace {

using namespace blr;
using core::DagTask;
using core::DagTaskKind;
using core::DepBuilder;
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
  b.read(c, 1);
  b.read(c, 2);
  b.edge(a, c);  // explicit duplicate of the inferred pair
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

TEST(DepBuilder, BackwardExplicitEdgeThrows) {
  DepBuilder b;
  const auto t0 = b.add_task();
  const auto t1 = b.add_task();
  (void)t0;
  EXPECT_THROW(b.edge(t1, t0), Error);
  EXPECT_THROW(b.edge(t1, t1), Error);
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
  g.advance(0, EpochGate::kAssembled, EpochGate::kEliminating);
  g.advance(0, EpochGate::kEliminating, EpochGate::kFactored);
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

TEST(TaskGraphStructure, CanonicalIdsAndCounts) {
  const CscMatrix a = sparse::laplacian_3d(5, 5, 5);
  const symbolic::SymbolicFactor sf = small_symbolic(a);
  for (const bool llt : {true, false}) {
    const TaskGraph g = TaskGraph::build(sf, llt);
    ASSERT_GT(g.num_tasks(), 0u);
    ASSERT_GT(g.num_edges(), 0u);

    // Assemble(k) has task id k; every supernode has exactly one Factor.
    std::uint32_t factors = 0, products = 0, applies = 0;
    for (std::uint32_t t = 0; t < g.num_tasks(); ++t) {
      const DagTask& task = g.task(t);
      if (t < static_cast<std::uint32_t>(sf.num_cblks())) {
        EXPECT_EQ(task.kind, DagTaskKind::Assemble);
        EXPECT_EQ(task.k, static_cast<index_t>(t));
        EXPECT_EQ(g.indegree(t), 0);  // assembly depends on nothing
      }
      if (task.kind == DagTaskKind::Factor) ++factors;
      if (task.kind == DagTaskKind::Product) ++products;
      if (task.kind == DagTaskKind::Apply) ++applies;
    }
    EXPECT_EQ(factors, static_cast<std::uint32_t>(sf.num_cblks()));
    EXPECT_EQ(products, applies);
    EXPECT_EQ(products, g.num_updates());

    // The critical path is a chain, so it can't exceed the task count and
    // must cover at least Assemble→Factor per supernode on the longest
    // elimination-tree path (≥ 2).
    EXPECT_GE(g.critical_path(), 2u);
    EXPECT_LE(g.critical_path(), g.num_tasks());

    // Tile addresses are dense and distinct.
    EXPECT_EQ(g.num_addrs(),
              static_cast<std::uint64_t>(sf.num_cblks() + (llt ? 1 : 2) * sf.num_bloks()));
  }
}

TEST(TaskGraphStructure, SequentialReleaseOrderIsCanonical) {
  const CscMatrix a = sparse::laplacian_3d(5, 5, 5);
  const symbolic::SymbolicFactor sf = small_symbolic(a);
  const TaskGraph g = TaskGraph::build(sf, /*llt=*/false);

  // The min-id sequential executor must release tasks exactly in id order —
  // ids are the canonical barrier sequence, and every edge points forward.
  std::vector<std::uint32_t> order;
  const auto rs = g.execute(
      nullptr,
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
  const TaskGraph g = TaskGraph::build(sf, /*llt=*/true);

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

  const auto rs = g.execute(
      &pool,
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
  const TaskGraph g = TaskGraph::build(sf, /*llt=*/false);
  const std::uint32_t stop_at = g.num_tasks() / 3;

  for (const int threads : {0, 4}) {
    ThreadPool pool(threads == 0 ? 1 : threads);
    ThreadPool* pp = threads == 0 ? nullptr : &pool;
    std::atomic<std::uint64_t> ran{0};
    const auto rs = g.execute(
        pp,
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

SolverOptions stress_opts(Strategy s, Factorization f, core::Dataflow d,
                          int threads) {
  SolverOptions o;
  o.strategy = s;
  o.factorization = f;
  o.dataflow = d;
  o.threads = threads;
  // Small thresholds so the small stress matrices still exercise low-rank
  // tiles, multi-blok panels, and real update DAGs.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

constexpr Strategy kStrategies[] = {Strategy::Dense, Strategy::JustInTime,
                                    Strategy::MinimalMemory, Strategy::Adaptive};
constexpr Factorization kKinds[] = {Factorization::Llt, Factorization::Lu};

// The determinism contract, sequential half: with one thread the dataflow
// executor replays the canonical order, so its factors must equal the
// barrier's bit for bit — every strategy, both kinds, both tile precisions.
TEST(DagDeterminism, SequentialDagIsBitIdenticalToBarrier) {
  const CscMatrix a = sparse::heterogeneous_poisson_3d(6, 6, 6, 4.0, 42);
  for (const Strategy s : kStrategies) {
    for (const Factorization f : kKinds) {
      for (const TilePrecision p : {TilePrecision::Fp64,
                                    TilePrecision::MixedTiles}) {
        SolverOptions ob = stress_opts(s, f, core::Dataflow::Barrier, 1);
        SolverOptions od = stress_opts(s, f, core::Dataflow::Dag, 1);
        ob.precision = od.precision = p;
        Solver barrier(ob), dag(od);
        barrier.factorize(a);
        dag.factorize(a);
        const auto bb = serialize_factors(barrier);
        const auto db = serialize_factors(dag);
        ASSERT_EQ(bb.size(), db.size())
            << strategy_name(s) << (f == Factorization::Lu ? " LU" : " LLt");
        EXPECT_EQ(0, std::memcmp(bb.data(), db.data(), bb.size()))
            << strategy_name(s) << (f == Factorization::Lu ? " LU" : " LLt")
            << " " << core::precision_name(p);
        EXPECT_GT(dag.stats().dag_tasks, 0u);
        EXPECT_EQ(dag.stats().dag_executed, dag.stats().dag_tasks);
      }
    }
  }
}

// The determinism contract, parallel half: the per-tile write chains pin the
// value history, so Dag runs are bit-identical to the sequential barrier at
// ANY thread count — the property the barrier scheduler does not have.
TEST(DagDeterminism, StressGridMatchesSequentialBarrierBitwise) {
  constexpr std::uint64_t kSeeds[] = {1, 7, 2026};
  for (const std::uint64_t seed : kSeeds) {
    const CscMatrix a = sparse::heterogeneous_poisson_3d(5, 5, 6, 3.0, seed);
    for (const Strategy s : kStrategies) {
      for (const Factorization f : kKinds) {
        Solver barrier(stress_opts(s, f, core::Dataflow::Barrier, 1));
        barrier.factorize(a);
        const auto ref = serialize_factors(barrier);
        for (const int threads : {1, 2, 8}) {
          Solver dag(stress_opts(s, f, core::Dataflow::Dag, threads));
          dag.factorize(a);
          const auto got = serialize_factors(dag);
          ASSERT_EQ(ref.size(), got.size());
          EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size()))
              << "seed=" << seed << " " << strategy_name(s)
              << (f == Factorization::Lu ? " LU" : " LLt")
              << " threads=" << threads;
          EXPECT_EQ(dag.stats().dag_executed, dag.stats().dag_tasks);
          // And the factors actually solve the system.
          std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
          const auto x = dag.solve(b);
          EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-6);
        }
      }
    }
  }
}

// LUAR accumulation folds its flush into the Compress task; the tile-local
// value histories are unchanged, so accumulation must stay bit-identical too.
TEST(DagDeterminism, AccumulatedUpdatesStayBitIdentical) {
  const CscMatrix a = sparse::heterogeneous_poisson_3d(6, 6, 5, 3.0, 3);
  for (const Factorization f : kKinds) {
    SolverOptions ob = stress_opts(Strategy::MinimalMemory, f,
                                   core::Dataflow::Barrier, 1);
    ob.accumulate_updates = true;
    SolverOptions od = ob;
    od.dataflow = core::Dataflow::Dag;
    Solver barrier(ob);
    barrier.factorize(a);
    const auto ref = serialize_factors(barrier);
    for (const int threads : {1, 8}) {
      SolverOptions o = od;
      o.threads = threads;
      Solver dag(o);
      dag.factorize(a);
      const auto got = serialize_factors(dag);
      ASSERT_EQ(ref.size(), got.size());
      EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size()))
          << (f == Factorization::Lu ? "LU" : "LLt") << " threads=" << threads;
    }
  }
}

// The DAG stats surfaced through SolverStats are internally consistent.
TEST(DagStats, CountersAreCoherent) {
  const CscMatrix a = sparse::laplacian_3d(7, 7, 7);
  Solver s(stress_opts(Strategy::JustInTime, Factorization::Llt,
                       core::Dataflow::Dag, 4));
  s.factorize(a);
  const SolverStats& st = s.stats();
  EXPECT_GT(st.dag_tasks, 0u);
  EXPECT_GT(st.dag_edges, 0u);
  EXPECT_EQ(st.dag_executed, st.dag_tasks);
  EXPECT_GE(st.dag_ready_peak, 1u);
  EXPECT_GE(st.dag_critical_path, 2u);
  EXPECT_LE(st.dag_critical_path, st.dag_tasks);
  // Barrier runs must keep the counters at zero.
  Solver b(stress_opts(Strategy::JustInTime, Factorization::Llt,
                       core::Dataflow::Barrier, 4));
  b.factorize(a);
  EXPECT_EQ(b.stats().dag_tasks, 0u);
}

} // namespace
