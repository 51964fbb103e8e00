#include "core/task_graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "common/error.hpp"

namespace blr::core {

// ---------------------------------------------------------------- DepBuilder

std::uint32_t DepBuilder::add_task() { return ntasks_++; }

void DepBuilder::read(std::uint32_t task, std::uint64_t addr) {
  accesses_.push_back({addr, task, false});
}

void DepBuilder::write(std::uint32_t task, std::uint64_t addr) {
  accesses_.push_back({addr, task, true});
}

DepBuilder::Deps DepBuilder::infer() const {
  constexpr std::uint32_t kNone = UINT32_MAX;

  // Accesses must have been declared in canonical task order so that, after
  // a stable partition by address, each address's access list is still in
  // execution order.
  std::uint64_t naddr = 0;
  for (std::size_t i = 0; i < accesses_.size(); ++i) {
    if (i > 0 && accesses_[i].task < accesses_[i - 1].task) {
      throw Error("task graph: accesses declared out of canonical order");
    }
    naddr = std::max(naddr, accesses_[i].addr + 1);
  }

  // Stable partition by address. Graph builds use a dense address space, so
  // a counting sort does it in linear time; fall back to a comparison sort
  // when the addresses are sparse (hand-built graphs).
  std::vector<std::uint32_t> order(accesses_.size());
  if (naddr <= 4 * accesses_.size() + 1024) {
    std::vector<std::uint32_t> off(static_cast<std::size_t>(naddr) + 1, 0);
    for (const Access& a : accesses_)
      ++off[static_cast<std::size_t>(a.addr) + 1];
    for (std::size_t a = 1; a < off.size(); ++a) off[a] += off[a - 1];
    for (std::uint32_t i = 0; i < accesses_.size(); ++i)
      order[off[static_cast<std::size_t>(accesses_[i].addr)]++] = i;
  } else {
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t x, std::uint32_t y) {
                       return accesses_[x].addr < accesses_[y].addr;
                     });
  }

  // Scan each address's access list in execution order, emitting RAW, WAR
  // and WAW edges. Edges are packed (from << 32 | to) so the per-task
  // bucketing below stays branch-light.
  std::vector<std::uint64_t> edges;
  edges.reserve(accesses_.size());
  const auto emit = [&edges](std::uint32_t from, std::uint32_t to) {
    if (from >= to) {
      throw Error("task graph: inferred edge points backwards — accesses "
                  "were not declared in a topological order");
    }
    edges.push_back((static_cast<std::uint64_t>(from) << 32) | to);
  };
  std::vector<std::uint32_t> readers;
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint64_t addr = accesses_[order[i]].addr;
    std::uint32_t last_writer = kNone;
    readers.clear();
    for (; i < order.size() && accesses_[order[i]].addr == addr; ++i) {
      const Access& a = accesses_[order[i]];
      if (a.is_write) {
        if (readers.empty()) {
          if (last_writer != kNone && last_writer != a.task)
            emit(last_writer, a.task);
        } else {
          for (const std::uint32_t r : readers)
            if (r != a.task) emit(r, a.task);
        }
        last_writer = a.task;
        readers.clear();
      } else {
        if (last_writer != kNone && last_writer != a.task)
          emit(last_writer, a.task);
        readers.push_back(a.task);
      }
    }
  }

  // Bucket edges by source task (counting sort — tasks are dense), then
  // deduplicate each task's successor list in place. The same pair can
  // arise through several addresses; the canonical declaration order is a
  // topological order (enforced by emit()), which is what makes the
  // sequential min-id executor reproduce the declaration order exactly.
  Deps d;
  d.succ_offset.assign(static_cast<std::size_t>(ntasks_) + 1, 0);
  d.indeg.assign(ntasks_, 0);
  for (const std::uint64_t e : edges) ++d.succ_offset[(e >> 32) + 1];
  for (std::size_t t = 1; t < d.succ_offset.size(); ++t)
    d.succ_offset[t] += d.succ_offset[t - 1];
  d.succ.resize(edges.size());
  {
    std::vector<std::uint32_t> fill(d.succ_offset.begin(),
                                    d.succ_offset.end() - 1);
    for (const std::uint64_t e : edges)
      d.succ[fill[e >> 32]++] = static_cast<std::uint32_t>(e);
  }
  std::uint32_t w = 0;
  for (std::uint32_t t = 0; t < ntasks_; ++t) {
    const std::uint32_t b = d.succ_offset[t], e = d.succ_offset[t + 1];
    std::sort(d.succ.begin() + b, d.succ.begin() + e);
    d.succ_offset[t] = w;
    for (std::uint32_t j = b; j < e; ++j) {
      if (j == b || d.succ[j] != d.succ[j - 1]) {
        ++d.indeg[d.succ[j]];
        d.succ[w++] = d.succ[j];
      }
    }
  }
  d.succ_offset[ntasks_] = w;
  d.succ.resize(w);
  d.succ.shrink_to_fit();
  d.num_edges = w;
  return d;
}

// ----------------------------------------------------------------- EpochGate

EpochGate::EpochGate(std::uint64_t num_addrs)
    : ep_(new std::atomic<std::uint8_t>[num_addrs]), n_(num_addrs) {
  for (std::uint64_t i = 0; i < n_; ++i)
    ep_[i].store(kUnassembled, std::memory_order_relaxed);
}

void EpochGate::expect(std::uint64_t addr, std::uint8_t want) const {
  const std::uint8_t got = ep_[addr].load(std::memory_order_acquire);
  if (got != want) {
    throw Error("dag epoch violation: supernode " + std::to_string(addr) +
                " is at epoch " + std::to_string(int(got)) + ", task expects " +
                std::to_string(int(want)));
  }
}

void EpochGate::advance(std::uint64_t addr, std::uint8_t from, std::uint8_t to) {
  std::uint8_t expected = from;
  if (!ep_[addr].compare_exchange_strong(expected, to,
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
    throw Error("dag epoch violation: supernode " + std::to_string(addr) +
                " cannot advance " + std::to_string(int(from)) + " -> " +
                std::to_string(int(to)) + ", found epoch " +
                std::to_string(int(expected)));
  }
}

// ----------------------------------------------------------------- TaskGraph

TaskGraph TaskGraph::build(const symbolic::SymbolicFactor& sf) {
  TaskGraph g;
  const index_t ncblk = sf.num_cblks();
  const auto addr = [](index_t k) { return static_cast<std::uint64_t>(k); };

  // Sources in decreasing critical-path priority — the order the pool's
  // scheduler prefers, and a topological order of the elimination tree
  // (a child always outranks its parent). Each source declares Elim(k),
  // then one Upd(k, t) per run of k's bloks facing the same target t.
  // Bloks ascend by row, hence by target, so each run is contiguous.
  const std::size_t nc = static_cast<std::size_t>(ncblk);
  const auto& prio = sf.critical_priorities();
  std::vector<index_t> order(nc);
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&prio](index_t x, index_t y) {
    return prio[static_cast<std::size_t>(x)] > prio[static_cast<std::size_t>(y)];
  });
  // The first writer of each target assembles it.
  std::vector<char> written(nc, 0);
  const auto first_write = [&written](index_t t) {
    return std::exchange(written[static_cast<std::size_t>(t)], char{1}) == 0;
  };
  DepBuilder b;
  for (const index_t k : order) {
    const std::uint32_t e = b.add_task();
    g.tasks_.push_back({DagTaskKind::Elim, k, k, -1, -1, first_write(k)});
    b.write(e, addr(k));
    const auto& bloks = sf.cblk(k).bloks;
    const index_t nb = static_cast<index_t>(bloks.size());
    for (index_t b0 = 0, b1 = 0; b0 < nb; b0 = b1) {
      const index_t t = bloks[static_cast<std::size_t>(b0)].fcblk;
      while (b1 < nb && bloks[static_cast<std::size_t>(b1)].fcblk == t) ++b1;
      const std::uint32_t u = b.add_task();
      g.tasks_.push_back({DagTaskKind::Upd, k, t, b0, b1, first_write(t)});
      b.read(u, addr(k));
      b.write(u, addr(t));
    }
  }
  g.deps_ = b.infer();

  // Critical path: longest chain in tasks, by one reverse sweep (edges all
  // point forward, so ids in reverse are a topological order).
  std::vector<std::uint32_t> depth(g.tasks_.size(), 1);
  for (std::uint32_t t = g.num_tasks(); t-- > 0;) {
    const auto [s, e] = g.successors(t);
    for (const std::uint32_t* p = s; p != e; ++p)
      depth[t] = std::max(depth[t], depth[*p] + 1);
    g.critical_path_ = std::max<std::uint64_t>(g.critical_path_, depth[t]);
  }
  return g;
}

namespace {

/// Shared state of one parallel DAG run; lives on drain_deps()'s stack.
struct ParRun {
  const DepBuilder::Deps* deps = nullptr;
  ThreadPool* pool = nullptr;
  const std::function<bool(std::uint32_t)>* body = nullptr;
  const std::function<std::int64_t(std::uint32_t)>* priority = nullptr;
  std::unique_ptr<std::atomic<std::int32_t>[]> indeg;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::int64_t> ready{0};
  std::atomic<std::uint64_t> ready_peak{0};
  std::atomic<bool> stopped{false};
};

void par_release(ParRun* r, std::uint32_t id);

void par_run_task(ParRun* r, std::uint32_t id) {
  r->ready.fetch_sub(1, std::memory_order_relaxed);
  if (r->stopped.load(std::memory_order_acquire)) return;
  const bool ok = (*r->body)(id);
  r->executed.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    // Cooperative stop: successors are not released, so everything gated by
    // this task drains unrun (the body is expected to have cancelled the
    // pool if it wants queued siblings discarded too).
    r->stopped.store(true, std::memory_order_release);
    return;
  }
  const std::uint32_t* s = r->deps->succ.data() + r->deps->succ_offset[id];
  const std::uint32_t* e = r->deps->succ.data() + r->deps->succ_offset[id + 1];
  for (const std::uint32_t* p = s; p != e; ++p) {
    if (r->indeg[*p].fetch_sub(1, std::memory_order_acq_rel) == 1)
      par_release(r, *p);
  }
}

void par_release(ParRun* r, std::uint32_t id) {
  const std::int64_t depth = r->ready.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = r->ready_peak.load(std::memory_order_relaxed);
  while (static_cast<std::uint64_t>(depth) > peak &&
         !r->ready_peak.compare_exchange_weak(peak,
                                              static_cast<std::uint64_t>(depth),
                                              std::memory_order_relaxed)) {
  }
  r->pool->submit([r, id] { par_run_task(r, id); }, (*r->priority)(id));
}

} // namespace

DepDrainStats drain_deps(
    const DepBuilder::Deps& deps, ThreadPool* pool,
    const std::function<bool(std::uint32_t)>& body,
    const std::function<std::int64_t(std::uint32_t)>& priority) {
  const std::uint32_t n =
      static_cast<std::uint32_t>(deps.succ_offset.size()) - 1;
  DepDrainStats rs;
  if (deps.succ_offset.empty() || n == 0) return rs;

  if (pool == nullptr) {
    // Sequential: always run the lowest-id ready task. Task ids are the
    // canonical sequence numbers, so this reproduces the declaration
    // order exactly (DESIGN.md §12, §16).
    std::vector<std::int32_t> indeg(deps.indeg);
    std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                        std::greater<>> heap;
    for (std::uint32_t t = 0; t < n; ++t)
      if (indeg[t] == 0) heap.push(t);
    rs.ready_peak = heap.size();
    while (!heap.empty()) {
      const std::uint32_t t = heap.top();
      heap.pop();
      ++rs.executed;
      if (!body(t)) break;
      const std::uint32_t* s = deps.succ.data() + deps.succ_offset[t];
      const std::uint32_t* e = deps.succ.data() + deps.succ_offset[t + 1];
      for (const std::uint32_t* p = s; p != e; ++p)
        if (--indeg[*p] == 0) heap.push(*p);
      rs.ready_peak = std::max<std::uint64_t>(rs.ready_peak, heap.size());
    }
    return rs;
  }

  ParRun run;
  run.deps = &deps;
  run.pool = pool;
  run.body = &body;
  run.priority = &priority;
  run.indeg.reset(new std::atomic<std::int32_t>[n]);
  for (std::uint32_t t = 0; t < n; ++t)
    run.indeg[t].store(deps.indeg[t], std::memory_order_relaxed);
  for (std::uint32_t t = 0; t < n; ++t)
    if (deps.indeg[t] == 0) par_release(&run, t);
  pool->wait_idle();
  rs.executed = run.executed.load(std::memory_order_relaxed);
  rs.ready_peak = run.ready_peak.load(std::memory_order_relaxed);
  return rs;
}

} // namespace blr::core
