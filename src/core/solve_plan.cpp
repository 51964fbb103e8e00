#include "core/solve_plan.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/symbolic_plan.hpp"

namespace blr::core {

SolvePlan SolvePlan::build(const symbolic::SymbolicFactor& sf) {
  SolvePlan p;
  const index_t ncblk = sf.num_cblks();
  const std::size_t nc = static_cast<std::size_t>(ncblk);

  // Facing lists (CSR by target supernode), filled by a counting sort over
  // the panel blocks in ascending (source, block) order.
  p.facing_ptr_.assign(nc + 1, 0);
  for (index_t k = 0; k < ncblk; ++k)
    for (const symbolic::Blok& bl : sf.cblk(k).bloks)
      ++p.facing_ptr_[static_cast<std::size_t>(bl.fcblk) + 1];
  for (std::size_t t = 0; t < nc; ++t) p.facing_ptr_[t + 1] += p.facing_ptr_[t];
  p.facing_.resize(p.facing_ptr_[nc]);
  std::vector<std::size_t> next(p.facing_ptr_.begin(), p.facing_ptr_.end() - 1);
  for (index_t k = 0; k < ncblk; ++k) {
    const auto& bloks = sf.cblk(k).bloks;
    for (std::size_t bi = 0; bi < bloks.size(); ++bi)
      p.facing_[next[static_cast<std::size_t>(bloks[bi].fcblk)]++] = {
          k, static_cast<index_t>(bi)};
  }

  DepBuilder b;
  b.reserve(2 * nc, 2 * nc + 2 * p.facing_.size());
  p.tasks_.reserve(2 * nc);
  // RHS row-segment address space: one address per supernode, covering the
  // segment x[fcol, lcol). A task reads each distinct segment once; equal
  // segments are adjacent in both lists (facing lists ascend by source,
  // bloks by row and hence by target).
  const auto seg = [](index_t k) { return static_cast<std::uint64_t>(k); };
  const auto read_once = [&](std::uint32_t id, index_t s, index_t& last) {
    if (s != last) b.read(id, seg(s));
    last = s;
  };

  // Canonical order = the sequential execution order: the forward tasks
  // ascending, then the backward tasks descending. Task ids are its
  // sequence numbers, so every inferred edge points forward. Each segment
  // has exactly one writer per sweep, so the only chains are the true
  // data dependencies of the elimination tree.
  for (index_t t = 0; t < ncblk; ++t) {
    const std::uint32_t id = b.add_task();
    p.tasks_.push_back({SolveTaskKind::Fwd, t});
    index_t last = -1;
    for (const FacingBlok& f : p.facing(t)) read_once(id, f.source, last);
    b.write(id, seg(t));
  }
  for (index_t k = ncblk; k-- > 0;) {
    const std::uint32_t id = b.add_task();
    p.tasks_.push_back({SolveTaskKind::Bwd, k});
    index_t last = -1;
    for (const symbolic::Blok& bl : sf.cblk(k).bloks)
      read_once(id, bl.fcblk, last);
    b.write(id, seg(k));
  }

  p.deps_ = b.infer();

  // Critical-path depth per task (the pool priority: deep tasks release the
  // longest remaining chains, so they go first), by one reverse sweep —
  // edges all point forward, so ids in reverse are a topological order.
  p.prio_.assign(p.tasks_.size(), 1);
  for (std::uint32_t t = static_cast<std::uint32_t>(p.tasks_.size());
       t-- > 0;) {
    const std::uint32_t* s = p.deps_.succ.data() + p.deps_.succ_offset[t];
    const std::uint32_t* e = p.deps_.succ.data() + p.deps_.succ_offset[t + 1];
    for (const std::uint32_t* q = s; q != e; ++q)
      p.prio_[t] = std::max(p.prio_[t], p.prio_[*q] + 1);
    p.critical_path_ = std::max<std::uint64_t>(
        p.critical_path_, static_cast<std::uint64_t>(p.prio_[t]));
  }
  return p;
}

DepDrainStats SolvePlan::execute(
    ThreadPool* pool, std::uint32_t chunks,
    const std::function<bool(std::uint32_t, std::uint32_t)>& body) const {
  const std::uint32_t nt = num_tasks();
  // Copy c of task t has id c·nt + t; the copies share no edges.
  BLR_CHECK(std::uint64_t{chunks} * nt <= UINT32_MAX,
            "solve: too many column chunks for 32-bit task ids");
  DepBuilder::Deps copies;
  if (chunks > 1) {
    copies.succ_offset.reserve(std::size_t{chunks} * nt + 1);
    copies.succ.reserve(std::size_t{chunks} * deps_.succ.size());
    copies.indeg.reserve(std::size_t{chunks} * nt);
    copies.succ_offset.push_back(0);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      for (std::uint32_t t = 0; t < nt; ++t) {
        for (std::uint32_t q = deps_.succ_offset[t];
             q < deps_.succ_offset[t + 1]; ++q)
          copies.succ.push_back(c * nt + deps_.succ[q]);
        copies.succ_offset.push_back(
            static_cast<std::uint32_t>(copies.succ.size()));
      }
      copies.indeg.insert(copies.indeg.end(), deps_.indeg.begin(),
                          deps_.indeg.end());
    }
    copies.num_edges = chunks * deps_.num_edges;
  }
  return drain_deps(
      chunks > 1 ? copies : deps_, pool,
      [&](std::uint32_t id) { return body(id % nt, id / nt); },
      [this, nt](std::uint32_t id) { return prio_[id % nt]; });
}

std::shared_ptr<const SolvePlan> SymbolicPlan::solve_plan(bool* built) const {
  std::lock_guard<std::mutex> lock(*solve_plan_mu_);
  if (built != nullptr) *built = false;
  if (!solve_plan_cache_) {
    solve_plan_cache_ = std::make_shared<const SolvePlan>(SolvePlan::build(sf));
    if (built != nullptr) *built = true;
  }
  return solve_plan_cache_;
}

} // namespace blr::core
