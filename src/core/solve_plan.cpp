#include "core/solve_plan.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <span>

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

  // Entries of facing block f within the rows [r0, r1) of its target.
  const auto pull = [&sf](const FacingBlok& f, index_t r0, index_t r1) {
    const symbolic::Cblk& s = sf.cblk(f.source);
    const symbolic::Blok& bl = s.bloks[static_cast<std::size_t>(f.bi)];
    const index_t rows = std::min(bl.lrow, r1) - std::max(bl.frow, r0);
    return rows > 0 ? static_cast<double>(rows) * s.width() : 0.0;
  };
  // Each sweep reads one triangle of the diagonal block.
  const auto half_diag = [&sf](index_t k) {
    const double w = sf.cblk(k).width();
    return w * w / 2;
  };

  DepBuilder b;
  b.reserve(2 * nc, 3 * nc + 2 * p.facing_.size());
  p.tasks_.reserve(2 * nc);
  std::vector<double> weight;  // entries each task reads
  weight.reserve(2 * nc);
  const auto add = [&](const SolveTask& t, double w) {
    p.tasks_.push_back(t);
    weight.push_back(w);
    return b.add_task();
  };
  // RHS row-segment address space. Two addresses per supernode k name the
  // segment x[fcol, lcol) as each sweep leaves it: fwd(k), written only by
  // Fwd(k) and read by the forward pulls of the supernodes k faces and by
  // Bwd(k); bwd(k), written only by Bwd(k) and read by the backward tasks
  // of the supernodes facing k. Then one address per row slice of each
  // sliced pull. Every inferred edge is a read after write. The write of
  // Bwd(s) onto the memory a forward pull of t read (s faces t) needs no
  // edge of its own: Fwd(t) (after its Slice tasks) → Bwd(t) → Bwd(s)
  // already orders it. A task reads each distinct segment once; equal
  // segments are adjacent in both lists (facing lists ascend by source,
  // bloks by row and hence by target).
  const auto fwd = [](index_t k) { return static_cast<std::uint64_t>(k); };
  const auto bwd = [nc](index_t k) { return nc + static_cast<std::uint64_t>(k); };
  std::uint64_t next_addr = 2 * nc;
  const auto read_once = [&](std::uint32_t id, std::uint64_t addr,
                             std::uint64_t& last) {
    if (addr != last) b.read(id, addr);
    last = addr;
  };

  // Canonical order = the sequential execution order: the forward tasks
  // ascending, each sliced pull's Slice tasks right before its Fwd, then
  // the backward tasks descending. Task ids are its sequence numbers, so
  // every inferred edge points forward. Each segment address has exactly
  // one writer, and each row slice one chain of writers in ascending source
  // order, so the only chains are the true data dependencies of the
  // elimination tree and the update order of each row.
  std::vector<std::uint32_t> cuts;  // facing-range boundaries of one pull
  std::vector<index_t> sources;     // distinct sources of one Slice task
  for (index_t t = 0; t < ncblk; ++t) {
    const symbolic::Cblk& c = sf.cblk(t);
    const std::span<const FacingBlok> fac = p.facing(t);
    double total = 0;
    double run = 0;
    cuts.assign(1, 0);
    for (std::size_t i = 0; i < fac.size(); ++i) {
      const double e = pull(fac[i], c.fcol, c.lcol);
      total += e;
      run += e;
      if (run >= kSolveSliceEntries && i + 1 < fac.size()) {
        cuts.push_back(static_cast<std::uint32_t>(i + 1));
        run = 0;
      }
    }
    cuts.push_back(static_cast<std::uint32_t>(fac.size()));
    const index_t nslices =
        std::max<index_t>(1, c.width() / kSolveSliceMinRows);
    const bool sliced =
        total > kSolveSliceEntries && (nslices > 1 || cuts.size() > 2);
    const std::uint64_t slice_addr = next_addr;
    if (sliced) {
      next_addr += static_cast<std::uint64_t>(nslices);
      for (std::size_t g = 0; g + 1 < cuts.size(); ++g) {
        for (index_t r = 0; r < nslices; ++r) {
          const index_t r0 = c.fcol + c.width() * r / nslices;
          const index_t r1 = c.fcol + c.width() * (r + 1) / nslices;
          double w = 0;
          sources.clear();
          for (std::uint32_t i = cuts[g]; i < cuts[g + 1]; ++i) {
            const double e = pull(fac[i], r0, r1);
            if (e == 0) continue;
            w += e;
            if (sources.empty() || sources.back() != fac[i].source)
              sources.push_back(fac[i].source);
          }
          if (w == 0) continue;  // no block of the range reaches these rows
          const std::uint32_t id = add({.kind = SolveTaskKind::Slice,
                                        .k = t,
                                        .r0 = r0,
                                        .r1 = r1,
                                        .f0 = cuts[g],
                                        .f1 = cuts[g + 1]},
                                       w);
          for (const index_t src : sources) b.read(id, fwd(src));
          b.write(id, slice_addr + static_cast<std::uint64_t>(r));
          ++p.slice_tasks_;
        }
      }
    }
    const std::uint32_t id =
        add({.kind = SolveTaskKind::Fwd, .sliced = sliced, .k = t},
            (sliced ? 0.0 : total) + half_diag(t));
    if (sliced) {
      for (index_t r = 0; r < nslices; ++r)
        b.read(id, slice_addr + static_cast<std::uint64_t>(r));
    } else {
      std::uint64_t last = UINT64_MAX;
      for (const FacingBlok& f : fac) read_once(id, fwd(f.source), last);
    }
    b.write(id, fwd(t));
  }
  for (index_t k = ncblk; k-- > 0;) {
    const symbolic::Cblk& c = sf.cblk(k);
    const std::uint32_t id =
        add({.kind = SolveTaskKind::Bwd, .k = k},
            static_cast<double>(c.height()) * c.width() + half_diag(k));
    std::uint64_t last = UINT64_MAX;
    for (const symbolic::Blok& bl : c.bloks) read_once(id, bwd(bl.fcblk), last);
    b.read(id, fwd(k));
    b.write(id, bwd(k));
  }

  p.deps_ = b.infer();

  // Critical-path depth per task (the pool priority: deep tasks release the
  // longest remaining chains, so they go first) and the entry-weighted
  // critical path, by one reverse sweep — edges all point forward, so ids
  // in reverse are a topological order.
  const std::size_t ntasks = p.tasks_.size();
  p.prio_.assign(ntasks, 1);
  std::vector<double> heavy(weight);  // heaviest chain starting at each task
  for (std::uint32_t t = static_cast<std::uint32_t>(ntasks); t-- > 0;) {
    const std::uint32_t* s = p.deps_.succ.data() + p.deps_.succ_offset[t];
    const std::uint32_t* e = p.deps_.succ.data() + p.deps_.succ_offset[t + 1];
    double tail = 0;
    for (const std::uint32_t* q = s; q != e; ++q) {
      p.prio_[t] = std::max(p.prio_[t], p.prio_[*q] + 1);
      tail = std::max(tail, heavy[*q]);
    }
    heavy[t] += tail;
    p.critical_path_ = std::max<std::uint64_t>(
        p.critical_path_, static_cast<std::uint64_t>(p.prio_[t]));
    p.critical_entries_ = std::max(p.critical_entries_, heavy[t]);
    p.total_entries_ += weight[t];
  }
  return p;
}

DepDrainStats SolvePlan::execute(
    ThreadPool* pool, std::uint32_t chunks,
    const std::function<bool(std::uint32_t, std::uint32_t)>& body) const {
  const std::uint32_t nt = num_tasks();
  if (pool == nullptr) {
    // The sequential drain: a whole pull per Fwd, so no Slice tasks.
    DepDrainStats rs;
    for (std::uint32_t id = 0; id < nt; ++id) {
      if (tasks_[id].kind == SolveTaskKind::Slice) continue;
      ++rs.executed;
      if (!body(id, 0)) break;
    }
    return rs;
  }
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
