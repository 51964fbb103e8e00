#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/task_graph.hpp"
#include "symbolic/symbolic.hpp"

namespace blr {
class ThreadPool;
}

namespace blr::core {

/// The per-supernode tasks of the two-sweep triangular solve (DESIGN.md
/// §16): one forward and one backward task per supernode.
enum class SolveTaskKind : std::uint8_t {
  Fwd,  ///< pull every panel block facing supernode k, then its diagonal solve
  Bwd,  ///< apply supernode k's own panel blocks, then its diagonal solve
};

/// One node of the solve DAG; `k` is the supernode whose RHS segment the
/// task owns.
struct SolveTask {
  SolveTaskKind kind = SolveTaskKind::Fwd;
  index_t k = -1;
};

/// Panel block `bi` of supernode `source`, seen from the supernode it faces.
struct FacingBlok {
  index_t source = -1;
  index_t bi = -1;
};

/// The reusable triangular-solve schedule derived from one frozen symbolic
/// structure (DESIGN.md §16): 2·ncblk tasks with read/write sets over the
/// RHS row segments (one address per supernode), dependencies inferred by
/// the DepBuilder canonical-order machinery. `Fwd(t)` is pull-form: it
/// applies the blocks of facing(t) in ascending source order — the order in
/// which a push-form sweep lands them — so each segment has a single forward
/// writer and any topological execution produces the bits of the sequential
/// order. Purely symbolic: built once per SymbolicPlan and shared by every
/// numeric pass and session snapshot over that pattern, so repeated solves
/// pay zero graph-build cost.
class SolvePlan {
public:
  static SolvePlan build(const symbolic::SymbolicFactor& sf);

  [[nodiscard]] std::uint32_t num_tasks() const {
    return static_cast<std::uint32_t>(tasks_.size());
  }
  [[nodiscard]] const SolveTask& task(std::uint32_t id) const {
    return tasks_[id];
  }
  /// Panel blocks facing supernode t, ascending by (source, block).
  [[nodiscard]] std::span<const FacingBlok> facing(index_t t) const {
    const std::size_t i = static_cast<std::size_t>(t);
    return {facing_.data() + facing_ptr_[i],
            facing_ptr_[i + 1] - facing_ptr_[i]};
  }
  [[nodiscard]] std::uint64_t num_edges() const { return deps_.num_edges; }
  /// Longest dependency chain, in tasks (the depth bound on parallelism —
  /// for the forward sweep this is the elimination-tree height).
  [[nodiscard]] std::uint64_t critical_path() const { return critical_path_; }
  /// Critical-path depth of one task: the pool priority (deep tasks first).
  [[nodiscard]] std::int64_t priority(std::uint32_t id) const {
    return prio_[id];
  }
  [[nodiscard]] const DepBuilder::Deps& deps() const { return deps_; }

  /// Drain the solve DAG through drain_deps(), once per RHS column chunk:
  /// `chunks` disjoint copies of the graph go through one drain, and
  /// `body(id, chunk)` runs task `id` on column chunk `chunk`. Without a
  /// pool the lowest ready id runs first (task-id order, since every edge
  /// points forward); with one, tasks are released as in-degrees reach
  /// zero. `body` returns false to stop the drain cooperatively.
  [[nodiscard]] DepDrainStats execute(
      ThreadPool* pool, std::uint32_t chunks,
      const std::function<bool(std::uint32_t, std::uint32_t)>& body) const;

private:
  std::vector<SolveTask> tasks_;
  std::vector<std::size_t> facing_ptr_;  ///< CSR offsets, size ncblk + 1
  std::vector<FacingBlok> facing_;
  DepBuilder::Deps deps_;
  std::vector<std::int64_t> prio_;  ///< critical-path depth per task
  std::uint64_t critical_path_ = 0;
};

} // namespace blr::core
