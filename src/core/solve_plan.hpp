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

/// Entries (rows × source width over its facing blocks) above which a
/// forward pull is cut into Slice tasks, and the size of the facing-list
/// ranges it is cut into (DESIGN.md §16). Budgets of 32K–128K entries ran
/// within the run-to-run spread of each other on lap 36³.
inline constexpr double kSolveSliceEntries = 65536;
/// Fewest rows of seg(t) in one Slice task: seg(t) is cut into
/// width / kSolveSliceMinRows even row slices.
inline constexpr index_t kSolveSliceMinRows = 16;

/// The tasks of the two-sweep triangular solve (DESIGN.md §16): one forward
/// and one backward task per supernode, plus the Slice tasks of the heavy
/// forward pulls.
enum class SolveTaskKind : std::uint8_t {
  /// pull every block facing supernode k (unless sliced), then solve its
  /// diagonal
  Fwd,
  Bwd,    ///< apply supernode k's own panel blocks, then solve its diagonal
  Slice,  ///< rows [r0, r1) of facing(k)[f0, f1), in place into seg(k)
};

/// One node of the solve DAG; `k` is the supernode whose RHS segment the
/// task owns. A Slice task covers the absolute rows [r0, r1) of seg(k) and
/// the facing blocks facing(k)[f0, f1); `sliced` marks a Fwd whose pull its
/// Slice tasks make in a pooled drain.
struct SolveTask {
  SolveTaskKind kind = SolveTaskKind::Fwd;
  bool sliced = false;
  index_t k = -1;
  index_t r0 = 0;
  index_t r1 = 0;
  std::uint32_t f0 = 0;
  std::uint32_t f1 = 0;
};

/// Panel block `bi` of supernode `source`, seen from the supernode it faces.
struct FacingBlok {
  index_t source = -1;
  index_t bi = -1;
};

/// The reusable triangular-solve schedule derived from one frozen symbolic
/// structure (DESIGN.md §16): a forward and a backward task per supernode,
/// with read/write sets over the RHS row segments (one address per
/// supernode and sweep, so every inferred edge is a read after write),
/// dependencies inferred by the DepBuilder canonical-order machinery.
/// `Fwd(t)` is pull-form: it applies the blocks of facing(t) in ascending
/// source order — the order in which a push-form sweep lands them — so
/// each segment has a single forward writer and any topological
/// execution produces the bits of the sequential order. A pull of more than
/// kSolveSliceEntries is also cut into Slice tasks, row slice × facing
/// range, each with its own address per row slice: the ranges of one row
/// slice chain in ascending source order, so every row still receives its
/// updates in the same order, and `Fwd(t)` reads every slice address. The
/// executor decides whether the Slice tasks or the whole pull run
/// (NumericFactor::solve_permuted). Purely symbolic: built once per SymbolicPlan and shared by
/// every numeric pass and session snapshot over that pattern, so repeated
/// solves pay zero graph-build cost.
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
  /// Slice tasks in the plan (the rest are one Fwd and one Bwd per supernode).
  [[nodiscard]] std::uint32_t num_slice_tasks() const { return slice_tasks_; }
  /// Factor entries the pooled drain's tasks read, summed over all of them:
  /// rows × source width per block or slice, plus half of each diagonal
  /// block per sweep (symbolic sizes; low-rank blocks count as dense).
  [[nodiscard]] double total_entries() const { return total_entries_; }
  /// The heaviest dependency chain, weighted by the same entries.
  [[nodiscard]] double critical_entries() const { return critical_entries_; }
  /// total / critical entries: the most any thread count can speed up a
  /// single-chunk pooled drain over one thread.
  [[nodiscard]] double parallelism_bound() const {
    return critical_entries_ > 0 ? total_entries_ / critical_entries_ : 0.0;
  }
  /// Critical-path depth of one task: the pool priority (deep tasks first).
  [[nodiscard]] std::int64_t priority(std::uint32_t id) const {
    return prio_[id];
  }
  [[nodiscard]] const DepBuilder::Deps& deps() const { return deps_; }

  /// Drain the solve DAG. With a pool, through drain_deps(), once per RHS
  /// column chunk: `chunks` disjoint copies of the graph go through one
  /// drain, `body(id, chunk)` runs task `id` on column chunk `chunk`, and
  /// tasks are released as in-degrees reach zero. Without one, the tasks
  /// run in id order (every edge points forward, so that is a topological
  /// order) on the one chunk, Slice tasks skipped. `body` returns false to
  /// stop the drain cooperatively.
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
  std::uint32_t slice_tasks_ = 0;
  double total_entries_ = 0;
  double critical_entries_ = 0;
};

} // namespace blr::core
