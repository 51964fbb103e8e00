#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "symbolic/symbolic.hpp"

namespace blr::core {

/// The two task kinds of the factorization graph (DESIGN.md §12).
enum class DagTaskKind : std::uint8_t {
  Elim,  ///< factor, policy compress and TRSM of supernode k's panel
  Upd,   ///< every block update source k sends to target supernode t
};

/// One node of the factorization graph. Elim has k == t. Upd covers the
/// bloks [b0, b1) of source k, the ones facing target t; it applies every
/// (bi, bj) update of k that lands in t, column blok by column blok.
/// `assembles` marks the first task declared to write t: it assembles t
/// before its own body, and t's write chain orders every other access to t
/// after it.
struct DagTask {
  DagTaskKind kind = DagTaskKind::Elim;
  index_t k = -1;
  index_t t = -1;
  index_t b0 = -1;
  index_t b1 = -1;
  bool assembles = false;
};

/// Generic read/write-set dependency inference. Tasks are declared in the
/// canonical sequential order and declare which addresses they read and
/// write; infer() turns the access lists into explicit edges:
///
///   - a Read depends on the last Write of the address;
///   - a Write depends on every Read since the last Write (or on the last
///     Write when nothing read in between) — so writers to one address form
///     a chain in declaration order.
///
/// Because declaration order is the sequential execution order, the inferred
/// DAG is acyclic by construction (every edge points forward), and the
/// write-chain rule makes every address's value history identical under any
/// topological execution order — the determinism property the `dag` tests
/// memcmp.
class DepBuilder {
public:
  /// Pre-size the internal vectors (optional; exact counts avoid regrowth).
  void reserve(std::uint64_t num_tasks, std::uint64_t num_accesses) {
    (void)num_tasks;
    accesses_.reserve(num_accesses);
  }

  /// Declare the next task; returns its id (== its canonical sequence
  /// number: ids ascend in declaration order).
  std::uint32_t add_task();

  /// Declare that `task` reads / writes `addr`. Accesses must be declared in
  /// task order (infer() throws otherwise).
  void read(std::uint32_t task, std::uint64_t addr);
  void write(std::uint32_t task, std::uint64_t addr);

  /// Inferred dependency structure: CSR successor lists plus in-degrees.
  struct Deps {
    std::vector<std::uint32_t> succ_offset;  ///< size ntasks + 1
    std::vector<std::uint32_t> succ;         ///< deduplicated, ascending per task
    std::vector<std::int32_t> indeg;         ///< incoming edge count per task
    std::uint64_t num_edges = 0;
  };
  [[nodiscard]] Deps infer() const;

  [[nodiscard]] std::uint32_t num_tasks() const { return ntasks_; }

private:
  struct Access {
    std::uint64_t addr;
    std::uint32_t task;
    bool is_write;
  };
  std::uint32_t ntasks_ = 0;
  std::vector<Access> accesses_;
};

/// Result of one drain_deps() run.
struct DepDrainStats {
  std::uint64_t executed = 0;    ///< tasks whose body ran
  std::uint64_t ready_peak = 0;  ///< max tasks released but not yet started
};

/// Drain any inferred dependency structure. `body(id)` runs one task and
/// returns false to stop the drain cooperatively (its successors — and,
/// transitively, everything they gate — are never released). With a pool,
/// ready tasks are submitted with `priority(id)` and completed tasks release
/// their successors from the worker; the drain blocks on pool->wait_idle(),
/// so the pool must not be shared with another concurrent drain. Without a
/// pool, the lowest-id ready task always runs next — exactly the canonical
/// declaration (sequential) order. Shared by TaskGraph (factorization) and
/// SolvePlan (triangular solve).
DepDrainStats drain_deps(
    const DepBuilder::Deps& deps, ThreadPool* pool,
    const std::function<bool(std::uint32_t)>& body,
    const std::function<std::int64_t(std::uint32_t)>& priority);

/// Runtime-checked hand-off between graph tasks: one monotonically
/// increasing epoch per supernode, mirroring the Tile state machine
/// (Unassembled → Assembled → Factored) at the scheduling layer. Each task
/// asserts the epoch its inputs must have reached (expect()) and publishes
/// its own completion (advance(), a CAS so a double-run or out-of-order run
/// of a writer is caught, not absorbed). A violation means the inferred
/// dependencies failed to order two tasks — the contract the `dag` tests
/// pin — and throws blr::Error.
class EpochGate {
public:
  static constexpr std::uint8_t kUnassembled = 0;
  static constexpr std::uint8_t kAssembled = 1;  ///< updates may land
  static constexpr std::uint8_t kFactored = 2;   ///< immutable from here on

  EpochGate() = default;
  explicit EpochGate(std::uint64_t num_addrs);

  /// Throws unless the address has reached exactly `want` (acquire).
  void expect(std::uint64_t addr, std::uint8_t want) const;
  /// CAS `from` → `to` (release); throws when the address was not at `from`.
  void advance(std::uint64_t addr, std::uint8_t from, std::uint8_t to);

  [[nodiscard]] std::uint8_t load(std::uint64_t addr) const {
    return ep_[addr].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t size() const { return n_; }

private:
  std::unique_ptr<std::atomic<std::uint8_t>[]> ep_;
  std::uint64_t n_ = 0;
};

/// The factorization schedule (DESIGN.md §12): one Elim task per supernode
/// and one Upd task per (source, target) pair. Sources are declared in
/// decreasing critical-path priority, each as Elim(k) followed by Upd(k, t)
/// for each target t of k, ascending. Upd(k, t) reads k and writes t,
/// Elim(t) writes t, so the write chain of each target fixes the order its
/// updates land in: draining the graph in task-id order is the sequential
/// factorization, and any parallel drain produces the same bits. The first
/// writer of t (its first Upd, or Elim(t) for a leaf) assembles t, so a
/// supernode's storage exists only from its first update on. The graph
/// does not depend on the LLᵗ/LU flavor: both update the same (source,
/// target) pairs, and only the pairs inside an Upd differ.
class TaskGraph {
public:
  /// Build the graph for one symbolic structure. The graph is purely
  /// symbolic: it can be built (and unit-tested) without any numeric state.
  static TaskGraph build(const symbolic::SymbolicFactor& sf);

  [[nodiscard]] std::uint32_t num_tasks() const {
    return static_cast<std::uint32_t>(tasks_.size());
  }
  [[nodiscard]] const DagTask& task(std::uint32_t id) const {
    return tasks_[id];
  }
  [[nodiscard]] const DepBuilder::Deps& deps() const { return deps_; }
  [[nodiscard]] std::uint64_t num_edges() const { return deps_.num_edges; }
  [[nodiscard]] std::int32_t indegree(std::uint32_t id) const {
    return deps_.indeg[id];
  }
  /// Successor ids of `id` (begin/end pointers into the CSR array).
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*>
  successors(std::uint32_t id) const {
    return {deps_.succ.data() + deps_.succ_offset[id],
            deps_.succ.data() + deps_.succ_offset[id + 1]};
  }
  /// Longest dependency chain, in tasks (the depth bound on parallelism).
  [[nodiscard]] std::uint64_t critical_path() const { return critical_path_; }

private:
  std::vector<DagTask> tasks_;
  DepBuilder::Deps deps_;
  std::uint64_t critical_path_ = 0;
};

} // namespace blr::core
