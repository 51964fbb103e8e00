#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/resource_governor.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/options.hpp"
#include "core/rank_memory.hpp"
#include "core/solve_plan.hpp"
#include "core/task_graph.hpp"
#include "core/update_policy.hpp"
#include "lowrank/buffer_pool.hpp"
#include "lowrank/kernels.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic.hpp"

namespace blr::core {

struct SolveApply;

/// Numeric storage for one column block: every block — diagonal, L panel,
/// (for LU) transposed-U panel, LUAR accumulators — is a lr::Tile charged to
/// one of the supernode's arenas. The arenas are declared before the tiles
/// so tiles discharge first on destruction.
struct CblkData {
  lr::TileArena arena{MemCategory::Factors};          ///< factor tiles
  lr::TileArena acc_arena{MemCategory::Workspace};    ///< LUAR accumulators
  lr::Tile diag;                        ///< dense diagonal tile
  std::vector<lr::Tile> lpanel;
  std::vector<lr::Tile> upanel;         ///< empty for LLᵗ
  std::vector<index_t> ipiv;            ///< local pivots (LU diagonal block)
  /// LUAR accumulators, Minimal-Memory's extend-add: low-rank tiles holding
  /// the padded [U_acc, V_acc] factors of pending contributions awaiting one
  /// combined extend-add (rank 0 = nothing pending). Allocated only for the
  /// bloks the policy assembled low-rank (empty tiles elsewhere; empty
  /// vectors when no blok of the panel is low-rank).
  std::vector<lr::Tile> lacc;
  std::vector<lr::Tile> uacc;
  bool eliminated = false;
};

/// Where one right-looking block update (k, bi, bj) lands: the target
/// supernode/blok, the offsets inside it, the contribution's dimensions, and
/// the triangle bookkeeping. Pure symbolic geometry — computing it touches no
/// numeric state, so an update can be located without the target lock.
struct UpdateLoc {
  index_t tcblk = -1;   ///< target supernode
  index_t tb_idx = -1;  ///< target blok index (-1: diagonal block)
  index_t roff = 0;     ///< row offset inside the target block
  index_t coff = 0;     ///< column offset inside the target block
  index_t rh = 0;       ///< contribution rows (row blok height)
  index_t ch = 0;       ///< contribution cols (col blok height)
  bool transpose = false;    ///< apply the transposed contribution (U mirror)
  bool target_diag = false;  ///< lands on the diagonal block
  bool target_upper = false; ///< lands in the U panel (LU only)
};

/// State a numeric pass replays over the same SymbolicPlan (DESIGN.md §15).
/// `dag` is the factorization task graph (required; the Solver builds it
/// once per plan). The other two are optional and cost-only: ranks
/// warm-start compressions (verified, grow-on-mismatch), buffers recycle
/// retired factor storage. Pointed-to state must outlive the NumericFactor.
struct NumericReuse {
  const RankMemory* ranks = nullptr;   ///< learned per-block ranks
  lr::BufferPool* buffers = nullptr;   ///< retired dense-buffer pool
  const TaskGraph* dag = nullptr;      ///< factorization task graph
};

/// Dedicated thread pool for the parallel solve phase (DESIGN.md §16),
/// owned by the Solver and shared (by shared_ptr) with every NumericFactor
/// it produces, so Session snapshots keep the pool alive across
/// refactorize(). Separate from the factorization pool because the solve
/// drain blocks on wait_idle(), which must never observe another user's
/// tasks. `mu` admits one pooled drain at a time: a concurrent solve()
/// drains the same plan on its own thread instead of queueing — same bits,
/// and const solve() calls stay safe under concurrency.
struct SolveEngine {
  ThreadPool pool;
  std::mutex mu;
  explicit SolveEngine(int threads) : pool(threads) {}
};

/// Flops of one solve call (both sweeps, every right-hand side; see
/// NumericFactor::solve_flops_per_rhs) below which it drains on the calling
/// thread even when a solve pool is attached: the pool's hand-offs cost more
/// than the parallel drain saves (DESIGN.md §16).
inline constexpr double kSolvePoolFlops = 2e5;

/// Largest number of queued single-RHS solve requests a Session coalesces
/// into one blocked multi-RHS solve (DESIGN.md §15). Each column of the
/// blocked solve is bit-identical to the corresponding single-RHS solve,
/// so coalescing never changes results.
inline constexpr index_t kSessionMaxBatch = 128;

/// What one solve call actually did (optional out-param of
/// NumericFactor::solve / solve_permuted; feeds SolvePhaseStats and the
/// per-request Session::SolveStats).
struct SolveRunInfo {
  std::uint64_t tasks = 0;       ///< solve-plan task bodies run
  bool parallel = false;         ///< drained the solve DAG over the pool
  std::uint32_t chunks = 1;      ///< RHS column chunks, one DAG copy each
  std::uint64_t widen_hits = 0;  ///< fp32 widen-cache hits during this call
};

/// The supernodal numeric factorization: one task graph of supernode
/// eliminations and (source, target) update groups (DESIGN.md §12),
/// parameterized by an UpdatePolicy (Dense baseline, Just-In-Time, Minimal
/// Memory), for both LU (general, symmetric pattern) and LLᵗ
/// (SPD). Every numeric kernel is a dispatch:: call (kernels_dispatch.hpp),
/// which counts itself in its row of the kernel table.
class NumericFactor {
public:
  using Reuse = NumericReuse;

  /// Splits the initial matrix, in the solver's ordering, into one input
  /// slice per supernode; factorize() assembles each into the block
  /// structure. `governor` (may be null: ungoverned) supplies the deadline
  /// watchdog the factorization polls and receives injected clock skew;
  /// budget breaches arrive through the MemoryTracker as ResourceError
  /// regardless.
  /// `reuse` carries the task graph factorize() drains, plus warm-start
  /// state for re-factorization.
  NumericFactor(const sparse::CscMatrix& a, const ordering::Ordering& ord,
                const symbolic::SymbolicFactor& sf, const SolverOptions& opts,
                bool llt, ResourceGovernor* governor, Reuse reuse);

  NumericFactor(const NumericFactor&) = delete;
  NumericFactor& operator=(const NumericFactor&) = delete;

  /// Runs the numeric factorization: drains the task graph over `pool` when
  /// given, else on the calling thread in task-id order; both produce the
  /// same bits. The first task that writes a supernode assembles it (for
  /// Minimal-Memory this is where the initial compression of Algorithm 1
  /// l.1-4 happens) and frees its input slice. Call once per NumericFactor.
  void factorize(ThreadPool* pool);

  /// Triangular solves in the permuted index space on a block of right-hand
  /// sides (n x nrhs, in/out), by draining the attached SolvePlan (see
  /// set_solve_context): over the solve pool when there is an engine, the
  /// solve's flops reach kSolvePoolFlops and the engine's lock is free,
  /// else in task-id order on the calling thread. Both
  /// run the same task bodies and are memcmp-identical. `info` (optional)
  /// reports what the call actually did.
  void solve_permuted(la::DView x, SolveRunInfo* info) const;
  void solve_permuted(la::DView x) const { solve_permuted(x, nullptr); }
  void solve_permuted(real_t* x) const {
    solve_permuted(la::DView(x, sf_.n(), 1, sf_.n()));
  }

  /// Solve A·x = b including permutation handling (b and x length n).
  void solve(const real_t* b, real_t* x) const;

  /// Multi-RHS variant: X = A⁻¹·B (both n x nrhs; aliasing allowed).
  void solve(la::DConstView b, la::DView x, SolveRunInfo* info = nullptr) const;

  /// Attach the solve-phase execution context (DESIGN.md §16): the cached
  /// SolvePlan for this factor's symbolic structure plus the Solver's
  /// shared solve engine (null: every solve drains on the calling thread).
  /// Called by the Solver after each successful factorization; a solve
  /// without a plan attached throws.
  void set_solve_context(std::shared_ptr<const SolvePlan> plan,
                         std::shared_ptr<SolveEngine> engine);

  /// Flops of the forward and backward sweeps for one right-hand side: two
  /// per stored factor entry each sweep reads (LLᵗ reads its L twice).
  /// Counted by set_solve_context.
  [[nodiscard]] double solve_flops_per_rhs() const { return solve_flops_; }

  /// fp32 widen-cache introspection (DESIGN.md §16): bytes/tiles currently
  /// held, and cumulative factor reuses served. All zero until the first
  /// solve of a factor holding fp32-at-rest tiles; the cache dies with the
  /// factor, so refactorize() invalidates it wholesale.
  [[nodiscard]] std::size_t widen_cache_bytes() const { return widen_bytes_; }
  [[nodiscard]] std::uint64_t widen_cache_tiles() const { return widen_tiles_; }
  [[nodiscard]] std::uint64_t widen_hits() const {
    return widen_hits_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool is_llt() const { return llt_; }
  [[nodiscard]] const symbolic::SymbolicFactor& symbolic() const { return sf_; }

  /// Entries actually stored (dense + low-rank factors, diag included).
  [[nodiscard]] std::size_t final_entries() const;
  /// Bytes actually stored — precision-aware, so under MixedTiles this is
  /// less than final_entries() * sizeof(real_t).
  [[nodiscard]] std::size_t final_bytes() const;
  /// Bytes of final_bytes() held by low-rank U/V factors — the part of the
  /// storage that is eligible for fp32 demotion under MixedTiles.
  [[nodiscard]] std::size_t lowrank_bytes() const;
  /// Panel blocks whose factors ended in fp32 at-rest storage.
  [[nodiscard]] index_t num_fp32_blocks() const;
  [[nodiscard]] index_t num_lowrank_blocks() const;
  [[nodiscard]] index_t num_dense_blocks() const;
  /// Mean rank over the final low-rank blocks (dense blocks excluded).
  [[nodiscard]] double average_rank() const;
  /// Fraction of compressible panel blocks that ended dense (fallbacks plus
  /// policy keep-dense decisions); 0 when nothing is compressible.
  [[nodiscard]] double dense_block_fraction() const;
  [[nodiscard]] index_t pivots_replaced() const {
    return pivots_replaced_.load(std::memory_order_relaxed);
  }
  /// Flops of this factorization's dense update GEMMs
  /// (2·rows·cols·width each).
  [[nodiscard]] std::uint64_t dense_update_flops() const {
    return update_flops_.load(std::memory_order_relaxed);
  }
  /// Flops of this factorization's dense panel TRSMs (rows·width² per
  /// dense blok).
  [[nodiscard]] std::uint64_t panel_solve_flops() const {
    return panel_flops_.load(std::memory_order_relaxed);
  }

  /// Counters of the task-graph run (filled by every factorize()).
  struct DagStats {
    std::uint64_t tasks = 0;          ///< graph nodes (Elim + Upd)
    std::uint64_t edges = 0;          ///< inferred dependencies
    std::uint64_t executed = 0;       ///< task bodies actually run
    std::uint64_t ready_peak = 0;     ///< max released-but-not-started tasks
    std::uint64_t critical_path = 0;  ///< longest dependency chain (tasks)
    std::uint64_t fanout_panels = 0;  ///< Elim tasks that fanned out their bloks
    /// Pool helper tasks submitted by the panel fan-out
    /// (ThreadPool::parallel_for); each is a pool task beside the graph's.
    std::uint64_t pool_helpers = 0;
  };
  [[nodiscard]] const DagStats& dag_stats() const { return dag_stats_; }

  /// Whether Elim(k) spreads its per-blok work (compression, TRSM) over a
  /// pool: its panel has more than one blok item and its estimated work
  /// clears kFanOutWork (numeric.cpp, DESIGN.md §12). Symbolic: the same
  /// answer at every thread count.
  [[nodiscard]] bool fans_out(index_t k) const;

  /// Direct block access (tests / benches).
  [[nodiscard]] const CblkData& cblk_data(index_t k) const {
    return data_[static_cast<std::size_t>(k)];
  }

  /// Record the final rank of every panel block into `out` (kDense for
  /// blocks that ended dense) and mark the record valid. Called by the
  /// Solver after a successful pass; the record seeds the next
  /// re-factorization's warm-started compressions.
  void harvest_ranks(RankMemory& out) const;

  /// Move every factor buffer (dense blocks, diagonals, low-rank U/V) into
  /// `pool` for the next numeric pass to acquire. Destructive: the factors
  /// are unusable afterwards — callers retire this NumericFactor right away.
  void donate_buffers(lr::BufferPool& pool);

  /// Warm-start event counters of this pass (all zero on a cold run).
  [[nodiscard]] const WarmCounters& warm_counters() const {
    return warm_counters_;
  }

private:
  /// Split the permuted input into input_ (constructor).
  void slice_input(const sparse::CscMatrix& a);
  /// Gather, compress (policy) and check supernode k, then free its input
  /// slice.
  void assemble_cblk(index_t k);
  /// Run item(i) for i in [0, n): in order on the calling thread without a
  /// pool, else through parallel_for (which rethrows the first exception
  /// after the join), counting its helper tasks.
  void run_items(ThreadPool* pool, index_t n,
                 const std::function<void(index_t)>& item);
  void gather_panel(index_t k, const std::vector<sparse::Triplet>& entries,
                    std::vector<lr::Tile>& panel, bool upper);
  /// Diagonal factorization + policy elimination hook + panel solves of
  /// cblk k.
  void factor_panel(index_t k);
  /// Drain body of one graph task, assembling its target first when the
  /// task is marked to; returns false on failure (stops the run).
  bool run_task(const TaskGraph& g, std::uint32_t id);
  /// Elim(k): factor_panel plus the epoch hand-off.
  void run_elim(index_t k);
  /// Upd(k, t): every update of source k that lands in target t, one
  /// batched GEMM per column blok of k (DESIGN.md §12).
  void run_update(const DagTask& u);
  /// Symbolic geometry of the (bi, bj) update produced by supernode k.
  [[nodiscard]] UpdateLoc locate_update(index_t k, index_t bi, index_t bj) const;
  /// The dense view an update subtracts from (transposed shape for the U
  /// mirror), or a null view of that shape when the target tile is
  /// low-rank. Caller holds the target lock.
  [[nodiscard]] la::DView dense_target(const UpdateLoc& loc);
  /// The contribution P = A·Bᵗ from a batched GEMM's staged output
  /// −P (−Pᵗ when `transpose`).
  [[nodiscard]] static lr::Tile unstage(const la::DMatrix& neg, bool transpose);
  /// Apply a formed contribution product: LR2GE onto the diagonal, LUAR
  /// accumulation, or extend-add. Caller holds the target lock.
  void finish_update(const UpdateLoc& loc, const lr::Tile& p);
  /// Merge a pending LUAR accumulator into its block (caller holds the
  /// target lock or the target is quiescent).
  void flush_accumulator(index_t cblk, bool upper, index_t blok_idx);
  void flush_all_accumulators(index_t cblk);
  [[nodiscard]] bool compressible(index_t k, const symbolic::Blok& b) const;

  /// Build a FailureReport stamped with the active configuration and the
  /// elapsed factorization time.
  [[nodiscard]] FailureReport make_report(FailureKind kind, index_t supernode,
                                          index_t local_pivot, double pivot_mag,
                                          std::string detail = {}) const;
  /// Throw NumericalError carrying @p report.
  [[noreturn]] void fail(FailureReport report) const;
  /// First-failure-wins capture: records the report, trips failed_ and
  /// cancels the pool so queued eliminations drain unrun.
  void record_failure(FailureReport report);
  /// Non-finite scan of one supernode's blocks; throws on NaN/Inf.
  void check_cblk_finite(index_t k, FailureKind kind) const;
  /// Deterministic injection hook (SolverOptions::fault), CompressionFail
  /// kind: called once per compression site.
  void maybe_fail_compression(index_t k);

  // ---- solve phase (DESIGN.md §16) -----------------------------------
  /// The two task bodies of the solve on RHS block x: Fwd(t) pulls every
  /// panel block facing t, then solves t's diagonal; Bwd(k) applies k's own
  /// panel blocks, then solves k's diagonal.
  void solve_fwd(index_t t, la::DView x) const;
  void solve_bwd(index_t k, la::DView x) const;
  /// Apply one panel tile of a task: dense tiles queue onto `run` (flushed
  /// as one dispatch), low-rank tiles flush `run` and dispatch at once, so
  /// every RHS element sees its updates in block order.
  void solve_apply(index_t k, index_t bi, la::DConstView in, la::DView out,
                   std::vector<SolveApply>& run, bool backward) const;
  /// Resolve a panel tile's low-rank factors as fp64 views; fp32 tiles
  /// resolve through the widen cache (counting a hit).
  void solve_lr_views(index_t k, index_t bi, bool upper, const lr::Tile& blk,
                      la::DConstView& u, la::DConstView& v) const;
  /// Build the per-epoch fp64 copies of every fp32-at-rest factor
  /// (Workspace-charged; no-op when the factor holds no fp32 tiles).
  void build_widen_cache() const;

  /// Reusable Workspace-tracked permutation scratch (one block per
  /// concurrent solve() call, pooled across calls).
  struct SolveScratch {
    la::DMatrix m;
    TrackedAlloc track{MemCategory::Workspace, 0};
  };
  [[nodiscard]] std::unique_ptr<SolveScratch> acquire_scratch(
      index_t rows, index_t cols) const;
  void release_scratch(std::unique_ptr<SolveScratch> s) const;

  // ---- resource governance (DESIGN.md §13) ---------------------------
  /// Deadline watchdog poll from the hot loops: throws ResourceError
  /// (Deadline, stamped with supernode k) once the governed deadline passed.
  void poll_deadline(index_t k) const;
  /// AllocFail-at-supernode injection: throw an injected budget-style
  /// ResourceError when the fault targets supernode k's assembly.
  void maybe_inject_alloc_fail(index_t k) const;
  /// ClockSkew injection: advance the governor's clock at supernode k's
  /// diagonal factorization.
  void maybe_skew_clock(index_t k);
  /// Fill in what the breach site could not know: the requesting supernode
  /// (the MemoryTracker sees bytes, not block structure) and the elapsed
  /// time.
  void stamp_resource(ResourceReport& r, index_t k) const;
  /// First-failure-wins capture of a resource breach (the ResourceError
  /// sibling of record_failure): trips failed_ and cancels the pool.
  void record_resource_failure(ResourceReport report);
  /// Re-throw the recorded first failure as its original type. Called after
  /// the run drained; reads the report without the mutex (no tasks left).
  [[noreturn]] void throw_recorded() const;

  const ordering::Ordering& ord_;
  const symbolic::SymbolicFactor& sf_;
  SolverOptions opts_;
  bool llt_;
  Reuse reuse_;                 ///< warm-start state (empty on cold runs)
  WarmCounters warm_counters_;  ///< warm-start events of this pass

  /// The strategy object the driver is parameterized by, plus the context
  /// its decisions run in (compression config + fault-injection hook).
  std::unique_ptr<UpdatePolicy> policy_;
  PolicyContext pctx_;

  /// One supernode's share of the permuted input, charged to Workspace and
  /// freed by its assembly: `l` holds the entries (i, j) of its columns j
  /// from the diagonal block down, `u` (LU only) the entries right of the
  /// diagonal block in its rows, transposed into the same (i, j) form.
  struct InputSlice {
    std::vector<sparse::Triplet> l;
    std::vector<sparse::Triplet> u;
    TrackedAlloc track;
  };
  std::vector<InputSlice> input_;

  std::vector<CblkData> data_;
  std::vector<std::mutex> locks_;              // per-cblk update locks
  EpochGate epochs_;                           // per-cblk task hand-off
  ThreadPool* pool_ = nullptr;                 // active during factorize()
  real_t pivot_cutoff_ = 0;                    // absolute static-pivot threshold
  std::atomic<index_t> pivots_replaced_{0};
  std::atomic<std::uint64_t> update_flops_{0};  // dense update GEMM flops
  std::atomic<std::uint64_t> panel_flops_{0};   // dense panel TRSM flops
  std::atomic<std::uint64_t> fanout_panels_{0};  // Elim tasks that fanned out
  std::atomic<std::uint64_t> pool_helpers_{0};   // parallel_for helper tasks
  Timer run_clock_;  // since factorize() began; failure reports read it
  ResourceGovernor* gov_ = nullptr;   // null: ungoverned run
  std::atomic<bool> failed_{false};
  std::string error_;
  FailureReport report_;              // first failure, guarded by error_mutex_
  bool resource_failed_ = false;      // first failure was a resource breach
  ResourceReport resource_report_;    // its report, guarded by error_mutex_
  std::mutex error_mutex_;
  std::atomic<index_t> compressions_{0};  // compression-site counter (injection)

  DagStats dag_stats_;

  // ---- solve phase (DESIGN.md §16) state ------------------------------
  std::shared_ptr<const SolvePlan> splan_;   ///< cached solve schedule
  std::shared_ptr<SolveEngine> sengine_;     ///< shared solve pool (may be null)
  std::vector<index_t> iperm_;  ///< inverse permutation: x(j) = xp(iperm_[j])
  /// fp32 widen cache: per-cblk fp64 copies of the fp32-at-rest U/V
  /// factors, built once per factor (on the first solve) under
  /// `widen_once_` and charged to Workspace. Inner vectors are indexed by
  /// blok and empty-matrix for tiles that are not fp32 low-rank.
  struct WidenedPanel {
    std::vector<la::DMatrix> lu, lv;  ///< L-panel factor copies
    std::vector<la::DMatrix> uu, uv;  ///< U-panel copies (LU only)
  };
  mutable std::vector<WidenedPanel> widen_;
  mutable TrackedAlloc widen_track_{MemCategory::Workspace, 0};
  mutable std::once_flag widen_once_;
  double solve_flops_ = 0;  ///< see solve_flops_per_rhs()
  mutable std::uint64_t widen_tiles_ = 0;
  mutable std::size_t widen_bytes_ = 0;
  mutable std::atomic<std::uint64_t> widen_hits_{0};
  /// Permutation-scratch pool (guarded by scratch_mu_).
  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<SolveScratch>> scratch_pool_;
};

} // namespace blr::core
