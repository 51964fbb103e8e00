#include "core/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "core/kernels_dispatch.hpp"

namespace blr::core {

namespace {

/// Narrowest RHS column chunk a parallel solve drains as its own DAG copy:
/// the narrowest width that never lost to a single copy on the lap 10³–36³
/// measurements (DESIGN.md §16).
constexpr index_t kSolveChunkCols = 16;

/// Fewest solve-pool workers for which a pooled drain runs the Slice tasks
/// (DESIGN.md §16). Whole pulls bound a solve at about 2.1× (lap 20³–36³),
/// so two workers are already busy and the slices only add work: 1-RHS
/// lap / conv-diff 36³ solves ran 0–6% slower with them at 2 workers and
/// 5–19% faster at 3.
constexpr int kSolveSliceMinThreads = 3;

/// Estimated panel work (see NumericFactor::fans_out) from which Elim(k)
/// spreads its per-blok compressions and TRSMs over the pool, in units of
/// h·w² (one TRSM of an h-row blok against a w-wide diagonal). Below it the
/// fork-join costs more than it saves. Calibrated on lap 36³ JIT and
/// conv-diff 36³ MinMem LU at 4 threads (DESIGN.md §12).
constexpr double kFanOutWork = 1 << 22;

/// Summed rank at which a LUAR accumulator merges its pending low-rank
/// contributions into the block in one LR2LR extend-add (Minimal-Memory's
/// extend-add; the rest merge when the block's supernode is eliminated). A
/// larger value saves recompressions and holds more pending factors: the
/// fastest of 8/16/32 whose peak stays within 2% of immediate extend-adds
/// on conv-diff 36³ LU and lap 64³ at τ = 1e-4 (DESIGN.md §9).
constexpr index_t kAccumulateMaxRank = 32;

template <typename T>
bool all_finite(const la::Matrix<T>& m) {
  const T* p = m.data();
  const std::size_t n = static_cast<std::size_t>(m.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(p[i]))) return false;
  }
  return true;
}

bool all_finite(const lr::Tile& t) {
  if (t.rank() == 0) return true;
  if (t.is_lowrank()) {
    if (t.precision() == lr::Precision::Fp32)
      return all_finite(t.lr().u32) && all_finite(t.lr().v32);
    return all_finite(t.lr().u) && all_finite(t.lr().v);
  }
  return all_finite(t.dense());
}

/// Index of the blok (within cblk c) whose row interval contains `row`.
index_t find_blok_row(const symbolic::Cblk& c, index_t row) {
  index_t lo = 0;
  index_t hi = static_cast<index_t>(c.bloks.size()) - 1;
  while (lo <= hi) {
    const index_t mid = (lo + hi) / 2;
    const symbolic::Blok& b = c.bloks[static_cast<std::size_t>(mid)];
    if (row < b.frow) hi = mid - 1;
    else if (row >= b.lrow) lo = mid + 1;
    else return mid;
  }
  throw Error("assembly: row outside symbolic structure");
}

/// Dispatch a solve task's pending run of dense tile applies as one call.
void flush_dense(std::vector<SolveApply>& run, bool backward) {
  if (run.empty()) return;
  dispatch::solve_gemm(run, backward);
  run.clear();
}

} // namespace

NumericFactor::NumericFactor(const sparse::CscMatrix& a,
                             const ordering::Ordering& ord,
                             const symbolic::SymbolicFactor& sf,
                             const SolverOptions& opts, bool llt,
                             ResourceGovernor* governor, Reuse reuse)
    : ord_(ord), sf_(sf), opts_(opts), llt_(llt), reuse_(reuse),
      data_(static_cast<std::size_t>(sf.num_cblks())),
      locks_(static_cast<std::size_t>(sf.num_cblks())),
      epochs_(static_cast<std::uint64_t>(sf.num_cblks())), gov_(governor) {
  // Guard the assembly input: a single NaN/Inf would otherwise propagate
  // silently through the factorization into a garbage answer.
  const auto& vals = a.values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (!std::isfinite(static_cast<double>(vals[i]))) {
      std::ostringstream os;
      os << "input matrix value at nnz slot " << i << " is " << vals[i];
      fail(make_report(FailureKind::NonFiniteInput, -1, -1, std::nan(""),
                       os.str()));
    }
  }
  if (!llt_ && opts_.pivot_threshold > 0) {
    // Absolute static-pivot cutoff relative to the matrix magnitude.
    real_t amax = 0;
    for (const real_t v : a.values()) amax = std::max(amax, std::abs(v));
    pivot_cutoff_ = opts_.pivot_threshold * amax;
  }
  policy_ = make_update_policy(opts_);
  pctx_.kind = opts_.kind;
  pctx_.tolerance = opts_.tolerance;
  pctx_.precision = opts_.precision;
  pctx_.compression_site = [this](index_t k) { maybe_fail_compression(k); };
  // Warm-start wiring (re-factorization only; empty on cold runs).
  pctx_.warm = reuse_.ranks;
  pctx_.warm_dense_skip = opts_.warm_dense_skip;
  pctx_.warm_counters = &warm_counters_;
  iperm_.resize(ord_.perm.size());
  for (std::size_t i = 0; i < ord_.perm.size(); ++i)
    iperm_[static_cast<std::size_t>(ord_.perm[i])] = static_cast<index_t>(i);
  slice_input(a);
}

void NumericFactor::slice_input(const sparse::CscMatrix& a) {
  // Entry (i, j) of the permuted matrix belongs to the L side of the
  // supernode owning column j when i lies at or below its diagonal block;
  // otherwise to the U side of the supernode owning row i, transposed (LU),
  // or to nobody (LLᵗ: the mirror of an L entry). Slot 2k is supernode k's
  // L side, 2k + 1 its U side. One pass sizes the slots, a second fills
  // them, so no slice holds spare capacity.
  const auto& colptr = a.colptr();
  const auto& rowind = a.rowind();
  const auto& values = a.values();
  const auto each_entry = [&](const auto& f) {
    for (index_t col = 0; col < a.cols(); ++col) {
      const index_t j = iperm_[static_cast<std::size_t>(col)];
      const auto kj = static_cast<std::size_t>(sf_.cblk_of(j));
      for (index_t p = colptr[static_cast<std::size_t>(col)];
           p < colptr[static_cast<std::size_t>(col) + 1]; ++p) {
        const index_t i =
            iperm_[static_cast<std::size_t>(rowind[static_cast<std::size_t>(p)])];
        const real_t v = values[static_cast<std::size_t>(p)];
        if (i >= sf_.cblk(static_cast<index_t>(kj)).fcol) {
          f(2 * kj, sparse::Triplet{i, j, v});
        } else if (!llt_) {
          f(2 * static_cast<std::size_t>(sf_.cblk_of(i)) + 1,
            sparse::Triplet{j, i, v});
        }
      }
    }
  };
  input_.resize(static_cast<std::size_t>(sf_.num_cblks()));
  const auto slot = [this](std::size_t s) -> std::vector<sparse::Triplet>& {
    InputSlice& in = input_[s / 2];
    return s % 2 == 0 ? in.l : in.u;
  };
  std::vector<std::size_t> count(2 * input_.size(), 0);
  each_entry([&count](std::size_t s, const sparse::Triplet&) { ++count[s]; });
  for (std::size_t s = 0; s < count.size(); ++s) slot(s).reserve(count[s]);
  each_entry([&slot](std::size_t s, const sparse::Triplet& e) {
    slot(s).push_back(e);
  });
  for (InputSlice& in : input_) {
    in.track = TrackedAlloc(MemCategory::Workspace,
                            (in.l.size() + in.u.size()) * sizeof(sparse::Triplet));
  }
}

bool NumericFactor::compressible(index_t k, const symbolic::Blok& b) const {
  return sf_.cblk(k).width() >= opts_.compress_min_width &&
         b.height() >= opts_.compress_min_height;
}

FailureReport NumericFactor::make_report(FailureKind kind, index_t supernode,
                                         index_t local_pivot, double pivot_mag,
                                         std::string detail) const {
  FailureReport r;
  r.kind = kind;
  r.supernode = supernode;
  r.local_pivot = local_pivot;
  r.pivot_magnitude = pivot_mag;
  r.strategy = strategy_name(opts_.strategy);
  r.compression = kind_name(opts_.kind);
  r.factorization = llt_ ? "LLt" : "LU";
  r.tolerance = static_cast<double>(opts_.tolerance);
  r.elapsed_seconds = run_clock_.elapsed();
  r.detail = std::move(detail);
  return r;
}

void NumericFactor::fail(FailureReport report) const {
  std::string what = report.to_string();
  throw NumericalError(std::move(what), std::move(report));
}

void NumericFactor::record_failure(FailureReport report) {
  {
    std::lock_guard lock(error_mutex_);
    if (error_.empty()) {
      error_ = report.to_string();
      report_ = std::move(report);
    }
  }
  failed_.store(true, std::memory_order_seq_cst);
  // Cooperative cancellation: drain every queued elimination so a doomed
  // parallel factorization returns in the time of one in-flight task, not
  // the time of the whole elimination tree.
  if (pool_ != nullptr) pool_->cancel();
}

void NumericFactor::stamp_resource(ResourceReport& r, index_t k) const {
  if (r.supernode < 0) r.supernode = k;
  if (r.elapsed_seconds == 0) {
    r.elapsed_seconds =
        gov_ != nullptr ? gov_->elapsed_seconds() : run_clock_.elapsed();
  }
}

void NumericFactor::record_resource_failure(ResourceReport report) {
  {
    std::lock_guard lock(error_mutex_);
    if (error_.empty()) {
      error_ = report.to_string();
      resource_report_ = std::move(report);
      resource_failed_ = true;
    }
  }
  failed_.store(true, std::memory_order_seq_cst);
  // Same drain contract as record_failure: cancel so the doomed run returns
  // in the time of the in-flight tasks, with ThreadPool::pending() == 0.
  if (pool_ != nullptr) pool_->cancel();
}

void NumericFactor::throw_recorded() const {
  // Called only after the run drained (wait_idle returned / sequential loop
  // exited): no concurrent writers remain, so the reports are safe to read
  // without the mutex.
  if (resource_failed_) throw ResourceError(error_, resource_report_);
  throw NumericalError(error_, report_);
}

void NumericFactor::poll_deadline(index_t k) const {
  if (gov_ == nullptr) return;
  if (!gov_->deadline_exceeded()) return;
  ResourceReport r = gov_->deadline_report(k);
  throw ResourceError(r.to_string(), std::move(r));
}

void NumericFactor::maybe_inject_alloc_fail(index_t k) const {
  if (opts_.fault.kind != FaultInjection::Kind::AllocFail) return;
  // at_bytes > 0 arms the MemoryTracker fail point instead (Solver does it
  // at attempt start); this hook handles the supernode-targeted form.
  if (opts_.fault.at_bytes != 0) return;
  if (opts_.fault.supernode != k || !opts_.fault.try_fire()) return;
  const MemoryTracker& t = MemoryTracker::instance();
  ResourceReport r;
  r.kind = ResourceKind::MemoryBudget;
  r.budget_bytes = t.budget();
  r.category = MemCategory::Factors;
  for (std::size_t c = 0; c < r.live_bytes.size(); ++c) {
    r.live_bytes[c] = t.current(static_cast<MemCategory>(c));
  }
  r.peak_bytes = t.peak_total();
  r.supernode = k;
  r.injected = true;
  r.elapsed_seconds =
      gov_ != nullptr ? gov_->elapsed_seconds() : run_clock_.elapsed();
  r.detail = "injected allocation failure at supernode assembly";
  throw ResourceError(r.to_string(), std::move(r));
}

void NumericFactor::maybe_skew_clock(index_t k) {
  if (opts_.fault.kind != FaultInjection::Kind::ClockSkew) return;
  if (opts_.fault.supernode != k || gov_ == nullptr) return;
  if (!opts_.fault.try_fire()) return;
  gov_->skew(opts_.fault.skew_seconds);
}

void NumericFactor::check_cblk_finite(index_t k, FailureKind kind) const {
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const char* where = nullptr;
  if (!all_finite(cd.diag)) where = "diagonal block";
  if (where == nullptr) {
    for (const auto& blk : cd.lpanel) {
      if (!all_finite(blk)) { where = "L panel"; break; }
    }
  }
  if (where == nullptr) {
    for (const auto& blk : cd.upanel) {
      if (!all_finite(blk)) { where = "U panel"; break; }
    }
  }
  if (where != nullptr) {
    std::ostringstream os;
    os << "non-finite value in " << where << " of supernode " << k
       << (kind == FailureKind::NonFiniteBlock ? " after assembly"
                                               : " after panel factorization");
    fail(make_report(kind, k, -1, std::nan(""), os.str()));
  }
}

void NumericFactor::maybe_fail_compression(index_t k) {
  if (opts_.fault.kind != FaultInjection::Kind::CompressionFail) return;
  const index_t idx = compressions_.fetch_add(1, std::memory_order_relaxed);
  if (idx == opts_.fault.index && opts_.fault.try_fire()) {
    std::ostringstream os;
    os << "injected failure of compression #" << idx;
    fail(make_report(FailureKind::CompressionFailure, k, -1, std::nan(""),
                     os.str()));
  }
}

void NumericFactor::gather_panel(index_t k,
                                 const std::vector<sparse::Triplet>& entries,
                                 std::vector<lr::Tile>& panel, bool upper) {
  const symbolic::Cblk& c = sf_.cblk(k);
  const index_t w = c.width();
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  la::DMatrix& diag = cd.diag.dense();

  std::vector<la::DMatrix> scratch;
  scratch.reserve(c.bloks.size());
  for (const auto& b : c.bloks) {
    // On a re-factorization the previous pass's retired factor buffers are
    // recycled through the pool — same shapes, so steady state is all hits.
    scratch.push_back(reuse_.buffers != nullptr
                          ? reuse_.buffers->acquire(b.height(), w)
                          : la::DMatrix(b.height(), w));
  }

  // Only the L side holds diagonal-block entries (slice_input).
  for (const sparse::Triplet& e : entries) {
    if (e.row < c.lcol) {
      diag(e.row - c.fcol, e.col - c.fcol) = e.value;
      continue;
    }
    const index_t idx = find_blok_row(c, e.row);
    scratch[static_cast<std::size_t>(idx)](
        e.row - c.bloks[static_cast<std::size_t>(idx)].frow, e.col - c.fcol) =
        e.value;
  }

  // The policy decides each tile's representation (Minimal-Memory compresses
  // here; Dense and Just-In-Time keep the gathered dense).
  panel.reserve(c.bloks.size());
  for (std::size_t idx = 0; idx < c.bloks.size(); ++idx) {
    lr::Tile t =
        policy_->assemble(k, BlockSite{static_cast<index_t>(idx), upper},
                          std::move(scratch[idx]),
                          compressible(k, c.bloks[idx]), pctx_);
    t.advance(lr::TileState::Assembled);
    if (t.is_lowrank()) t.advance(lr::TileState::Compressed);
    panel.push_back(std::move(t));
  }
}

void NumericFactor::assemble_cblk(index_t k) {
  poll_deadline(k);
  maybe_inject_alloc_fail(k);
  const symbolic::Cblk& c = sf_.cblk(k);
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  cd.diag = reuse_.buffers != nullptr
                ? lr::Tile::from_dense(
                      reuse_.buffers->acquire(c.width(), c.width()))
                : lr::Tile::make_dense(c.width(), c.width());
  InputSlice& in = input_[static_cast<std::size_t>(k)];
  gather_panel(k, in.l, cd.lpanel, /*upper=*/false);
  if (!llt_) gather_panel(k, in.u, cd.upanel, /*upper=*/true);
  in = InputSlice();  // nothing reads these entries again
  if (opts_.fault.kind == FaultInjection::Kind::PoisonBlock &&
      opts_.fault.supernode == k && opts_.fault.try_fire()) {
    // Injected data corruption: the non-finite assembly guard below must
    // turn this into a structured failure instead of a garbage answer.
    cd.diag.dense()(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
  }
  check_cblk_finite(k, FailureKind::NonFiniteBlock);
  cd.diag.advance(lr::TileState::Assembled);
  epochs_.advance(static_cast<std::uint64_t>(k), EpochGate::kUnassembled,
                  EpochGate::kAssembled);
  // One rank-0 Workspace accumulator per blok assembled
  // low-rank (only Minimal-Memory assembles low-rank, and only such a blok
  // can still be low-rank when an update reaches it); appended contributions
  // grow it until a flush folds it into the panel tile.
  const auto add_accumulators = [&](const std::vector<lr::Tile>& panel,
                                    std::vector<lr::Tile>& accs) {
    for (std::size_t i = 0; i < panel.size(); ++i) {
      if (!panel[i].is_lowrank()) continue;
      if (accs.empty()) accs.resize(panel.size());
      accs[i] = lr::Tile::make_lowrank(panel[i].rows(), panel[i].cols(),
                                       lr::LrMatrix(), MemCategory::Workspace);
    }
  };
  add_accumulators(cd.lpanel, cd.lacc);
  add_accumulators(cd.upanel, cd.uacc);
}

void NumericFactor::flush_accumulator(index_t cblk, bool upper, index_t blok_idx) {
  CblkData& cd = data_[static_cast<std::size_t>(cblk)];
  auto& accs = upper ? cd.uacc : cd.lacc;
  lr::Tile& acc = accs[static_cast<std::size_t>(blok_idx)];
  if (acc.rank() <= 0) return;  // nothing pending, or no accumulator

  const index_t rows = acc.rows();
  const index_t cols = acc.cols();
  lr::Tile p = std::move(acc);  // Workspace accounting moves with it
  acc = lr::Tile::make_lowrank(rows, cols, lr::LrMatrix(), MemCategory::Workspace);

  lr::Tile& tb = (upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(blok_idx)];
  // The accumulator is already padded to the block's shape.
  dispatch::extend_add(tb, p, 0, 0, opts_.kind, opts_.tolerance, false);
}

void NumericFactor::flush_all_accumulators(index_t cblk) {
  CblkData& cd = data_[static_cast<std::size_t>(cblk)];
  for (std::size_t i = 0; i < cd.lacc.size(); ++i)
    flush_accumulator(cblk, false, static_cast<index_t>(i));
  for (std::size_t i = 0; i < cd.uacc.size(); ++i)
    flush_accumulator(cblk, true, static_cast<index_t>(i));
}

void NumericFactor::run_items(ThreadPool* pool, index_t n,
                              const std::function<void(index_t)>& item) {
  if (pool == nullptr) {
    for (index_t i = 0; i < n; ++i) item(i);
    return;
  }
  // parallel_for skips the items after a throw and rethrows it here.
  const index_t helpers = pool->parallel_for(n, item);
  pool_helpers_.fetch_add(static_cast<std::uint64_t>(helpers),
                          std::memory_order_relaxed);
}

bool NumericFactor::fans_out(index_t k) const {
  // Each blok costs about h·w²: its TRSM, plus as much again for the RRQR of
  // a compressible blok under a compressing strategy. LU has two panels.
  const symbolic::Cblk& c = sf_.cblk(k);
  if ((llt_ ? 1 : 2) * c.bloks.size() < 2) return false;
  const bool compresses = opts_.strategy != Strategy::Dense;
  double rows = 0;
  for (const symbolic::Blok& b : c.bloks)
    rows += static_cast<double>(b.height()) *
            (compresses && compressible(k, b) ? 2.0 : 1.0);
  const double w = static_cast<double>(c.width());
  return (llt_ ? 1.0 : 2.0) * rows * w * w >= kFanOutWork;
}

void NumericFactor::factorize(ThreadPool* pool) {
  failed_.store(false);
  {
    std::lock_guard lock(error_mutex_);
    error_.clear();
    report_ = FailureReport{};
    resource_failed_ = false;
    resource_report_ = ResourceReport{};
  }
  run_clock_.reset();

  BLR_CHECK(reuse_.dag != nullptr, "factorize() needs the task graph");
  const TaskGraph& g = *reuse_.dag;
  dag_stats_ = DagStats{};
  dag_stats_.tasks = g.num_tasks();
  dag_stats_.edges = g.num_edges();
  dag_stats_.critical_path = g.critical_path();

  // Each supernode is assembled by the first task that writes it
  // (DagTask::assembles), so its storage is allocated only then. Ready tasks
  // run in critical-path order of their source supernode, so a supernode's
  // updates run right after its elimination, ahead of shallower work.
  pool_ = pool;
  const auto& prio = sf_.critical_priorities();
  const DepDrainStats rs = drain_deps(
      g.deps(), pool, [this, &g](std::uint32_t id) { return run_task(g, id); },
      [&g, &prio](std::uint32_t id) {
        return prio[static_cast<std::size_t>(g.task(id).k)];
      });
  dag_stats_.executed = rs.executed;
  dag_stats_.ready_peak = rs.ready_peak;
  dag_stats_.fanout_panels = fanout_panels_.load(std::memory_order_relaxed);
  dag_stats_.pool_helpers = pool_helpers_.load(std::memory_order_relaxed);
  // A failure cancelled the pool to drain queued tasks; clear the flag so
  // the pool is immediately reusable (recovery retries, benches).
  if (pool != nullptr) pool->reset_cancel();
  pool_ = nullptr;
  if (failed_.load()) throw_recorded();
}

bool NumericFactor::run_task(const TaskGraph& g, std::uint32_t id) {
  if (failed_.load(std::memory_order_relaxed)) return false;
  const DagTask& t = g.task(id);
  index_t at = t.t;  // the supernode a failure is stamped with
  try {
    if (t.assembles) assemble_cblk(t.t);
    at = t.k;
    if (t.kind == DagTaskKind::Elim) {
      run_elim(t.k);
    } else {
      run_update(t);
    }
  } catch (ResourceError& e) {
    stamp_resource(e.report(), at);
    record_resource_failure(std::move(e.report()));
    return false;
  } catch (const NumericalError& e) {
    record_failure(e.report());
    return false;
  } catch (const std::exception& e) {
    record_failure(make_report(FailureKind::Unknown, at, -1, std::nan(""),
                               e.what()));
    return false;
  }
  return !failed_.load(std::memory_order_relaxed);
}

void NumericFactor::run_elim(index_t k) {
  const auto addr = static_cast<std::uint64_t>(k);
  epochs_.expect(addr, EpochGate::kAssembled);
  factor_panel(k);
  if (!data_[static_cast<std::size_t>(k)].eliminated) return;  // sibling failed
  epochs_.advance(addr, EpochGate::kAssembled, EpochGate::kFactored);
}

void NumericFactor::run_update(const DagTask& u) {
  // Updates may only leave a factored source and land on an assembled,
  // not yet eliminated target.
  epochs_.expect(static_cast<std::uint64_t>(u.k), EpochGate::kFactored);
  epochs_.expect(static_cast<std::uint64_t>(u.t), EpochGate::kAssembled);
  const CblkData& cd = data_[static_cast<std::size_t>(u.k)];
  const index_t nb = static_cast<index_t>(cd.lpanel.size());
  // The (bi, bj) pairs of k landing in t, column blok by column blok: a
  // column blok facing t pairs with every row blok from b0 on (LLᵗ: from
  // itself on); a later column blok pairs with the row bloks facing t (LU
  // only — under LLᵗ its pairs land further up the tree), and those land
  // transposed, in t's U panel.
  struct Pair {
    index_t i, j;       ///< row blok, column blok
    const lr::Tile* a;  ///< row blok
    const lr::Tile* b;  ///< column blok
    UpdateLoc loc;
    bool dense;         ///< dense × dense
    bool grid;          ///< part of a grid: the dense one, or a low-rank one
    bool staged;        ///< its product is staged for a low-rank target
    la::DView dst;      ///< its dense target (grid pairs)
    bool column_side;   ///< low-rank grid: column side of j, else row side of i
  };
  std::vector<Pair> pairs;
  for (index_t j = u.b0; j < (llt_ ? u.b1 : nb); ++j) {
    // Early exit at column-blok granularity: once a sibling failed the
    // remaining updates are dead work on a doomed factorization.
    if (failed_.load(std::memory_order_relaxed)) return;
    poll_deadline(u.k);
    const lr::Tile& b =
        (llt_ ? cd.lpanel : cd.upanel)[static_cast<std::size_t>(j)];
    if (b.rank() == 0) continue;  // zero contributions
    for (index_t i = llt_ ? j : u.b0; i < (j < u.b1 ? nb : u.b1); ++i) {
      const lr::Tile& a = cd.lpanel[static_cast<std::size_t>(i)];
      if (a.rank() == 0) continue;  // zero contribution
      pairs.push_back({i, j, &a, &b, locate_update(u.k, i, j),
                       !a.is_lowrank() && !b.is_lowrank(), false, false, {}, false});
    }
  }
  // The write chains keep t's lock uncontended; it is taken once per task.
  std::lock_guard guard(locks_[static_cast<std::size_t>(u.t)]);

  // The dense pairs with a dense target (every pair of a Dense or JIT
  // factorization) as one grid GEMM: each product subtracted straight from
  // its target, the row bloks packed once per group, the column bloks once
  // (DESIGN.md §12). A dense target stays dense, and no two pairs share
  // target entries, so running them ahead of the rest keeps the bits of the
  // column-by-column order.
  std::vector<la::DConstView> rows;
  std::vector<la::DConstView> cols;
  std::vector<la::GemmTarget> targets;
  std::vector<index_t> row_of(static_cast<std::size_t>(nb), -1);
  std::vector<index_t> col_of(static_cast<std::size_t>(nb), -1);
  const auto pair_flops = [](const Pair& pr) {
    return 2 * static_cast<std::uint64_t>(pr.loc.rh) *
           static_cast<std::uint64_t>(pr.loc.ch) *
           static_cast<std::uint64_t>(pr.a->cols());
  };
  std::uint64_t flops = 0;
  std::vector<std::size_t> lowrank;  // the low-rank grid pairs
  for (std::size_t x = 0; x < pairs.size(); ++x) {
    Pair& pr = pairs[x];
    pr.dst = dense_target(pr.loc);
    pr.grid = pr.dst.data != nullptr;
    if (!pr.grid) continue;
    if (!pr.dense) {
      // A low-rank×low-rank product onto a dense target keeps the
      // recompression of T where the strategy orthonormalizes products
      // (see below); every other product with a low-rank operand joins the
      // grid of its low-rank operand, the one of lower rank for two.
      const bool lr_a = pr.a->is_lowrank();
      const bool lr_b = pr.b->is_lowrank();
      pr.grid = !(policy_->need_ortho() && lr_a && lr_b);
      if (!pr.grid) continue;
      pr.column_side = !(lr_a && (!lr_b || pr.a->rank() <= pr.b->rank()));
      lowrank.push_back(x);
      continue;
    }
    row_of[static_cast<std::size_t>(pr.i)] = 0;  // used; numbered below
    col_of[static_cast<std::size_t>(pr.j)] = 0;
  }
  for (index_t i = 0; i < nb; ++i) {
    index_t& r = row_of[static_cast<std::size_t>(i)];
    if (r < 0) continue;
    r = static_cast<index_t>(rows.size());
    rows.push_back(cd.lpanel[static_cast<std::size_t>(i)].dense().cview());
  }
  for (index_t j = 0; j < nb; ++j) {
    index_t& q = col_of[static_cast<std::size_t>(j)];
    if (q < 0) continue;
    q = static_cast<index_t>(cols.size());
    cols.push_back(
        (llt_ ? cd.lpanel : cd.upanel)[static_cast<std::size_t>(j)].dense().cview());
  }
  for (const Pair& pr : pairs) {
    if (!pr.grid || !pr.dense) continue;
    targets.push_back({row_of[static_cast<std::size_t>(pr.i)],
                       col_of[static_cast<std::size_t>(pr.j)], pr.dst,
                       pr.loc.transpose});
    flops += pair_flops(pr);
  }
  if (!targets.empty()) {
    dispatch::gemm_update(rows, cols, targets);
    update_flops_.fetch_add(flops, std::memory_order_relaxed);
  }

  // The pairs with a low-rank operand and a dense target, grouped by that
  // operand: one dispatch::lowrank_update per low-rank blok and side, which
  // runs two grid GEMMs (DESIGN.md §12). They leave the other pairs' target
  // entries alone, so they too may run ahead. fp32 operands are widened
  // once per task.
  std::vector<lr::Tile> wide;  // by blok, the U panel's after the L panel's
  const auto operand = [&](bool column, index_t x) {
    const bool upper = column && !llt_;
    const lr::Tile& t = (upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(x)];
    if (t.precision() != lr::Precision::Fp32) return dispatch::UpdateOperand{&t, &t};
    if (wide.empty()) wide.resize(static_cast<std::size_t>(2 * nb));
    lr::Tile& w = wide[static_cast<std::size_t>(upper ? nb + x : x)];
    if (!w.is_lowrank()) w = lr::promote_copy(t, MemCategory::Workspace);
    return dispatch::UpdateOperand{&t, &w};
  };
  const auto grid_of = [&](std::size_t x) {
    const Pair& pr = pairs[x];
    return std::pair(pr.column_side, pr.column_side ? pr.j : pr.i);
  };
  std::stable_sort(lowrank.begin(), lowrank.end(),
                   [&](std::size_t x, std::size_t y) { return grid_of(x) < grid_of(y); });
  std::vector<dispatch::LrGridPair> grid;
  for (std::size_t g0 = 0, g1 = 0; g0 < lowrank.size(); g0 = g1) {
    if (failed_.load(std::memory_order_relaxed)) return;
    poll_deadline(u.k);
    const auto [column_side, blok] = grid_of(lowrank[g0]);
    grid.clear();
    for (g1 = g0; g1 < lowrank.size() && grid_of(lowrank[g1]) == grid_of(lowrank[g0]);
         ++g1) {
      const Pair& pr = pairs[lowrank[g1]];
      grid.push_back({column_side ? operand(false, pr.i) : operand(true, pr.j),
                      pr.dst, pr.loc.transpose});
    }
    dispatch::lowrank_update(operand(column_side, blok), !column_side, grid);
  }
  wide.clear();

  // Then, column blok by column blok, the pairs onto low-rank targets and
  // the recompressed low-rank×low-rank pairs, in row order, each product
  // formed right before it is applied. A dense pair's product is staged in a
  // Workspace tile, unless an earlier extend-add of this task turned its
  // target dense; the column's dense pairs run as one GEMM.
  std::vector<lr::Tile> staged;
  for (std::size_t c0 = 0, c1 = 0; c0 < pairs.size(); c0 = c1) {
    c1 = c0;
    while (c1 < pairs.size() && pairs[c1].j == pairs[c0].j) ++c1;
    if (failed_.load(std::memory_order_relaxed)) return;
    poll_deadline(u.k);
    rows.clear();
    targets.clear();
    staged.clear();
    staged.reserve(c1 - c0);
    flops = 0;
    for (std::size_t x = c0; x < c1; ++x) {
      Pair& pr = pairs[x];
      if (!pr.dense || pr.grid) continue;
      la::DView dst = dense_target(pr.loc);
      if (dst.data == nullptr) {
        staged.push_back(
            lr::Tile::make_dense(dst.rows, dst.cols, MemCategory::Workspace));
        dst = staged.back().dense().view();
        pr.staged = true;
      }
      targets.push_back({static_cast<index_t>(rows.size()), 0, dst,
                         pr.loc.transpose});
      rows.push_back(pr.a->dense().cview());
      flops += pair_flops(pr);
    }
    if (!targets.empty()) {
      const la::DConstView col = pairs[c0].b->dense().cview();
      dispatch::gemm_update(rows, std::span(&col, 1), targets);
      update_flops_.fetch_add(flops, std::memory_order_relaxed);
    }
    std::size_t next = 0;
    for (std::size_t x = c0; x < c1; ++x) {
      const Pair& pr = pairs[x];
      if (pr.staged) {
        finish_update(pr.loc, unstage(staged[next++].dense(), pr.loc.transpose));
      } else if (!pr.dense && !pr.grid) {
        // Only an LR2LR extend-add needs the orthonormal form, so a dense
        // target skips the re-orthogonalization of a dense×low-rank
        // product, which keeps its rank. A low-rank×low-rank product keeps
        // the recompression of T: it lowers the contribution's rank, and
        // with it the LR2GE flops and the workspace peak.
        const bool ortho = policy_->need_ortho() &&
                           (dense_target(pr.loc).data == nullptr ||
                            (pr.a->is_lowrank() && pr.b->is_lowrank()));
        finish_update(pr.loc,
                      dispatch::product(*pr.a, *pr.b, opts_.kind,
                                        opts_.tolerance, ortho));
      }
    }
  }
}

void NumericFactor::factor_panel(index_t k) {
  if (failed_.load(std::memory_order_relaxed)) return;
  maybe_skew_clock(k);
  poll_deadline(k);
  {
    const symbolic::Cblk& c = sf_.cblk(k);
    CblkData& cd = data_[static_cast<std::size_t>(k)];

    // Merge any pending LUAR accumulators: every incoming update must be in
    // the panels before elimination. All updates into k are already applied
    // (the write chain of k), so no lock is needed.
    flush_all_accumulators(k);

    if (opts_.fault.kind == FaultInjection::Kind::TinyPivot &&
        opts_.fault.supernode == k && opts_.fault.try_fire()) {
      // Injected breakdown: zero the leading pivot column so partial
      // pivoting finds nothing (getrf) / the pivot is non-positive (potrf).
      // Static pivoting, when enabled, replaces the pivot instead — the
      // injected fault exercises the same masking a real tiny pivot would.
      la::DMatrix& dg = cd.diag.dense();
      for (index_t i = 0; i < dg.rows(); ++i) dg(i, 0) = 0;
      dg(0, 0) = 0;
    }

    {
      index_t replaced = 0;
      const index_t info =
          dispatch::factor_diag(cd.diag, cd.ipiv, llt_, pivot_cutoff_, replaced);
      if (replaced > 0)
        pivots_replaced_.fetch_add(replaced, std::memory_order_relaxed);
      if (info != 0) {
        const index_t piv = info - 1;
        const double mag =
            std::abs(static_cast<double>(cd.diag.dense()(piv, piv)));
        std::ostringstream os;
        os << (llt_ ? "potrf" : "getrf") << " cannot eliminate the pivot";
        fail(make_report(llt_ ? FailureKind::NonPositivePivot
                              : FailureKind::ZeroPivot,
                         k, piv, mag, os.str()));
      }
    }
    if (failed_.load(std::memory_order_relaxed)) return;

    // Per blok, the elimination-time policy hook: Just-In-Time compresses
    // the accumulated panels now (Algorithm 2 l.3-4); Minimal-Memory
    // re-attempts the blocks that are (still) dense — e.g. after an
    // extend-add transiently exceeded the storage-beneficial rank — which
    // keeps the final factor size of the scenarios similar, as the paper
    // reports. Item i < nb is L blok i, item nb + i is U blok i; each
    // mutates only its own tile.
    const index_t nb = static_cast<index_t>(c.bloks.size());
    const index_t items = llt_ ? nb : 2 * nb;
    const auto tile = [&](index_t i) -> lr::Tile& {
      return i >= nb ? cd.upanel[static_cast<std::size_t>(i - nb)]
                     : cd.lpanel[static_cast<std::size_t>(i)];
    };
    const bool fan = pool_ != nullptr && fans_out(k);
    if (fan) fanout_panels_.fetch_add(1, std::memory_order_relaxed);
    if (opts_.strategy != Strategy::Dense) {
      run_items(fan ? pool_ : nullptr, items, [&](index_t i) {
        // Early exit at blok granularity once a sibling has failed.
        if (failed_.load(std::memory_order_relaxed)) return;
        const index_t idx = i >= nb ? i - nb : i;
        policy_->at_elimination(
            k, BlockSite{idx, i >= nb}, tile(i),
            compressible(k, c.bloks[static_cast<std::size_t>(idx)]), pctx_);
      });
      if (failed_.load(std::memory_order_relaxed)) return;
    }

    // Then the panel solves. A low-rank blok is solved alone (trsm[lr]); the
    // dense bloks of each panel side are stacked, in blok order, into groups
    // of at most la::kStackRows rows (a tall blok split), one stacked,
    // blocked TRSM each (trsm[ge]). Every item reads the factored diagonal,
    // immutable from here on, and writes only its own rows, and each row's
    // solve does not depend on the grouping, so the items may run in any
    // order or in parallel with the same bits.
    struct SolveItem {
      index_t tile;       ///< low-rank blok item, or -1 for a dense group
      bool upper;
      std::size_t r0, r1;  ///< the group's rows: views [r0, r1)
    };
    std::vector<la::DView> views;
    std::vector<SolveItem> solves;
    std::uint64_t flops = 0;
    for (const bool upper : {false, true}) {
      if (upper && llt_) break;
      std::size_t start = views.size();
      index_t m = 0;
      for (index_t idx = 0; idx < nb; ++idx) {
        const index_t i = upper ? nb + idx : idx;
        lr::Tile& blk = tile(i);
        if (blk.is_lowrank()) {
          if (blk.rank() != 0) solves.push_back({i, upper, 0, 0});
          continue;
        }
        const la::DView v = blk.dense().view();
        flops += static_cast<std::uint64_t>(v.rows) *
                 static_cast<std::uint64_t>(v.cols) *
                 static_cast<std::uint64_t>(v.cols);
        for (index_t r = 0; r < v.rows;) {
          const index_t take = std::min(v.rows - r, la::kStackRows - m);
          views.push_back(v.sub(r, 0, take, v.cols));
          r += take;
          m += take;
          if (m == la::kStackRows) {
            solves.push_back({-1, upper, start, views.size()});
            start = views.size();
            m = 0;
          }
        }
      }
      if (m > 0) solves.push_back({-1, upper, start, views.size()});
    }
    run_items(fan ? pool_ : nullptr, static_cast<index_t>(solves.size()),
              [&](index_t x) {
      if (failed_.load(std::memory_order_relaxed)) return;
      const SolveItem& it = solves[static_cast<std::size_t>(x)];
      if (it.tile >= 0) {
        dispatch::panel_solve(cd.diag, cd.ipiv, tile(it.tile), llt_, it.upper);
      } else {
        dispatch::panel_solve(
            cd.diag, cd.ipiv,
            std::span<const la::DView>(views).subspan(it.r0, it.r1 - it.r0),
            llt_, it.upper);
      }
    });
    if (failed_.load(std::memory_order_relaxed)) return;
    panel_flops_.fetch_add(flops, std::memory_order_relaxed);
    for (index_t i = 0; i < items; ++i) tile(i).advance(lr::TileState::Factored);
    // Guard the factored panel: overflow/NaN escaping the diagonal
    // factorization or the triangular solves is caught here instead of
    // surfacing as an inexplicably wrong solution.
    check_cblk_finite(k, FailureKind::NonFinitePanel);
    cd.diag.advance(lr::TileState::Factored);
    cd.eliminated = true;
  }
}

UpdateLoc NumericFactor::locate_update(index_t k, index_t bi, index_t bj) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const symbolic::Blok& rb = c.bloks[static_cast<std::size_t>(bi)];  // rows
  const symbolic::Blok& cb = c.bloks[static_cast<std::size_t>(bj)];  // cols

  // Locate the target: diagonal block when both intervals live in the same
  // supernode; otherwise the L blok of the earlier cblk (lower triangle) or,
  // mirrored/transposed, the U blok (upper triangle, LU only).
  UpdateLoc loc;
  loc.rh = rb.height();
  loc.ch = cb.height();
  if (rb.fcblk == cb.fcblk) {
    loc.tcblk = rb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.target_diag = true;
    loc.roff = rb.frow - tc.fcol;
    loc.coff = cb.frow - tc.fcol;
  } else if (rb.fcblk > cb.fcblk) {
    loc.tcblk = cb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.tb_idx = sf_.find_blok(loc.tcblk, rb.frow, rb.lrow);
    loc.roff = rb.frow - tc.bloks[static_cast<std::size_t>(loc.tb_idx)].frow;
    loc.coff = cb.frow - tc.fcol;
  } else {
    loc.tcblk = rb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.tb_idx = sf_.find_blok(loc.tcblk, cb.frow, cb.lrow);
    loc.roff = cb.frow - tc.bloks[static_cast<std::size_t>(loc.tb_idx)].frow;
    loc.coff = rb.frow - tc.fcol;
    loc.transpose = true;
    loc.target_upper = true;
  }
  return loc;
}

la::DView NumericFactor::dense_target(const UpdateLoc& loc) {
  CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
  // roff/coff are already expressed in the target block's coordinates;
  // only the contribution's dimensions swap under transposition.
  const index_t r = loc.transpose ? loc.ch : loc.rh;
  const index_t c = loc.transpose ? loc.rh : loc.ch;
  if (loc.target_diag) return td.diag.dense().sub(loc.roff, loc.coff, r, c);
  lr::Tile& tb = loc.target_upper
                     ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                     : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
  if (tb.is_lowrank()) return la::DView(nullptr, r, c, std::max<index_t>(r, 1));
  return tb.dense().sub(loc.roff, loc.coff, r, c);
}

lr::Tile NumericFactor::unstage(const la::DMatrix& neg, bool transpose) {
  // 0 − x rather than −x: the product never holds −0.0, so the staged
  // contribution carries exactly the bits of the product formed alone.
  const index_t m = transpose ? neg.cols() : neg.rows();
  const index_t n = transpose ? neg.rows() : neg.cols();
  lr::Tile p = lr::Tile::make_dense(m, n, MemCategory::Workspace);
  la::DMatrix& d = p.dense();
  for (index_t col = 0; col < n; ++col) {
    for (index_t row = 0; row < m; ++row) {
      d(row, col) = real_t(0) - (transpose ? neg(col, row) : neg(row, col));
    }
  }
  return p;
}

void NumericFactor::finish_update(const UpdateLoc& loc, const lr::Tile& p) {
  if (p.is_lowrank() && p.rank() == 0) return;

  CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
  if (loc.target_diag) {
    dispatch::apply_contribution(
        td.diag.dense().sub(loc.roff, loc.coff, loc.rh, loc.ch), p,
        /*transpose=*/false);
    return;
  }
  lr::Tile& tb = loc.target_upper
                     ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                     : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
  if (tb.is_lowrank() && tb.rank() > 0 && p.is_lowrank()) {
    // LUAR accumulation: append the padded contribution factors and defer
    // the (expensive, target-sized) recompression. A low-rank target was
    // assembled low-rank, so it has an accumulator. An empty target takes
    // the contribution at once instead: LR2LR adopts the factors of a
    // contribution to an empty block as they are, and an accumulated
    // U = [U_1, ..., U_k] is not orthonormal.
    la::DConstView pu = loc.transpose ? p.lr().v.cview() : p.lr().u.cview();
    la::DConstView pv = loc.transpose ? p.lr().u.cview() : p.lr().v.cview();
    lr::Tile& acc = (loc.target_upper
                         ? td.uacc
                         : td.lacc)[static_cast<std::size_t>(loc.tb_idx)];
    const index_t old_rank = acc.rank();
    la::DMatrix nu(tb.rows(), old_rank + pu.cols);
    la::DMatrix nv(tb.cols(), old_rank + pu.cols);
    if (old_rank > 0) {
      la::copy<real_t>(acc.lr().u.cview(), nu.sub(0, 0, tb.rows(), old_rank));
      la::copy<real_t>(acc.lr().v.cview(), nv.sub(0, 0, tb.cols(), old_rank));
    }
    for (index_t j = 0; j < pu.cols; ++j) {
      std::copy_n(pu.col(j), pu.rows,
                  nu.data() + (old_rank + j) * tb.rows() + loc.roff);
      std::copy_n(pv.col(j), pv.rows,
                  nv.data() + (old_rank + j) * tb.cols() + loc.coff);
    }
    acc.set_lowrank(lr::LrMatrix(std::move(nu), std::move(nv)));
    if (acc.rank() >= kAccumulateMaxRank) {
      flush_accumulator(loc.tcblk, loc.target_upper, loc.tb_idx);
    }
  } else {
    dispatch::extend_add(tb, p, loc.roff, loc.coff, opts_.kind, opts_.tolerance,
                         loc.transpose);
  }
}

// ---------------------------------------------------------------------------
// Solve phase (DESIGN.md §16)
// ---------------------------------------------------------------------------

void NumericFactor::set_solve_context(std::shared_ptr<const SolvePlan> plan,
                                      std::shared_ptr<SolveEngine> engine) {
  splan_ = std::move(plan);
  sengine_ = std::move(engine);
  std::size_t entries = 0;
  for (const CblkData& cd : data_) {
    entries += cd.diag.storage_entries();
    for (const lr::Tile& t : cd.lpanel) entries += t.storage_entries();
    for (const lr::Tile& t : cd.upanel) entries += t.storage_entries();
  }
  solve_flops_ = 2.0 * static_cast<double>(entries) * (llt_ ? 2.0 : 1.0);
}

void NumericFactor::build_widen_cache() const {
  if (num_fp32_blocks() == 0) return;  // pure-fp64 factors: nothing to widen
  const index_t ncblk = sf_.num_cblks();
  std::size_t bytes = 0;
  std::uint64_t tiles = 0;
  std::vector<WidenedPanel> w(static_cast<std::size_t>(ncblk));
  const auto widen = [&](const lr::Tile& blk, la::DMatrix& u, la::DMatrix& v) {
    if (blk.precision() != lr::Precision::Fp32) return;
    const lr::LrMatrix& f = blk.lr();
    u.reshape(f.u32.rows(), f.u32.cols());
    la::convert(f.u32.cview(), u.view());
    v.reshape(f.v32.rows(), f.v32.cols());
    la::convert(f.v32.cview(), v.view());
    bytes += u.bytes() + v.bytes();
    ++tiles;
  };
  for (index_t k = 0; k < ncblk; ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    WidenedPanel& wp = w[static_cast<std::size_t>(k)];
    wp.lu.resize(cd.lpanel.size());
    wp.lv.resize(cd.lpanel.size());
    for (std::size_t i = 0; i < cd.lpanel.size(); ++i)
      widen(cd.lpanel[i], wp.lu[i], wp.lv[i]);
    if (!llt_) {
      wp.uu.resize(cd.upanel.size());
      wp.uv.resize(cd.upanel.size());
      for (std::size_t i = 0; i < cd.upanel.size(); ++i)
        widen(cd.upanel[i], wp.uu[i], wp.uv[i]);
    }
  }
  widen_ = std::move(w);
  widen_tiles_ = tiles;
  widen_bytes_ = bytes;
  widen_track_.resize(bytes);
}

void NumericFactor::solve_lr_views(index_t k, index_t bi, bool upper,
                                   const lr::Tile& blk, la::DConstView& u,
                                   la::DConstView& v) const {
  if (blk.precision() == lr::Precision::Fp32) {
    // Widened once per factor on the first solve — every later use is a
    // cache hit instead of a fresh fp32→fp64 promotion pass.
    const WidenedPanel& wp = widen_[static_cast<std::size_t>(k)];
    const std::size_t i = static_cast<std::size_t>(bi);
    u = (upper ? wp.uu : wp.lu)[i].cview();
    v = (upper ? wp.uv : wp.lv)[i].cview();
    widen_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    u = blk.lr().u.cview();
    v = blk.lr().v.cview();
  }
}

void NumericFactor::solve_apply(index_t k, index_t bi, index_t i0,
                                la::DConstView in, la::DView out,
                                std::vector<SolveApply>& run,
                                bool backward) const {
  // The backward sweep of an LU factor applies the U panel.
  const bool upper = backward && !llt_;
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const lr::Tile& blk =
      (upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(bi)];
  if (blk.rank() == 0) return;
  const index_t h = backward ? in.rows : out.rows;
  if (!blk.is_lowrank()) {
    run.push_back({blk.dense().cview().sub(i0, 0, h, blk.cols()), in, out});
    return;
  }
  flush_dense(run, backward);
  la::DConstView u, v;
  solve_lr_views(k, bi, upper, blk, u, v);
  dispatch::solve_gemm(blk, u.sub(i0, 0, h, u.cols), v, in, out, backward);
}

void NumericFactor::solve_pull(index_t t, std::uint32_t f0, std::uint32_t f1,
                               index_t r0, index_t r1, la::DView x) const {
  thread_local std::vector<SolveApply> run;
  run.clear();
  const std::span<const FacingBlok> fac = splan_->facing(t);
  for (std::uint32_t i = f0; i < f1; ++i) {
    const symbolic::Cblk& s = sf_.cblk(fac[i].source);
    const symbolic::Blok& b = s.bloks[static_cast<std::size_t>(fac[i].bi)];
    const index_t lo = std::max(b.frow, r0);
    const index_t hi = std::min(b.lrow, r1);
    if (lo >= hi) continue;
    solve_apply(fac[i].source, fac[i].bi, lo - b.frow,
                x.sub(s.fcol, 0, s.width(), x.cols),
                x.sub(lo, 0, hi - lo, x.cols), run, /*backward=*/false);
  }
  flush_dense(run, /*backward=*/false);
}

void NumericFactor::solve_fwd(index_t t, bool pull, la::DView x) const {
  // L·Y = (locally pivoted) B, pull form: seg(t) receives the updates of
  // every facing block in ascending source order, then its diagonal solve.
  const symbolic::Cblk& c = sf_.cblk(t);
  if (pull)
    solve_pull(t, 0, static_cast<std::uint32_t>(splan_->facing(t).size()),
               c.fcol, c.lcol, x);
  const CblkData& cd = data_[static_cast<std::size_t>(t)];
  dispatch::solve_trsm(cd.diag, cd.ipiv, x.sub(c.fcol, 0, c.width(), x.cols),
                       llt_, /*backward=*/false);
}

void NumericFactor::solve_bwd(index_t k, la::DView x) const {
  // U·X = Y (or Lᵗ·X = Y for Cholesky): seg(k) receives its own blocks'
  // updates in block order, then its diagonal solve.
  thread_local std::vector<SolveApply> run;
  run.clear();
  const symbolic::Cblk& c = sf_.cblk(k);
  la::DView xk = x.sub(c.fcol, 0, c.width(), x.cols);
  for (std::size_t bi = 0; bi < c.bloks.size(); ++bi) {
    const symbolic::Blok& b = c.bloks[bi];
    solve_apply(k, static_cast<index_t>(bi), 0,
                x.sub(b.frow, 0, b.height(), x.cols), xk, run,
                /*backward=*/true);
  }
  flush_dense(run, /*backward=*/true);
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  dispatch::solve_trsm(cd.diag, cd.ipiv, xk, llt_, /*backward=*/true);
}

void NumericFactor::solve_permuted(la::DView x, SolveRunInfo* info) const {
  BLR_CHECK(splan_ != nullptr, "solve: no solve plan attached");
  // Per-factor caches are built lazily on the first solve; a refactorize
  // creates a fresh NumericFactor, which invalidates them wholesale.
  std::call_once(widen_once_, [this] { build_widen_cache(); });
  const std::uint64_t hits0 = widen_hits_.load(std::memory_order_relaxed);
  // The solve pool's wait_idle-based drain cannot be shared by two
  // concurrent solves; a loser of this try_lock (e.g. a second session
  // snapshot solving the same factors) drains on its own thread instead of
  // blocking. So does a solve too small to pay for the pool's hand-offs
  // (kSolvePoolFlops).
  std::unique_lock<std::mutex> lk;
  if (sengine_ != nullptr &&
      solve_flops_ * static_cast<double>(x.cols) >= kSolvePoolFlops)
    lk = std::unique_lock<std::mutex>(sengine_->mu, std::try_to_lock);
  ThreadPool* pool = lk.owns_lock() ? &sengine_->pool : nullptr;
  // A wide block drains as one DAG copy per column chunk of at least
  // kSolveChunkCols columns, at most one chunk per worker. The copies share
  // no data, so they keep every worker busy where a single copy's
  // elimination-tree top runs serially. Blocked solves compute each column
  // independently (the Session coalescing contract, DESIGN.md §15), so the
  // bits do not depend on the chunking.
  const index_t ncols = x.cols;
  const std::uint32_t chunks =
      pool == nullptr ? 1
                      : static_cast<std::uint32_t>(std::clamp<index_t>(
                            ncols / kSolveChunkCols, 1, pool->size()));
  // Only a single-chunk drain on a pool of at least kSolveSliceMinThreads
  // workers runs the Slice tasks: the sequential drain skips them, and
  // column chunks or a 2-worker pool already keep every worker busy, so
  // there they would add work (each row slice recomputes the vᵗ·x of a
  // low-rank block) and no parallelism. Then every Fwd pulls whole.
  const bool slices = pool != nullptr && chunks == 1 &&
                      pool->size() >= kSolveSliceMinThreads;
  std::mutex err_mu;
  std::exception_ptr err;
  const DepDrainStats ds = splan_->execute(
      pool, chunks, [&](std::uint32_t id, std::uint32_t chunk) {
    try {
      const index_t c0 = ncols * chunk / chunks;
      const index_t c1 = ncols * (chunk + 1) / chunks;
      const la::DView xc = x.sub(0, c0, x.rows, c1 - c0);
      const SolveTask& t = splan_->task(id);
      switch (t.kind) {
        case SolveTaskKind::Fwd:
          solve_fwd(t.k, !t.sliced || !slices, xc);
          break;
        case SolveTaskKind::Slice:
          if (slices) solve_pull(t.k, t.f0, t.f1, t.r0, t.r1, xc);
          break;
        case SolveTaskKind::Bwd:
          solve_bwd(t.k, xc);
          break;
      }
      return true;
    } catch (...) {
      std::lock_guard guard(err_mu);
      if (!err) err = std::current_exception();
      return false;  // stop releasing successors
    }
  });
  if (err) std::rethrow_exception(err);
  if (info != nullptr) {
    info->tasks = ds.executed;
    info->parallel = pool != nullptr;
    info->chunks = chunks;
    info->widen_hits = widen_hits_.load(std::memory_order_relaxed) - hits0;
  }
}

std::unique_ptr<NumericFactor::SolveScratch> NumericFactor::acquire_scratch(
    index_t rows, index_t cols) const {
  std::unique_ptr<SolveScratch> s;
  {
    std::lock_guard guard(scratch_mu_);
    if (!scratch_pool_.empty()) {
      s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
    }
  }
  if (!s) s = std::make_unique<SolveScratch>();
  // reshape() keeps the vector capacity when it suffices, so repeated
  // same-shape solves reuse the allocation.
  s->m.reshape(rows, cols);
  s->track.resize(s->m.bytes());
  return s;
}

void NumericFactor::release_scratch(std::unique_ptr<SolveScratch> s) const {
  std::lock_guard guard(scratch_mu_);
  if (scratch_pool_.size() < 8) scratch_pool_.push_back(std::move(s));
}

void NumericFactor::solve(const real_t* b, real_t* x) const {
  solve(la::DConstView(b, sf_.n(), 1, sf_.n()), la::DView(x, sf_.n(), 1, sf_.n()));
}

void NumericFactor::solve(la::DConstView b, la::DView x,
                          SolveRunInfo* info) const {
  const index_t n = sf_.n();
  BLR_CHECK(b.rows == n && x.rows == n && b.cols == x.cols,
            "solve: right-hand-side shape mismatch");
  std::unique_ptr<SolveScratch> s = acquire_scratch(n, b.cols);
  la::DMatrix& xp = s->m;
  // Both permutation passes write column-contiguously (ascending row index
  // into column-major storage); the gathers are the scattered side.
  for (index_t r = 0; r < b.cols; ++r) {
    for (index_t i = 0; i < n; ++i)
      xp(i, r) = b(ord_.perm[static_cast<std::size_t>(i)], r);
  }
  solve_permuted(xp.view(), info);
  for (index_t r = 0; r < b.cols; ++r) {
    for (index_t j = 0; j < n; ++j)
      x(j, r) = xp(iperm_[static_cast<std::size_t>(j)], r);
  }
  release_scratch(std::move(s));
}

std::size_t NumericFactor::final_entries() const {
  std::size_t e = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    e += cd.diag.storage_entries();
    for (const auto& blk : cd.lpanel) e += blk.storage_entries();
    for (const auto& blk : cd.upanel) e += blk.storage_entries();
  }
  return e;
}

std::size_t NumericFactor::final_bytes() const {
  std::size_t b = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    b += cd.diag.storage_bytes();
    for (const auto& blk : cd.lpanel) b += blk.storage_bytes();
    for (const auto& blk : cd.upanel) b += blk.storage_bytes();
  }
  return b;
}

std::size_t NumericFactor::lowrank_bytes() const {
  std::size_t b = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel)
      if (blk.is_lowrank()) b += blk.storage_bytes();
    for (const auto& blk : cd.upanel)
      if (blk.is_lowrank()) b += blk.storage_bytes();
  }
  return b;
}

index_t NumericFactor::num_fp32_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel)
      n += blk.precision() == lr::Precision::Fp32 ? 1 : 0;
    for (const auto& blk : cd.upanel)
      n += blk.precision() == lr::Precision::Fp32 ? 1 : 0;
  }
  return n;
}

index_t NumericFactor::num_lowrank_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) n += blk.is_lowrank() ? 1 : 0;
    for (const auto& blk : cd.upanel) n += blk.is_lowrank() ? 1 : 0;
  }
  return n;
}

index_t NumericFactor::num_dense_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) n += blk.is_lowrank() ? 0 : 1;
    for (const auto& blk : cd.upanel) n += blk.is_lowrank() ? 0 : 1;
  }
  return n;
}

double NumericFactor::average_rank() const {
  index_t count = 0;
  index_t total = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) {
      if (blk.is_lowrank()) {
        ++count;
        total += blk.rank();
      }
    }
    for (const auto& blk : cd.upanel) {
      if (blk.is_lowrank()) {
        ++count;
        total += blk.rank();
      }
    }
  }
  return count > 0 ? static_cast<double>(total) / static_cast<double>(count) : 0.0;
}

double NumericFactor::dense_block_fraction() const {
  index_t comp = 0;
  index_t dense = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const symbolic::Cblk& c = sf_.cblk(k);
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    for (std::size_t idx = 0; idx < c.bloks.size(); ++idx) {
      if (!compressible(k, c.bloks[idx])) continue;
      if (idx < cd.lpanel.size()) {
        ++comp;
        if (!cd.lpanel[idx].is_lowrank()) ++dense;
      }
      if (idx < cd.upanel.size()) {
        ++comp;
        if (!cd.upanel[idx].is_lowrank()) ++dense;
      }
    }
  }
  return comp > 0 ? static_cast<double>(dense) / static_cast<double>(comp) : 0.0;
}

void NumericFactor::harvest_ranks(RankMemory& out) const {
  const auto record = [](const std::vector<lr::Tile>& panel,
                         std::vector<index_t>& ranks) {
    ranks.resize(panel.size());
    for (std::size_t i = 0; i < panel.size(); ++i) {
      ranks[i] = panel[i].is_lowrank() ? panel[i].rank() : RankMemory::kDense;
    }
  };
  out.cblks.resize(data_.size());
  for (std::size_t k = 0; k < data_.size(); ++k) {
    record(data_[k].lpanel, out.cblks[k].l);
    record(data_[k].upanel, out.cblks[k].u);
  }
  out.valid = true;
}

void NumericFactor::donate_buffers(lr::BufferPool& pool) {
  const auto donate_tile = [&pool](lr::Tile& t) {
    if (t.rows() == 0 || t.cols() == 0) return;
    if (t.is_lowrank()) {
      auto [u, v] = t.release_lowrank();
      pool.recycle(std::move(u));
      pool.recycle(std::move(v));
    } else {
      pool.recycle(t.release_dense());
    }
  };
  for (CblkData& cd : data_) {
    donate_tile(cd.diag);
    for (lr::Tile& t : cd.lpanel) donate_tile(t);
    for (lr::Tile& t : cd.upanel) donate_tile(t);
  }
}

} // namespace blr::core
