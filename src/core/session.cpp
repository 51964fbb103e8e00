#include "core/session.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace blr::core {

Session::Session(SolverOptions opts) : opts_(opts), worker_(opts) {}

Session::~Session() = default;

void Session::analyze(const sparse::CscMatrix& a) {
  std::lock_guard<std::mutex> rl(refac_mu_);
  worker_.analyze(a);
  std::lock_guard<std::mutex> lk(mu_);
  // Factors of the old plan must not serve answers for the new pattern.
  serving_.reset();
  plan_ = worker_.plan();
}

void Session::refactorize(const sparse::CscMatrix& a) {
  std::lock_guard<std::mutex> rl(refac_mu_);
  // The numeric pass runs WITHOUT mu_: queued solves keep draining against
  // the current serving snapshot for its whole duration. A throw from the
  // worker (ladder exhausted, budget/deadline breach) propagates here and
  // leaves serving_/epoch_ untouched — the session keeps serving the
  // previous factors.
  worker_.refactorize(a);

  std::shared_ptr<NumericFactor> old;
  {
    std::lock_guard<std::mutex> lk(mu_);
    old = std::exchange(serving_, worker_.numeric_shared());
    plan_ = worker_.plan();
    ++epoch_;
  }
  // Retire the displaced factors into the worker's buffer pool — but only
  // when nothing else (an in-flight blocked solve, the worker itself)
  // still holds them; donation destroys the factors in place. When a solve
  // still holds the snapshot, the storage is simply freed once it drops it.
  if (old && old.use_count() == 1) {
    old->donate_buffers(worker_.buffer_pool());
  }
}

bool Session::serving() const {
  std::lock_guard<std::mutex> lk(mu_);
  return serving_ != nullptr;
}

std::uint64_t Session::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

SolveStats Session::solve(const real_t* b, real_t* x) {
  Request req;
  req.b = b;
  req.x = x;

  std::unique_lock<std::mutex> lk(mu_);
  if (!serving_) {
    // Structured rejection (the solver-level fix of the same contract):
    // NotFactorized, with the worker's last terminal failure embedded so
    // "why is there nothing to serve" is answerable from the exception.
    FailureReport r;
    r.kind = FailureKind::NotFactorized;
    r.strategy = strategy_name(opts_.strategy);
    r.compression = kind_name(opts_.kind);
    r.factorization = worker_.is_llt() ? "LLt" : "LU";
    r.tolerance = static_cast<double>(opts_.tolerance);
    r.detail = "a successful refactorize() is required before Session::solve()";
    const std::string& last = worker_.last_error();
    if (!last.empty()) r.detail += "; last failure: " + last;
    throw NumericalError(r.to_string(), r);
  }
  queue_.push_back(&req);
  while (!req.done) {
    if (flushing_) {
      // A leader is mid-solve; wait to be served or to take over.
      cv_.wait(lk, [&] { return req.done || !flushing_; });
      continue;
    }
    flush_batch(lk);
  }
  if (req.failed) throw Error("Session::solve failed: " + req.error);
  return req.st;
}

SolveStats Session::solve(const std::vector<real_t>& b, std::vector<real_t>& x) {
  x.resize(b.size());
  return solve(b.data(), x.data());
}

void Session::flush_batch(std::unique_lock<std::mutex>& lk) {
  flushing_ = true;
  const auto cap = static_cast<std::size_t>(kSessionMaxBatch);
  std::vector<Request*> batch;
  while (!queue_.empty() && batch.size() < cap) {
    batch.push_back(queue_.front());
    queue_.pop_front();
  }
  // Snapshot the factors (and the plan that keeps their ordering/symbolic
  // references alive) so a concurrent refactorize() can swap serving_
  // without ever destroying factors we are solving with.
  std::shared_ptr<NumericFactor> snap = serving_;
  std::shared_ptr<const SymbolicPlan> plan = plan_;
  const std::uint64_t ep = epoch_;
  lk.unlock();

  const index_t n = snap->symbolic().n();
  const index_t m = static_cast<index_t>(batch.size());
  for (Request* r : batch) {
    r->st.factor_epoch = ep;
    r->st.batch_size = m;
    r->st.wait_seconds = r->queued.elapsed();
  }

  Timer solve_timer;
  std::string error;
  SolveRunInfo ri;
  {
    // Coalesce into one column-major block; each column of the blocked
    // solve is bit-identical to the corresponding single-RHS solve (the
    // multi-RHS engine contract), so batching is invisible in the results.
    la::DMatrix bm(n, m);
    la::DMatrix xm(n, m);
    for (index_t j = 0; j < m; ++j) {
      std::copy_n(batch[static_cast<std::size_t>(j)]->b, n,
                  bm.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(n));
    }
    try {
      snap->solve(bm.cview(), xm.view(), &ri);
      for (index_t j = 0; j < m; ++j) {
        std::copy_n(xm.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(n),
                    n, batch[static_cast<std::size_t>(j)]->x);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  const double solve_s = solve_timer.elapsed();

  lk.lock();
  for (Request* r : batch) {
    r->st.solve_seconds = solve_s;
    r->st.solve_tasks = ri.tasks;
    r->st.parallel = ri.parallel;
    r->st.column_split = ri.chunks > 1;
    r->st.widen_hits = ri.widen_hits;
    r->failed = !error.empty();
    r->error = error;
    r->done = true;
  }
  flushing_ = false;
  cv_.notify_all();
}

} // namespace blr::core
