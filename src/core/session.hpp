#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/solver.hpp"

namespace blr::core {

/// A persistent factorization server over one sparse pattern (DESIGN.md §15
/// — the JOREK/MUMPS "factorization server" shape): one symbolic plan, a
/// current set of factors, and a queue of solve requests.
///
/// ```
///   blr::core::Session session(opts);
///   session.refactorize(A0);            // first pass: analyze + cold factorize
///   for (int step = 1; step < T; ++step) {
///     session.solve(b.data(), x.data());  // any thread, any time
///     session.refactorize(A_step);        // same pattern, new values
///   }
/// ```
///
/// Concurrency contract:
///  - solve() may be called from any number of threads. Requests queue up
///    and are coalesced — up to core::kSessionMaxBatch at a time —
///    into one blocked multi-RHS solve. Each coalesced column is
///    bit-identical to the single-RHS solve of that request alone, so
///    batching never changes results.
///  - refactorize() runs concurrently with solves: in-flight and queued
///    requests keep being served by the *previous* factors until the new
///    pass succeeds, at which point the session atomically switches over
///    (the epoch in each request's SolveStats says which factors served it).
///  - A refactorize() that fails — breakdown with the ladder exhausted, or
///    a governor budget/deadline breach — throws, and the session keeps
///    serving the previous factors unchanged.
class Session {
public:
  explicit Session(SolverOptions opts = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Run (or re-run) the analysis phase. Implied by the first
  /// refactorize(); re-analyzing with a new pattern stops serving the old
  /// factors (they belong to the old plan).
  void analyze(const sparse::CscMatrix& a);

  /// Produce the factors the session serves from. The first call is a cold
  /// factorize (analyze implied); later calls are warm re-factorizations
  /// reusing the plan, pooled buffers and learned ranks. Throws on terminal
  /// failure — the previous factors keep serving.
  void refactorize(const sparse::CscMatrix& a);

  /// Blocking single-RHS solve (b, x of length n). Coalesced with
  /// concurrent requests into one blocked multi-RHS solve; returns this
  /// request's measurements. Throws a structured NumericalError
  /// (FailureKind::NotFactorized, embedding the last refactorize failure)
  /// when the session has never held factors.
  SolveStats solve(const real_t* b, real_t* x);
  SolveStats solve(const std::vector<real_t>& b, std::vector<real_t>& x);

  /// Whether the session currently holds factors to serve from.
  [[nodiscard]] bool serving() const;
  /// Which numeric pass produced the currently-served factors (0 before
  /// any; increments on every successful refactorize()).
  [[nodiscard]] std::uint64_t epoch() const;

  /// The worker solver: options, stats of the last numeric pass, summary
  /// printing. Solve-phase entry points on it are NOT serialized against
  /// this session's queue — use Session::solve().
  [[nodiscard]] const Solver& solver() const { return worker_; }
  [[nodiscard]] const SolverStats& stats() const { return worker_.stats(); }
  [[nodiscard]] const SolverOptions& options() const {
    return worker_.options();
  }

private:
  /// One queued solve request; lives on the caller's stack for its whole
  /// lifetime (the caller blocks until `done`).
  struct Request {
    const real_t* b = nullptr;
    real_t* x = nullptr;
    Timer queued;       ///< started at enqueue; read when the batch forms
    bool done = false;
    bool failed = false;
    std::string error;  ///< failure message when `failed`
    SolveStats st;
  };

  /// Serve one batch as the queue leader; called with `lk` held, returns
  /// with it held. Marks every drained request done (or failed).
  void flush_batch(std::unique_lock<std::mutex>& lk);

  SolverOptions opts_;
  Solver worker_;

  /// Serializes refactorize() calls against each other (not against
  /// solves: those run on snapshots).
  std::mutex refac_mu_;

  /// Guards the queue, the serving snapshot and the epoch.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request*> queue_;
  bool flushing_ = false;  ///< a leader is currently running a blocked solve

  std::shared_ptr<const SymbolicPlan> plan_;   ///< keeps ord/sf alive for serving_
  std::shared_ptr<NumericFactor> serving_;     ///< current factors (may lag worker_)
  std::uint64_t epoch_ = 0;
};

} // namespace blr::core

namespace blr {
using core::Session;
using core::SolveStats;
} // namespace blr
