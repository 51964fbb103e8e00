#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <limits>

#include "common/kernel_stats.hpp"

namespace blr {

namespace {

/// Identity of the pool (and worker slot) owning the current thread, so
/// submit() can route worker-local tasks to the local deque and trace events
/// can report dense worker indices.
thread_local ThreadPool* tl_pool = nullptr;
thread_local int tl_worker = -1;

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Failed acquisition rounds (with yields) before a worker of an idle pool
/// blocks.
constexpr int kSpinRounds = 32;

} // namespace

// ---------------------------------------------------------------------------
// Chase–Lev deque
//
// Memory ordering note: top_/bottom_ are accessed with seq_cst throughout.
// The classic formulation saves a few barriers with standalone fences, but
// seq_cst RMW/loads keep the Dekker-style reasoning (and ThreadSanitizer,
// which models atomics precisely and fences poorly) happy, and the deque is
// nowhere near the critical path next to multi-millisecond BLAS tasks.
// ---------------------------------------------------------------------------

ThreadPool::Deque::Deque() : slots_(new Slots(64)) {}

ThreadPool::Deque::~Deque() {
  delete slots_.load(std::memory_order_relaxed);
  for (Slots* s : retired_) delete s;
}

bool ThreadPool::Deque::maybe_nonempty() const {
  return bottom_.load(std::memory_order_seq_cst) >
         top_.load(std::memory_order_seq_cst);
}

ThreadPool::Deque::Slots* ThreadPool::Deque::grow(Slots* a, std::int64_t top,
                                                  std::int64_t bottom) {
  Slots* bigger = new Slots(a->cap * 2);
  for (std::int64_t i = top; i < bottom; ++i) {
    bigger->buf[i & bigger->mask].store(a->buf[i & a->mask].load(std::memory_order_relaxed),
                                        std::memory_order_relaxed);
  }
  retired_.push_back(a);
  slots_.store(bigger, std::memory_order_release);
  return bigger;
}

void ThreadPool::Deque::push(Task* t) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t tp = top_.load(std::memory_order_acquire);
  Slots* a = slots_.load(std::memory_order_relaxed);
  if (b - tp >= a->cap) a = grow(a, tp, b);
  a->buf[b & a->mask].store(t, std::memory_order_relaxed);
  // seq_cst publish: pairs with the thief's top_/bottom_ loads and with the
  // sleepers_ load in ThreadPool::submit (work-visibility handshake).
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

ThreadPool::Task* ThreadPool::Deque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Slots* a = slots_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t tp = top_.load(std::memory_order_seq_cst);
  if (tp > b) {  // empty
    bottom_.store(b + 1, std::memory_order_relaxed);
    return nullptr;
  }
  Task* t = a->buf[b & a->mask].load(std::memory_order_relaxed);
  if (tp == b) {
    // Last element: race against thieves on top_.
    if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      t = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return t;
}

ThreadPool::Task* ThreadPool::Deque::steal() {
  std::int64_t tp = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (tp >= b) return nullptr;
  Slots* a = slots_.load(std::memory_order_acquire);
  Task* t = a->buf[tp & a->mask].load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race; caller retries elsewhere
  }
  return t;
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    auto w = std::make_unique<Worker>();
    std::uint64_t seed = 0x8f1bbcdcbfa53e0bull + static_cast<std::uint64_t>(i);
    w->rng = splitmix64(seed);
    workers_.push_back(std::move(w));
  }
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard lock(sleep_mutex_);
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
  // Workers drain every queued task before exiting, so nothing leaks here.
}

int ThreadPool::current_worker() { return tl_worker; }

void ThreadPool::submit(std::function<void()> task, std::int64_t priority) {
  Task* t = new Task{std::move(task), priority,
                     seq_.fetch_add(1, std::memory_order_relaxed)};
  pending_.fetch_add(1, std::memory_order_seq_cst);

  if (tl_pool == this && tl_worker >= 0) {
    workers_[static_cast<std::size_t>(tl_worker)]->deque.push(t);
  } else {
    {
      std::lock_guard lock(inject_mutex_);
      inject_.push(t);
    }
    inject_count_.fetch_add(1, std::memory_order_seq_cst);
  }
  // Dekker handshake with the sleep path: the seq_cst enqueue store above
  // and this seq_cst load, against the sleeper's seq_cst sleepers_ increment
  // followed by its has_work() check, guarantee that either we see the
  // sleeper (and wake it) or it sees the task (and does not sleep).
  if (sleepers_.load(std::memory_order_seq_cst) > 0) wake_sleepers();
}

void ThreadPool::wake_sleepers() {
  // The empty critical section orders this notify after a sleeper that has
  // already incremented sleepers_ but not yet entered cv_task_.wait().
  {
    std::lock_guard lock(sleep_mutex_);
  }
  cv_task_.notify_all();
}

bool ThreadPool::has_work() const {
  if (inject_count_.load(std::memory_order_seq_cst) > 0) return true;
  for (const auto& w : workers_) {
    if (w->deque.maybe_nonempty()) return true;
  }
  return false;
}

void ThreadPool::cancel() {
  cancelled_.store(true, std::memory_order_seq_cst);
  // Sleepers hold no tasks; workers drain (and now discard) queued tasks
  // before sleeping, so no wakeup is needed — but nudge any worker that is
  // mid-backoff so the drain finishes promptly.
  wake_sleepers();
}

void ThreadPool::run_task(Task* t, Worker& me) {
  if (cancelled_.load(std::memory_order_acquire)) {
    // Cancelled: drop the task unrun. pending_ is still decremented below,
    // so wait_idle() observes the queue draining.
    delete t;
    me.discarded.fetch_add(1, std::memory_order_relaxed);
  } else {
    t->fn();
    delete t;
    me.executed.fetch_add(1, std::memory_order_relaxed);
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard lock(sleep_mutex_);
    }
    cv_idle_.notify_all();
  }
}

ThreadPool::Task* ThreadPool::pop_injected() {
  if (inject_count_.load(std::memory_order_seq_cst) <= 0) return nullptr;
  std::lock_guard lock(inject_mutex_);
  if (inject_.empty()) return nullptr;
  Task* t = inject_.top();
  inject_.pop();
  inject_count_.fetch_sub(1, std::memory_order_relaxed);
  return t;
}

ThreadPool::Task* ThreadPool::try_steal(int id, Worker& me) {
  const int n = size();
  if (n <= 1) return nullptr;
  const int start = static_cast<int>(splitmix64(me.rng) % static_cast<std::uint64_t>(n));
  for (int k = 0; k < n; ++k) {
    int v = start + k;
    if (v >= n) v -= n;
    if (v == id) continue;
    if (Task* t = workers_[static_cast<std::size_t>(v)]->deque.steal()) {
      me.steals.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  me.failed_steals.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ThreadPool::worker_loop(int id) {
  tl_pool = this;
  tl_worker = id;
  Worker& me = *workers_[static_cast<std::size_t>(id)];

  for (;;) {
    Task* t = me.deque.pop();
    if (!t) t = pop_injected();
    if (!t) t = try_steal(id, me);
    if (t) {
      run_task(t, me);
      continue;
    }

    // Backoff (counted as scheduler idle time): keep polling while any task
    // of this pool is queued or running, since a running task can release
    // successors at any moment; once the pool is idle, poll a few more
    // rounds and then block. A worker that slept through a narrow stretch
    // of a task graph would have to be woken when the graph fans out again,
    // and on a virtual machine that wake waits for the host to reschedule a
    // halted vCPU, which can take milliseconds (DESIGN.md §7).
    {
      KernelTimer idle(Kernel::SchedulerIdle);
      for (int spin = 0;
           !t && (spin < kSpinRounds ||
                  pending_.load(std::memory_order_acquire) > 0);
           ++spin) {
        std::this_thread::yield();
        t = pop_injected();
        if (!t) t = try_steal(id, me);
      }
    }
    if (t) {
      run_task(t, me);
      continue;
    }

    std::unique_lock lock(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    const bool work = has_work();
    if (work || stop_.load(std::memory_order_seq_cst)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      if (!work) return;  // stopped and fully drained
      continue;           // drain remaining work (even while stopping)
    }
    me.idle_sleeps.fetch_add(1, std::memory_order_relaxed);
    cv_task_.wait(lock);  // spurious wakeups just re-run the acquire loop
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(sleep_mutex_);
  cv_idle_.wait(lock, [this] {
    return pending_.load(std::memory_order_seq_cst) == 0;
  });
}

index_t ThreadPool::parallel_for(index_t n, const std::function<void(index_t)>& f) {
  if (n <= 0) return 0;
  const index_t nthreads = size();
  const index_t chunk =
      std::max<index_t>(1, (n + 4 * nthreads - 1) / (4 * nthreads));

  // Heap-held loop state: helper tasks may be scheduled after this call has
  // already returned (once every chunk is claimed they no-op), so they must
  // not touch the caller's frame — in particular not `f`.
  struct State {
    std::atomic<index_t> next{0};
    std::atomic<index_t> done{0};
    std::atomic<bool> stop{false};  ///< an item threw: skip the rest
    std::mutex mu;
    std::exception_ptr err;         ///< first exception, guarded by mu
    const std::function<void(index_t)>* f = nullptr;
    index_t n = 0;
    index_t chunk = 1;
  };
  auto st = std::make_shared<State>();
  st->f = &f;
  st->n = n;
  st->chunk = chunk;

  const auto body = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const index_t begin = s->next.fetch_add(s->chunk, std::memory_order_relaxed);
      if (begin >= s->n) return;
      const index_t end = std::min(begin + s->chunk, s->n);
      for (index_t i = begin; i < end; ++i) {
        if (s->stop.load(std::memory_order_relaxed)) break;
        try {
          (*s->f)(i);
        } catch (...) {
          std::lock_guard lock(s->mu);
          if (!s->err) s->err = std::current_exception();
          s->stop.store(true, std::memory_order_relaxed);
        }
      }
      s->done.fetch_add(end - begin, std::memory_order_acq_rel);
    }
  };

  const index_t nchunks = (n + chunk - 1) / chunk;
  const index_t helpers = std::min<index_t>(nthreads, nchunks) - 1;
  for (index_t h = 0; h < helpers; ++h) {
    // High priority: these belong to a computation already in flight.
    submit([st, body] { body(st); },
           std::numeric_limits<std::int64_t>::max() / 2);
  }
  body(st);  // the caller participates instead of blocking a worker

  // All chunks are claimed once the caller's loop exits; any helper still
  // short of `done` is actively executing on another thread, so a yield
  // wait cannot deadlock (unscheduled helpers claim nothing).
  while (st->done.load(std::memory_order_acquire) < n) {
    std::this_thread::yield();
  }
  // Every item has finished or been skipped: the acquire above orders the
  // recording thread's write of err before this read. Move the exception
  // out, so its last reference is not dropped on the worker whose late
  // helper task releases `st`.
  if (std::exception_ptr err = std::move(st->err)) std::rethrow_exception(err);
  return helpers;
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerStats s;
    s.executed = w->executed.load(std::memory_order_relaxed);
    s.steals = w->steals.load(std::memory_order_relaxed);
    s.failed_steals = w->failed_steals.load(std::memory_order_relaxed);
    s.idle_sleeps = w->idle_sleeps.load(std::memory_order_relaxed);
    s.discarded = w->discarded.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

ThreadPool::WorkerStats ThreadPool::total_stats() const {
  WorkerStats total;
  for (const WorkerStats& s : worker_stats()) {
    total.executed += s.executed;
    total.steals += s.steals;
    total.failed_steals += s.failed_steals;
    total.idle_sleeps += s.idle_sleeps;
    total.discarded += s.discarded;
  }
  return total;
}

void ThreadPool::reset_stats() {
  for (auto& w : workers_) {
    w->executed.store(0, std::memory_order_relaxed);
    w->steals.store(0, std::memory_order_relaxed);
    w->failed_steals.store(0, std::memory_order_relaxed);
    w->idle_sleeps.store(0, std::memory_order_relaxed);
    w->discarded.store(0, std::memory_order_relaxed);
  }
}

} // namespace blr
