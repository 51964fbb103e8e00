// End-to-end and per-layer benchmark of the BLR supernodal solver
// (bench/e2e/README.md has the workloads, the metrics and why each exists).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--out-dir DIR]
//   bench_e2e --list
//
// One process runs one workload. It generates the inputs from --seed, runs
// one warm-up iteration it discards (first-touch page faults otherwise cost
// the first factorization up to 2x), then measures for --seconds. Every
// answer is checked: a direct solve must reach backward error <= 100*tau and
// refinement must reach 1e-10 within 50 iterations. A violation counts as a
// failed operation and the run goes on.
//
// Output: one line per metric, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics with tracing off. --trace 1 runs a shorter loop with
// spans around the benchmark's own calls into each layer, reports the
// per-layer metrics, and (with --out-dir) writes the spans as Chrome
// trace-event JSON plus SolverStats snapshots taken at the same boundaries.
// The process exits nonzero only when the harness itself cannot run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blr.hpp"
#include "core/kernels_dispatch.hpp"
#include "linalg/blas.hpp"
#include "symbolic/amalgamation.hpp"

namespace {

using namespace blr;

// ------------------------------------------------------------- parameters

constexpr const char* kWorkloads[] = {"lap_jit", "lap_jit_seq", "cd_minmem_lu",
                                      "session_steps"};

constexpr double kRunSeconds = 20;    ///< default --seconds; run_seconds in BENCHMARK.json
constexpr int kWarmSolves = 10;       ///< single-RHS solves per fresh factor (one-shot)
constexpr int kMinSamples = 3;        ///< untraced runs measure at least this many
constexpr int kTraceSamples = 3;      ///< one-shot samples of a traced run
constexpr int kTraceSteps = 20;       ///< session steps of a traced run
constexpr int kSmokeSamples = 2;      ///< samples (or steps) of a --smoke run
constexpr index_t kSmokeGrid = 12;
constexpr int kSessionClients = 2;
constexpr int kSessionSetupReps = 10; ///< analyze() calls timed before a session's steps
constexpr int kClientRhsPool = 8;     ///< distinct seeded RHS each client cycles
constexpr real_t kDirectSlack = 100;  ///< direct backward error must be <= slack*tau
constexpr real_t kRefineTarget = 1e-10;
constexpr index_t kRefineMaxIters = 50;
/// The session's coefficient field is part of the workload definition, not
/// of the seed: the backward error of a heterogeneous-coefficient matrix
/// varies about 2x from one field to the next, which would drown any
/// regression bound. The seed drives the right-hand sides and the phase of
/// the value steps.
constexpr std::uint64_t kFieldSeed = 2017;

// ---------------------------------------------------------------- statistics

/// Linearly interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Highest of p99/p95/p90 with at least ten samples beyond it; 0 when none.
double tail_level(std::size_t n) {
  for (const double p : {0.99, 0.95, 0.90}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) return p;
  }
  return 0.0;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

/// a / b, or 0 when b is 0 (a count that never happened).
template <typename A, typename B>
double ratio(A a, B b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

// ------------------------------------------------------------ metric sets

/// Every metric reports the median of its samples.
struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with "end_to_end" and "per_layer" in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"factorize_s", "s"},
    {"solve_p50_ms", "ms"},
    {"solves_per_s", "1/s"},
    {"time_to_solution_s", "s"},
    {"backward_error", "ratio"},
    {"factor_mib", "MiB"},
    {"peak_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"ordering.graph_s", "s"},
    {"ordering.nd_s", "s"},
    {"symbolic.amalgamate_s", "s"},
    {"symbolic.build_s", "s"},
    {"symbolic.cblks", "count"},
    {"symbolic.bloks", "count"},
    {"linalg.gemm_ge_s", "s"},
    {"linalg.gemm_ge_calls", "count"},
    {"linalg.gemm_ge_gbps", "GB/s"},
    {"linalg.trsm_ge_s", "s"},
    {"linalg.diag_factor_s", "s"},
    {"linalg.gemm256_gflops", "GF/s"},
    {"lowrank.compress_s", "s"},
    {"lowrank.compress_calls", "count"},
    {"lowrank.compress_yield", "ratio"},
    {"lowrank.lr_update_s", "s"},
    {"lowrank.avg_rank", "count"},
    {"lowrank.factor_ratio", "ratio"},
    {"lowrank.speedup_vs_dense", "ratio"},
    {"numeric.kernel_busy_frac", "ratio"},
    {"scheduler.tasks", "count"},
    {"scheduler.steals", "count"},
    {"scheduler.idle_sleeps", "count"},
    {"memory.factors_peak_mib", "MiB"},
    {"memory.workspace_peak_mib", "MiB"},
    {"memory.peak_vs_dense", "ratio"},
    {"solve.trsm_ms", "ms"},
    {"solve.gemm_ms", "ms"},
    {"solve.blocked_ms_p50", "ms"},
    {"solve.parallel_frac", "ratio"},
    {"solve.sequential_frac", "ratio"},
    {"solve.plan_reuse_ratio", "ratio"},
    {"session.batch_mean", "count"},
    {"session.wait_frac", "ratio"},
    {"warm.hit_ratio", "ratio"},
    {"warm.grows", "count"},
    {"warm.dense_skips", "count"},
    {"pool.hit_ratio", "ratio"},
    {"refine.iters", "count"},
    {"refine.s", "s"},
};

/// The samples of one metric set.
class Report {
public:
  explicit Report(std::span<const MetricDef> defs)
      : defs_(defs), samples_(defs.size()) {}

  template <typename T>
  void add(const char* name, T v) {
    samples_[index(name)].push_back(static_cast<double>(v));
  }
  void add_all(const char* name, const std::vector<double>& v) {
    std::vector<double>& s = samples_[index(name)];
    s.insert(s.end(), v.begin(), v.end());
  }

  /// One human-readable line per metric: unit, sample count, median and,
  /// where at least ten samples lie beyond it, the highest tail percentile.
  void print(const std::string& workload) const {
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      const std::vector<double>& s = samples_[i];
      std::printf("%-14s %-26s %-6s n=%-6zu median %-12.6g", workload.c_str(),
                  defs_[i].name, defs_[i].unit, s.size(), quantile(s, 0.5));
      const double p = tail_level(s.size());
      if (p > 0) std::printf(" p%ld %.6g", std::lround(p * 100), quantile(s, p));
      std::printf("\n");
    }
  }

  /// {"name": {"value": v, "unit": u}, ...} — the result-line form.
  [[nodiscard]] std::string json() const {
    std::string o = "{";
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      o += std::string(i ? ", " : "") + "\"" + defs_[i].name + "\": {\"value\": " +
           num(quantile(samples_[i], 0.5)) + ", \"unit\": \"" + defs_[i].unit +
           "\"}";
    }
    return o + "}";
  }

  /// Like json() plus the sample count and tail percentile per metric.
  [[nodiscard]] std::string detail_json() const {
    std::string o = "{";
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      const std::vector<double>& s = samples_[i];
      const double p = tail_level(s.size());
      o += std::string(i ? ",\n    " : "\n    ") + "\"" + defs_[i].name +
           "\": {\"value\": " + num(quantile(s, 0.5)) + ", \"unit\": \"" +
           defs_[i].unit + "\", \"samples\": " + std::to_string(s.size()) +
           ", \"tail\": " +
           (p > 0 ? "{\"p\": " + num(p) + ", \"value\": " + num(quantile(s, p)) + "}"
                  : std::string("null")) +
           "}";
    }
    return o + "\n  }";
  }

private:
  [[nodiscard]] std::size_t index(const char* name) const {
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      if (std::strcmp(defs_[i].name, name) == 0) return i;
    }
    throw std::logic_error(std::string("bench_e2e: undeclared metric ") + name);
  }

  std::span<const MetricDef> defs_;
  std::vector<std::vector<double>> samples_;
};

/// Operations attempted and failed; safe to update from client threads.
class Tally {
public:
  void attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void fail(const std::string& what) {
    const std::uint64_t f = failed_.fetch_add(1, std::memory_order_relaxed);
    if (f < 10) {
      std::lock_guard<std::mutex> lk(mu_);
      std::fprintf(stderr, "bench_e2e: FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }

private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mu_;  ///< keeps failure messages whole on stderr
};

// ------------------------------------------------------------------ tracing

/// In-memory span recorder, written out as Chrome trace-event JSON at exit.
class Trace {
public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: no parent
    double t0_us = 0;
    double t1_us = 0;
    int tid = 0;
  };

  explicit Trace(bool on) : on_(on), origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] double now_us() const {
    const auto d = std::chrono::steady_clock::now() - origin_;
    return std::chrono::duration<double, std::micro>(d).count();
  }
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(Record r) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(r));
  }

  [[nodiscard]] bool write(const std::string& path, const std::string& workload,
                           std::uint64_t seed) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lk(mu_);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << r.name
          << "\", \"cat\": \"bench_e2e\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
          << ", \"ts\": " << num(r.t0_us) << ", \"dur\": " << num(r.t1_us - r.t0_us)
          << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent << "}}";
    }
    out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
        << workload << "\", \"seed\": " << seed << "}}\n";
    return static_cast<bool>(out);
  }

private:
  bool on_;
  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Record> spans_;  ///< guarded by mu_
};

thread_local std::vector<std::uint64_t> t_open_spans;  ///< innermost last
/// Parent of this thread's outermost span (0: none).
thread_local std::uint64_t t_root_parent = 0;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// Scoped span: parent is the innermost span open on this thread (or the
/// thread's adopted root). No-op when tracing is off.
class Span {
public:
  Span(Trace& tr, std::string name) : tr_(tr) {
    if (!tr_.on()) return;
    rec_.name = std::move(name);
    rec_.id = tr_.next_id();
    rec_.parent = t_open_spans.empty() ? t_root_parent : t_open_spans.back();
    rec_.tid = thread_index();
    rec_.t0_us = tr_.now_us();
    t_open_spans.push_back(rec_.id);
  }
  ~Span() {
    if (!tr_.on()) return;
    rec_.t1_us = tr_.now_us();
    t_open_spans.pop_back();
    tr_.record(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Trace& tr_;
  Trace::Record rec_;
};

/// SolverStats fields the per-layer metrics read, as one JSON object.
std::string stats_json(const core::SolverStats& s) {
  std::ostringstream o;
  o << "{\"time_analyze\": " << num(s.time_analyze)
    << ", \"time_factorize\": " << num(s.time_factorize) << ", \"n\": " << s.n
    << ", \"num_cblks\": " << s.num_cblks << ", \"num_bloks\": " << s.num_bloks
    << ", \"factor_entries_dense\": " << s.factor_entries_dense
    << ", \"factor_bytes_final\": " << s.factor_bytes_final
    << ", \"factor_bytes_lowrank\": " << s.factor_bytes_lowrank
    << ", \"factors_peak_bytes\": " << s.factors_peak_bytes
    << ", \"total_peak_bytes\": " << s.total_peak_bytes
    << ", \"num_lowrank_blocks\": " << s.num_lowrank_blocks
    << ", \"num_dense_blocks\": " << s.num_dense_blocks
    << ", \"average_rank\": " << num(s.average_rank) << ", \"backend\": \"" << s.backend
    << "\", \"backend_isa\": \"" << s.backend_isa << "\""
    << ", \"scheduler\": {\"workers\": " << s.scheduler_workers
    << ", \"tasks\": " << s.scheduler_tasks << ", \"steals\": " << s.scheduler_steals
    << ", \"idle_sleeps\": " << s.scheduler_idle_sleeps << "}"
    << ", \"warm\": {\"attempts\": " << s.warm.attempts << ", \"hits\": " << s.warm.hits
    << ", \"grows\": " << s.warm.grows << ", \"dense_skips\": " << s.warm.dense_skips
    << "}, \"buffer_hits\": " << s.buffer_hits
    << ", \"buffer_misses\": " << s.buffer_misses
    << ", \"refactorizations\": " << s.refactorizations
    << ", \"solve_phase\": {\"solves\": " << s.solve_phase.solves
    << ", \"plan_builds\": " << s.solve_phase.plan_builds
    << ", \"plan_reuses\": " << s.solve_phase.plan_reuses
    << ", \"parallel\": " << s.solve_phase.parallel_solves
    << ", \"split\": " << s.solve_phase.split_solves
    << ", \"sequential\": " << s.solve_phase.sequential_solves
    << ", \"trsm_seconds\": " << num(s.solve_phase.trsm_seconds)
    << ", \"gemm_seconds\": " << num(s.solve_phase.gemm_seconds) << "}, \"dispatch\": [";
  for (std::size_t i = 0; i < s.dispatch.size(); ++i) {
    const core::DispatchCount& d = s.dispatch[i];
    o << (i ? ", " : "") << "{\"kernel\": \"" << d.kernel << "\", \"calls\": " << d.calls
      << ", \"bytes\": " << d.bytes << ", \"seconds\": " << num(d.seconds) << "}";
  }
  o << "]}";
  return o.str();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::string input;  ///< generator call, for the header line
  bool session = false;
  sparse::CscMatrix a;
  SolverOptions opts;  ///< paper defaults unless the workload says otherwise
};

std::optional<Workload> make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  const auto grid = [smoke](index_t g) { return smoke ? kSmokeGrid : g; };
  const auto label = [](const char* fn, index_t g, const char* extra) {
    const std::string s = std::to_string(g);
    return std::string(fn) + "(" + s + "," + s + "," + s + extra + ")";
  };
  if (name == "lap_jit" || name == "lap_jit_seq") {
    const index_t g = grid(36);
    w.a = sparse::laplacian_3d(g, g, g);
    w.input = label("laplacian_3d", g, "");
    w.opts.threads = name == "lap_jit" ? 4 : 1;
  } else if (name == "cd_minmem_lu") {
    const index_t g = grid(36);
    w.a = sparse::convection_diffusion_3d(g, g, g, 0.5);
    w.input = label("convection_diffusion_3d", g, ", 0.5");
    w.opts.strategy = Strategy::MinimalMemory;
    w.opts.tolerance = 1e-4;
    w.opts.compress_min_width = 32;
    w.opts.compress_min_height = 16;
    w.opts.split.split_threshold = 128;
    w.opts.split.split_size = 64;
    w.opts.threads = 4;
  } else if (name == "session_steps") {
    const index_t g = grid(32);
    w.a = sparse::heterogeneous_poisson_3d(g, g, g, 4.0, kFieldSeed);
    w.input = label("heterogeneous_poisson_3d", g,
                    (", 4.0, " + std::to_string(kFieldSeed)).c_str());
    w.session = true;
    w.opts.threads = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;  ///< empty: write no files
};

std::vector<real_t> random_rhs(Prng& rng, index_t n) {
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (real_t& v : b) v = rng.normal();
  return b;
}

RefinementOptions refine_options() {
  RefinementOptions ro;
  ro.target = kRefineTarget;
  ro.max_iterations = kRefineMaxIters;
  return ro;
}

/// Positions of the diagonal entries in a's value array.
std::vector<std::size_t> diagonal_positions(const sparse::CscMatrix& a) {
  std::vector<std::size_t> pos(static_cast<std::size_t>(a.cols()));
  for (std::size_t j = 0; j < pos.size(); ++j) {
    for (auto p = static_cast<std::size_t>(a.colptr()[j]);
         p < static_cast<std::size_t>(a.colptr()[j + 1]); ++p) {
      if (static_cast<std::size_t>(a.rowind()[p]) == j) pos[j] = p;
    }
  }
  return pos;
}

// ------------------------------------------------------------------ runner

class Runner {
public:
  Runner(const Config& cfg, Workload w)
      : cfg_(cfg),
        w_(std::move(w)),
        trace_(cfg.trace),
        e2e_(kEndToEnd),
        layers_(kPerLayer) {}

  /// Runs the workload; false when the harness could not write its files.
  bool run() {
    {
      Span top(trace_, "workload " + w_.name);
      if (w_.session) {
        session();
      } else {
        one_shot();
      }
      if (cfg_.trace) {
        versus_dense();
        gemm256();
      }
    }
    return write_files();
  }

  void print_result() const {
    const Report& r = cfg_.trace ? layers_ : e2e_;
    r.print(w_.name);
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                tally_.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally_.attempted()),
                static_cast<unsigned long long>(tally_.failed()), r.json().c_str());
    std::fflush(stdout);
  }

private:
  [[nodiscard]] real_t tau() const { return w_.opts.tolerance; }
  [[nodiscard]] index_t n() const { return w_.a.rows(); }

  /// How many samples (or session steps) to measure, and when to stop.
  [[nodiscard]] bool keep_going(int done, const Timer& window, int trace_cap) const {
    if (cfg_.smoke) return done < kSmokeSamples;
    if (cfg_.trace) {
      return done < trace_cap && (done < 1 || window.elapsed() < cfg_.seconds);
    }
    return done < kMinSamples || window.elapsed() < cfg_.seconds;
  }

  void check_direct(double be, const char* what) {
    if (!(be <= kDirectSlack * tau())) {
      tally_.fail(w_.name + ": " + what + " backward error " + num(be) + " > 100*tau");
    }
  }

  void check_refined(const RefinementResult& rr, double be, const char* what) {
    if (!rr.converged || !(be <= kRefineTarget)) {
      tally_.fail(w_.name + ": " + what + " refinement reached " + num(be) + " after " +
                  std::to_string(rr.iterations) + " iterations (target 1e-10)");
    }
  }

  void snapshot(const std::string& label, const core::SolverStats& st) {
    if (!cfg_.trace) return;
    snapshots_.push_back("{\"label\": \"" + label + "\", \"stats\": " + stats_json(st) +
                         "}");
  }

  /// Per-layer numbers of one factorization from the counters SolverStats
  /// exports. Solve kernel rows (solve_*) belong to the solve layer.
  void factor_layers(const core::SolverStats& st) {
    double busy = 0, gemm_s = 0, gemm_calls = 0, gemm_bytes = 0, trsm_s = 0, diag_s = 0;
    double compress_s = 0, compress_calls = 0, lr_update_s = 0;
    for (const core::DispatchCount& d : st.dispatch) {
      const std::string& k = d.kernel;
      if (k.starts_with("solve_")) continue;
      busy += d.seconds;
      if (k == "gemm[ge,ge]") {
        gemm_s += d.seconds;
        gemm_calls += static_cast<double>(d.calls);
        gemm_bytes += static_cast<double>(d.bytes);
      } else if (k == "trsm[ge]") {
        trsm_s += d.seconds;
      } else if (k == "potrf[ge]" || k == "getrf[ge]") {
        diag_s += d.seconds;
      } else if (k.starts_with("compress")) {
        compress_s += d.seconds;
        compress_calls += static_cast<double>(d.calls);
      } else if (k.starts_with("lr2") ||
                 (k.starts_with("gemm[") && k.find("lr") != std::string::npos)) {
        lr_update_s += d.seconds;
      }
    }
    const int threads = std::max(1, w_.opts.threads);
    layers_.add("symbolic.cblks", st.num_cblks);
    layers_.add("symbolic.bloks", st.num_bloks);
    layers_.add("linalg.gemm_ge_s", gemm_s);
    layers_.add("linalg.gemm_ge_calls", gemm_calls);
    layers_.add("linalg.gemm_ge_gbps", ratio(gemm_bytes, gemm_s) / 1e9);
    layers_.add("linalg.trsm_ge_s", trsm_s);
    layers_.add("linalg.diag_factor_s", diag_s);
    layers_.add("lowrank.compress_s", compress_s);
    layers_.add("lowrank.compress_calls", compress_calls);
    layers_.add("lowrank.compress_yield", ratio(st.num_lowrank_blocks, compress_calls));
    layers_.add("lowrank.lr_update_s", lr_update_s);
    layers_.add("lowrank.avg_rank", st.average_rank);
    layers_.add("lowrank.factor_ratio",
                ratio(st.factor_bytes_final, st.factor_entries_dense * sizeof(real_t)));
    layers_.add("numeric.kernel_busy_frac", ratio(busy, threads * st.time_factorize));
    layers_.add("scheduler.tasks", st.scheduler_tasks);
    layers_.add("scheduler.steals", st.scheduler_steals);
    layers_.add("scheduler.idle_sleeps", st.scheduler_idle_sleeps);
    layers_.add("memory.factors_peak_mib", mib(st.factors_peak_bytes));
    layers_.add("memory.workspace_peak_mib",
                mib(st.total_peak_bytes -
                    std::min(st.factors_peak_bytes, st.total_peak_bytes)));
  }

  /// Replays the analysis the way SymbolicPlan::build runs it, one public
  /// call per layer, so ordering and symbolic get their own spans and times.
  void replay_analysis() {
    const sparse::CscMatrix& a = w_.a;
    const SolverOptions& o = w_.opts;
    Span replay(trace_, "analysis_replay");
    Timer t;
    const sparse::Graph g = [&] {
      Span s(trace_, "graph");
      return sparse::Graph::from_matrix(a);
    }();
    layers_.add("ordering.graph_s", t.elapsed());
    t.reset();
    const ordering::Ordering ord = [&] {
      Span s(trace_, "nested_dissection");
      return ordering::nested_dissection(g, o.nd);
    }();
    layers_.add("ordering.nd_s", t.elapsed());
    t.reset();
    std::vector<index_t> ranges = ord.ranges;
    if (o.amalgamate) {
      Span s(trace_, "amalgamate");
      ranges = symbolic::amalgamate(a, ord, std::move(ranges), o.amalgamation);
    }
    layers_.add("symbolic.amalgamate_s", t.elapsed());
    {
      Span s(trace_, "split");
      ranges = symbolic::split_ranges(ranges, o.split);
    }
    t.reset();
    {
      Span s(trace_, "symbolic_build");
      const symbolic::SymbolicFactor sf =
          symbolic::SymbolicFactor::build(a, ord, ranges);
    }
    layers_.add("symbolic.build_s", t.elapsed());
  }

  // ---- one-shot workloads: analyze -> factorize -> solve -> refine

  void one_shot() {
    Prng rng(cfg_.seed * 8 + 1);
    sample(rng, -1);  // warm-up, discarded
    Timer window;
    for (int s = 0; keep_going(s, window, kTraceSamples); ++s) sample(rng, s);
  }

  void sample(Prng& rng, int idx) {
    const bool record = idx >= 0;
    const sparse::CscMatrix& a = w_.a;
    Span span(trace_, record ? "sample " + std::to_string(idx) : std::string("warmup"));
    const std::string tag = record ? "sample " + std::to_string(idx) : "warmup";
    tally_.attempt();
    std::optional<Solver> solver;
    try {
      solver.emplace(w_.opts);
      Timer t;
      {
        Span s(trace_, "analyze");
        solver->analyze(a);
      }
      const double analyze_s = t.elapsed();
      t.reset();
      {
        Span s(trace_, "factorize");
        solver->factorize(a);
      }
      const double factorize_s = t.elapsed();
      snapshot(tag + " factorize", solver->stats());

      std::vector<real_t> b = random_rhs(rng, n());
      std::vector<real_t> x(b.size());
      t.reset();
      {
        Span s(trace_, "solve");
        solver->solve(b.data(), x.data());
      }
      const double solve_s = t.elapsed();
      const double be_direct = sparse::backward_error(a, x.data(), b.data());
      check_direct(be_direct, "first solve");
      t.reset();
      RefinementResult rr;
      {
        Span s(trace_, "refine");
        rr = solver->refine(a, b.data(), x.data(), refine_options());
      }
      const double refine_s = t.elapsed();
      check_refined(rr, sparse::backward_error(a, x.data(), b.data()), "pipeline");

      if (record) {
        const core::SolverStats& st = solver->stats();
        e2e_.add("setup_s", analyze_s);
        e2e_.add("factorize_s", factorize_s);
        e2e_.add("time_to_solution_s", analyze_s + factorize_s + solve_s + refine_s);
        e2e_.add("backward_error", be_direct);
        e2e_.add("factor_mib", mib(st.factor_bytes_final));
        e2e_.add("peak_mib", mib(st.total_peak_bytes));
        layers_.add("refine.iters", rr.iterations);
        layers_.add("refine.s", refine_s);
        if (cfg_.trace) factor_layers(st);
      }
    } catch (const std::exception& e) {
      tally_.fail(w_.name + " " + tag + ": " + e.what());
      return;
    }

    // Single-RHS solves on the fresh factor: the latency a caller with a
    // stream of right-hand sides sees.
    std::vector<double> lat;
    {
      Span warm(trace_, "warm_solves");
      for (int k = 0; k < kWarmSolves; ++k) {
        tally_.attempt();
        try {
          const std::vector<real_t> b = random_rhs(rng, n());
          std::vector<real_t> x(b.size());
          Timer t;
          {
            Span s(trace_, "solve");
            solver->solve(b.data(), x.data());
          }
          lat.push_back(t.elapsed());
          const double be = sparse::backward_error(w_.a, x.data(), b.data());
          check_direct(be, "warm solve");
          if (record) e2e_.add("backward_error", be);
        } catch (const std::exception& e) {
          tally_.fail(w_.name + " " + tag + " warm solve: " + e.what());
        }
      }
    }
    if (!record) return;
    double total = 0;
    for (const double l : lat) {
      total += l;
      e2e_.add("solve_p50_ms", l * 1e3);
      layers_.add("solve.blocked_ms_p50", l * 1e3);
    }
    if (total > 0) e2e_.add("solves_per_s", ratio(lat.size(), total));
    if (cfg_.trace) {
      const core::SolverStats& st = solver->stats();
      const core::SolvePhaseStats& sp = st.solve_phase;
      layers_.add("solve.trsm_ms", ratio(sp.trsm_seconds * 1e3, sp.solves));
      layers_.add("solve.gemm_ms", ratio(sp.gemm_seconds * 1e3, sp.solves));
      layers_.add("solve.parallel_frac", ratio(sp.parallel_solves, sp.solves));
      layers_.add("solve.sequential_frac", ratio(sp.sequential_solves, sp.solves));
      layers_.add("solve.plan_reuse_ratio",
                  ratio(sp.plan_reuses, sp.plan_builds + sp.plan_reuses));
      // A one-shot caller has no session and no warm state: every solve is
      // a batch of one that never queues, and every pass is cold.
      layers_.add("session.batch_mean", 1.0);
      layers_.add("session.wait_frac", 0.0);
      layers_.add("warm.hit_ratio", 0.0);
      layers_.add("warm.grows", 0.0);
      layers_.add("warm.dense_skips", 0.0);
      layers_.add("pool.hit_ratio", 0.0);
      snapshot(tag + " solves", st);
      replay_analysis();
    }
  }

  // ---- session workload: refactorize steps beside closed-loop solve clients

  struct ClientLog {
    std::vector<double> latency_s, blocked_s, backward_error;
    double wait_s = 0, batch_sum = 0;
    std::uint64_t parallel = 0, sequential = 0;
  };

  /// ||(A0 + c*diag(A0))*x - b|| / ||b||: the backward error against the
  /// matrix of one session step, without materializing it.
  double step_backward_error(double c, const std::vector<real_t>& x,
                             const std::vector<real_t>& b,
                             std::vector<real_t>& r) const {
    w_.a.spmv(x.data(), r.data());
    double rn = 0, bn = 0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const double ri = r[i] + c * w_.a.values()[diag_[i]] * x[i] - b[i];
      rn += ri * ri;
      bn += b[i] * b[i];
    }
    return std::sqrt(rn) / std::sqrt(bn);
  }

  void session() {
    const sparse::CscMatrix& a0 = w_.a;
    diag_ = diagonal_positions(a0);
    if (cfg_.trace) replay_analysis();

    core::Session sess(w_.opts);
    // setup_s is timed before the first factorization only, after one
    // discarded warm-up call. Calls made after the steps run on a heap the
    // factors have already faulted in and are about 20% faster; a median
    // over both kinds lands between the two clusters and jumps between them
    // from run to run.
    const int setup_reps = cfg_.smoke ? 1 : kSessionSetupReps;
    for (int i = -1; i < setup_reps; ++i) {
      Span s(trace_, "analyze");
      Timer t;
      sess.analyze(a0);
      if (i >= 0) e2e_.add("setup_s", t.elapsed());
    }

    // Shift c of each epoch: the matrix that epoch's factors answer for is
    // A0 + c*diag(A0). Written by this thread before the refactorize that
    // publishes the epoch, read by the clients after a reply names it.
    std::mutex shift_mu;
    std::vector<double> epoch_shift(2, 0.0);  // guarded by shift_mu
    const auto shift_of = [&](std::uint64_t epoch) {
      std::lock_guard<std::mutex> lk(shift_mu);
      return epoch < epoch_shift.size() ? epoch_shift[epoch] : -1.0;
    };

    tally_.attempt();
    try {
      Span s(trace_, "refactorize");
      sess.refactorize(a0);  // cold pass, epoch 1
    } catch (const std::exception& e) {
      tally_.fail(w_.name + " first refactorize: " + e.what());
      return;
    }

    Prng rng(cfg_.seed * 8 + 2);
    std::uint64_t main_solves = 0;
    std::uint64_t step_index = 0;
    const auto step = [&](const std::string& tag, bool record) {
      Span span(trace_, tag);
      // Shifts c in [0.01, 0.2] from a golden-ratio sequence started at the
      // seed: any run of steps covers the range evenly, so the run's medians
      // do not depend on which shifts a seed happened to draw.
      const double phase =
          static_cast<double>(cfg_.seed % 1000003 + ++step_index) * 0.6180339887498949;
      const double c = 0.01 + 0.19 * (phase - std::floor(phase));
      sparse::CscMatrix a = a0;
      for (const std::size_t p : diag_) a.values()[p] += c * a0.values()[p];
      {
        std::lock_guard<std::mutex> lk(shift_mu);
        const std::uint64_t next = sess.epoch() + 1;
        epoch_shift.resize(std::max<std::size_t>(epoch_shift.size(), next + 1));
        epoch_shift[next] = c;
      }
      tally_.attempt();
      try {
        Timer t;
        {
          Span s(trace_, "refactorize");
          sess.refactorize(a);
        }
        const double refactorize_s = t.elapsed();
        const core::SolverStats& st = sess.stats();
        snapshot(tag + " refactorize", st);

        const std::vector<real_t> b = random_rhs(rng, n());
        std::vector<real_t> x(b.size());
        t.reset();
        RefinementResult rr;
        double be_direct = 0;
        {
          Span s(trace_, "refine");
          sess.solve(b.data(), x.data());
          ++main_solves;
          be_direct = sparse::backward_error(a, x.data(), b.data());
          const core::Preconditioner m = [&](const real_t* in, real_t* out) {
            sess.solve(in, out);
            ++main_solves;
          };
          rr = core::conjugate_gradient(a, m, b.data(), x.data(), refine_options());
        }
        const double refine_s = t.elapsed();
        check_direct(be_direct, "step solve");
        check_refined(rr, sparse::backward_error(a, x.data(), b.data()), "step");
        if (!record) return;
        e2e_.add("factorize_s", refactorize_s);
        e2e_.add("time_to_solution_s", refactorize_s + refine_s);
        e2e_.add("backward_error", be_direct);
        e2e_.add("factor_mib", mib(st.factor_bytes_final));
        e2e_.add("peak_mib", mib(st.total_peak_bytes));
        layers_.add("refine.iters", rr.iterations);
        layers_.add("refine.s", refine_s);
        if (cfg_.trace) {
          const core::SolvePhaseStats& sp = st.solve_phase;
          factor_layers(st);
          layers_.add("warm.hit_ratio", ratio(st.warm.hits, st.warm.attempts));
          layers_.add("warm.grows", st.warm.grows);
          layers_.add("warm.dense_skips", st.warm.dense_skips);
          layers_.add("pool.hit_ratio",
                      ratio(st.buffer_hits, st.buffer_hits + st.buffer_misses));
          layers_.add("solve.plan_reuse_ratio",
                      ratio(sp.plan_reuses, sp.plan_builds + sp.plan_reuses));
        }
      } catch (const std::exception& e) {
        tally_.fail(w_.name + " " + tag + ": " + e.what());
      }
    };
    step("warmup", false);

    // Solve-kernel seconds of the measured window. The dispatch counters
    // restart at every refactorize, so read the solve_* rows just before
    // each one and once at the end, less what had accrued before the window.
    double solve_trsm_s = 0, solve_gemm_s = 0;
    const auto harvest_solve_kernels = [&](double sign) {
      if (!cfg_.trace) return;
      for (const core::DispatchCount& d : core::KernelDispatch::instance().snapshot()) {
        if (d.kernel.starts_with("solve_trsm")) solve_trsm_s += sign * d.seconds;
        if (d.kernel.starts_with("solve_gemm")) solve_gemm_s += sign * d.seconds;
      }
    };

    std::vector<ClientLog> logs(kSessionClients);
    const std::uint64_t root = t_open_spans.empty() ? 0 : t_open_spans.back();
    const auto client = [&](int id) {
      t_root_parent = root;
      ClientLog& log = logs[static_cast<std::size_t>(id)];
      Prng crng(cfg_.seed * 8 + 3 + static_cast<std::uint64_t>(id));
      std::vector<std::vector<real_t>> pool;
      for (int i = 0; i < kClientRhsPool; ++i) pool.push_back(random_rhs(crng, n()));
      std::vector<real_t> x(static_cast<std::size_t>(n())), r(x.size());
      for (std::size_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
        const std::vector<real_t>& b = pool[i % pool.size()];
        tally_.attempt();
        try {
          Timer t;
          core::SolveStats st;
          {
            Span s(trace_, "session_solve");
            st = sess.solve(b.data(), x.data());
          }
          log.latency_s.push_back(t.elapsed());
          log.blocked_s.push_back(st.solve_seconds);
          log.wait_s += st.wait_seconds;
          log.batch_sum += static_cast<double>(st.batch_size);
          if (st.parallel) {
            ++log.parallel;
          } else if (!st.column_split) {
            ++log.sequential;
          }
          const double c = shift_of(st.factor_epoch);
          const double be = c < 0 ? HUGE_VAL : step_backward_error(c, x, b, r);
          log.backward_error.push_back(be);
          check_direct(be, "session solve");
        } catch (const std::exception& e) {
          tally_.fail(w_.name + " session solve: " + e.what());
        }
      }
    };

    harvest_solve_kernels(-1);
    const std::uint64_t main_solves_before = main_solves;
    Timer window;
    {
      ClientThreads clients(stop_);
      for (int id = 0; id < kSessionClients; ++id) {
        clients.start([&client, &tally = tally_, id] {
          // Nothing may escape a thread's entry function.
          try {
            client(id);
          } catch (const std::exception& e) {
            tally.attempt();
            tally.fail(std::string("session client: ") + e.what());
          }
        });
      }
      for (int s = 0; keep_going(s, window, kTraceSteps); ++s) {
        harvest_solve_kernels(+1);
        step("step " + std::to_string(s), true);
      }
    }  // stops and joins the clients
    const double window_s = window.elapsed();
    harvest_solve_kernels(+1);

    double requests = 0, wait = 0, latency = 0, batch_sum = 0;
    double parallel = 0, sequential = 0;
    for (const ClientLog& log : logs) {
      requests += static_cast<double>(log.latency_s.size());
      for (std::size_t i = 0; i < log.latency_s.size(); ++i) {
        e2e_.add("solve_p50_ms", log.latency_s[i] * 1e3);
        layers_.add("solve.blocked_ms_p50", log.blocked_s[i] * 1e3);
        latency += log.latency_s[i];
      }
      e2e_.add_all("backward_error", log.backward_error);
      wait += log.wait_s;
      batch_sum += log.batch_sum;
      parallel += static_cast<double>(log.parallel);
      sequential += static_cast<double>(log.sequential);
    }
    e2e_.add("solves_per_s", ratio(requests, window_s));
    if (cfg_.trace) {
      const double all_solves = requests + main_solves - main_solves_before;
      layers_.add("session.batch_mean", ratio(batch_sum, requests));
      layers_.add("session.wait_frac", ratio(wait, latency));
      layers_.add("solve.trsm_ms", ratio(solve_trsm_s * 1e3, all_solves));
      layers_.add("solve.gemm_ms", ratio(solve_gemm_s * 1e3, all_solves));
      layers_.add("solve.parallel_frac", ratio(parallel, requests));
      layers_.add("solve.sequential_frac", ratio(sequential, requests));
    }
  }

  /// Owns the client threads: the destructor stops and joins them on every
  /// exit path, before the session they call into is destroyed.
  class ClientThreads {
  public:
    explicit ClientThreads(std::atomic<bool>& stop) : stop_(stop) { stop_ = false; }
    ~ClientThreads() {
      stop_ = true;
      for (std::thread& t : threads_) t.join();
    }
    ClientThreads(const ClientThreads&) = delete;
    ClientThreads& operator=(const ClientThreads&) = delete;
    void start(std::function<void()> fn) { threads_.emplace_back(std::move(fn)); }

  private:
    std::atomic<bool>& stop_;
    std::vector<std::thread> threads_;
  };

  // ---- traced-run extras

  /// The paper's headline ratios: one cold factorization under the
  /// workload's strategy and one under Dense, same matrix, same threads.
  void versus_dense() {
    Span span(trace_, "versus_dense");
    try {
      SolverOptions dense_opts = w_.opts;
      dense_opts.strategy = Strategy::Dense;
      double seconds[2] = {0, 0};
      std::size_t peak[2] = {0, 0};
      const SolverOptions* opts[2] = {&w_.opts, &dense_opts};
      for (int i = 0; i < 2; ++i) {
        Span s(trace_, i == 0 ? "factorize" : "factorize_dense");
        Solver solver(*opts[i]);
        solver.analyze(w_.a);
        Timer t;
        solver.factorize(w_.a);
        seconds[i] = t.elapsed();
        peak[i] = solver.stats().total_peak_bytes;
        snapshot(i == 0 ? "versus_dense strategy" : "versus_dense dense", solver.stats());
      }
      layers_.add("lowrank.speedup_vs_dense", ratio(seconds[1], seconds[0]));
      layers_.add("memory.peak_vs_dense", ratio(peak[0], peak[1]));
    } catch (const std::exception& e) {
      tally_.attempt();
      tally_.fail(w_.name + " versus_dense: " + e.what());
    }
  }

  /// What the dense gemm kernel does on its own: n = k = 256, one thread.
  void gemm256() {
    Span span(trace_, "gemm256");
    constexpr index_t kN = 256;
    la::DMatrix a(kN, kN), b(kN, kN), c(kN, kN);
    Prng rng(cfg_.seed * 8 + 4);
    la::random_normal(a.view(), rng);
    la::random_normal(b.view(), rng);
    for (int rep = 0; rep < 16; ++rep) {
      Timer t;
      la::gemm(la::Trans::No, la::Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
      layers_.add("linalg.gemm256_gflops", 2.0 * kN * kN * kN / t.elapsed() / 1e9);
    }
  }

  // ---- files

  bool write_files() const {
    if (cfg_.out_dir.empty()) return true;
    const std::string base = cfg_.out_dir + "/" + w_.name;
    const std::string head =
        "{\n  \"workload\": \"" + w_.name + "\",\n  \"input\": \"" + w_.input +
        "\",\n  \"seed\": " + std::to_string(cfg_.seed) +
        ",\n  \"seconds\": " + num(cfg_.seconds) +
        ",\n  \"smoke\": " + (cfg_.smoke ? "true" : "false") +
        ",\n  \"correct\": " + (tally_.failed() == 0 ? "true" : "false") +
        ",\n  \"attempted\": " + std::to_string(tally_.attempted()) +
        ",\n  \"failed\": " + std::to_string(tally_.failed());
    if (!cfg_.trace) {
      std::ofstream out(base + ".result.json");
      out << head << ",\n  \"metrics\": " << e2e_.detail_json() << "\n}\n";
      return static_cast<bool>(out);
    }
    std::ofstream out(base + ".layers.json");
    out << head << ",\n  \"per_layer\": " << layers_.detail_json()
        << ",\n  \"end_to_end_traced\": " << e2e_.detail_json()
        << ",\n  \"snapshots\": [";
    for (std::size_t i = 0; i < snapshots_.size(); ++i) {
      out << (i ? ",\n    " : "\n    ") << snapshots_[i];
    }
    out << "\n  ]\n}\n";
    return static_cast<bool>(out) &&
           trace_.write(base + ".trace.json", w_.name, cfg_.seed);
  }

  const Config& cfg_;
  Workload w_;
  Trace trace_;
  Tally tally_;
  Report e2e_;
  Report layers_;
  std::vector<std::string> snapshots_;
  std::vector<std::size_t> diag_;  ///< diagonal positions of the session matrix
  std::atomic<bool> stop_{false};  ///< session clients stop when set
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--smoke] [--out-dir DIR]\n"
               "       bench_e2e --list\n",
               msg);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      for (const char* w : kWorkloads) std::printf("%s\n", w);
      return 0;
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--out-dir") {
      const char* v = value();
      if (v == nullptr) return usage((arg + " needs a value").c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        cfg.workload = v;
      } else if (arg == "--out-dir") {
        cfg.out_dir = v;
      } else if (arg == "--seed") {
        cfg.seed = std::strtoull(v, &end, 10);
        if (*v == '\0' || *v == '-' || *end != '\0') {
          return usage("--seed takes a non-negative integer");
        }
      } else if (arg == "--seconds") {
        cfg.seconds = std::strtod(v, &end);
        if (*end != '\0' || !(cfg.seconds > 0) || cfg.seconds > 3600) {
          return usage("--seconds takes a number in (0, 3600]");
        }
      } else {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
          return usage("--trace takes 0 or 1");
        }
        cfg.trace = v[0] == '1';
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.workload.empty()) return usage("--workload is required");

  try {
    std::optional<Workload> w = make_workload(cfg.workload, cfg.smoke);
    if (!w) return usage(("unknown workload " + cfg.workload).c_str());
    std::printf("# bench_e2e %s: %s, n=%lld, %s, threads=%d, seed=%llu, trace=%d%s\n",
                w->name.c_str(), w->input.c_str(), static_cast<long long>(w->a.rows()),
                core::strategy_name(w->opts.strategy), w->opts.threads,
                static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
                cfg.smoke ? ", smoke" : "");
    Runner runner(cfg, std::move(*w));
    if (!runner.run()) {
      std::fprintf(stderr, "bench_e2e: cannot write results under %s\n",
                   cfg.out_dir.c_str());
      return 1;
    }
    runner.print_result();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: harness error: %s\n", e.what());
    return 1;
  }
  return 0;
}
