// Tests of the runtime substrate: PRNG, memory tracker, thread pool,
// timer.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "common/memory_tracker.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace {

using namespace blr;

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Prng, NormalHasUnitVariance) {
  Prng rng(9);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Prng, BelowIsInRangeAndCoversAll) {
  Prng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(MemoryTracker, TracksCurrentAndPeak) {
  auto& t = MemoryTracker::instance();
  t.reset();
  t.allocate(MemCategory::Factors, 1000);
  t.allocate(MemCategory::Factors, 500);
  EXPECT_EQ(t.current(MemCategory::Factors), 1500u);
  t.release(MemCategory::Factors, 1000);
  EXPECT_EQ(t.current(MemCategory::Factors), 500u);
  EXPECT_EQ(t.peak(MemCategory::Factors), 1500u);
  t.allocate(MemCategory::Workspace, 2000);
  EXPECT_EQ(t.current_total(), 2500u);
  EXPECT_GE(t.peak_total(), 2500u);
  t.reset();
  EXPECT_EQ(t.current_total(), 0u);
}

TEST(MemoryTracker, TrackedAllocRaii) {
  auto& t = MemoryTracker::instance();
  t.reset();
  {
    TrackedAlloc a(MemCategory::Factors, 100);
    EXPECT_EQ(t.current(MemCategory::Factors), 100u);
    a.resize(250);
    EXPECT_EQ(t.current(MemCategory::Factors), 250u);
    a.resize(50);
    EXPECT_EQ(t.current(MemCategory::Factors), 50u);
    TrackedAlloc b = std::move(a);
    EXPECT_EQ(t.current(MemCategory::Factors), 50u);
  }
  EXPECT_EQ(t.current(MemCategory::Factors), 0u);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TasksCanSubmitTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&] {
        count.fetch_add(1);
        pool.submit([&] { count.fetch_add(1); });
      });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](index_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.elapsed(), 0.0);
  t.reset();
  EXPECT_LT(t.elapsed(), 1.0);
}

} // namespace
