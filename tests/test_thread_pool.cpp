// Tests for the shared work-stealing executor: full index coverage,
// determinism across thread counts, first-exception propagation onto the
// calling thread, graceful degradation of nested parallel loops, and
// allocation-free jobs.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {
/// Calls to the global operator new on any thread of this test binary.
std::atomic<std::uint64_t> g_operator_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace samurai::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  const auto stats = parallel_for_indexed(
      kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(stats.tasks_run, kN);
  EXPECT_GE(stats.threads_used, 1u);
  EXPECT_LE(stats.threads_used, 8u);
}

TEST(ThreadPool, ResultsAreIdenticalAcrossThreadCounts) {
  constexpr std::size_t kN = 513;
  auto run = [&](std::size_t threads) {
    std::vector<double> out(kN);
    parallel_for_indexed(
        kN,
        [&](std::size_t i) {
          out[i] = std::sin(static_cast<double>(i)) * 3.25 + 1.0;
        },
        threads);
    return out;
  };
  const auto serial = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(serial[i], parallel[i]) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, FirstExceptionIsRethrownOnCaller) {
  EXPECT_THROW(
      parallel_for_indexed(
          1000,
          [](std::size_t i) {
            if (i == 137) throw std::runtime_error("boom at 137");
          },
          8),
      std::runtime_error);
  // The pool must stay healthy after a throwing job.
  std::atomic<std::size_t> count{0};
  parallel_for_indexed(100, [&](std::size_t) { ++count; }, 8);
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, ExceptionCancelsRemainingWork) {
  std::atomic<std::uint64_t> executed{0};
  try {
    ThreadPool::shared().for_indexed(1'000'000, 4, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("early abort");
      ++executed;
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error&) {
  }
  // Cancellation is cooperative, so some tasks run; far from all of them.
  EXPECT_LT(executed.load(), 1'000'000u);
}

TEST(ThreadPool, SerialPathPropagatesExceptions) {
  EXPECT_THROW(parallel_for_indexed(
                   10,
                   [](std::size_t i) {
                     if (i == 3) throw std::invalid_argument("serial");
                   },
                   1),
               std::invalid_argument);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  bool touched = false;
  const auto stats =
      parallel_for_indexed(0, [&](std::size_t) { touched = true; }, 8);
  EXPECT_FALSE(touched);
  EXPECT_EQ(stats.tasks_run, 0u);
}

TEST(ThreadPool, ParticipantsClampedToWork) {
  const auto stats = parallel_for_indexed(2, [](std::size_t) {}, 8);
  EXPECT_LE(stats.threads_used, 2u);
  EXPECT_EQ(stats.tasks_run, 2u);
}

TEST(ThreadPool, NestedLoopsDegradeToSerialWithoutDeadlock) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for_indexed(
      kOuter,
      [&](std::size_t o) {
        parallel_for_indexed(
            kInner, [&](std::size_t i) { hits[o * kInner + i].fetch_add(1); },
            8);
      },
      8);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, StealsReportedWhenWorkIsImbalanced) {
  // One block holds all the slow tasks; the other participants must steal
  // to finish. (On a single-core host the schedule may still serialise,
  // so only sanity-check the counters rather than demanding steals.)
  const auto stats = parallel_for_indexed(
      64,
      [](std::size_t i) {
        volatile double sink = 0.0;
        const std::size_t spin = i < 8 ? 20'000 : 10;
        for (std::size_t k = 0; k < spin; ++k) sink += std::sqrt(double(k));
      },
      4);
  EXPECT_EQ(stats.tasks_run, 64u);
  EXPECT_LE(stats.steals, stats.tasks_run);
}

// The transient sweeps fork-join several times per Newton iteration, so a
// job given a ready std::function must not allocate on any thread.
TEST(ThreadPool, BackToBackJobsAllocateNothing) {
  ThreadPool& pool = ThreadPool::shared();
  ASSERT_GE(pool.worker_count() + 1, 4u);
  std::vector<std::uint64_t> hits(256, 0);
  const std::function<void(std::size_t)> fn = [&hits](std::size_t i) {
    ++hits[i];
  };
  pool.for_indexed(hits.size(), 4, fn);  // starts the pool's threads
  const std::uint64_t before = g_operator_news.load();
  constexpr std::uint64_t kJobs = 200;
  for (std::uint64_t job = 0; job < kJobs; ++job) {
    pool.for_indexed(hits.size(), 4, fn);
  }
  EXPECT_EQ(g_operator_news.load() - before, 0u);
  for (const std::uint64_t count : hits) ASSERT_EQ(count, kJobs + 1);
}

// Short jobs in a row race each worker's acceptance of its invitation
// against the caller withdrawing it once every index is claimed. Whichever
// side wins, each index runs exactly once and the job has finished when
// for_indexed returns: the plain (non-atomic) counters are written by one
// thread per job and read by the next job's owner, which TSan checks.
TEST(ThreadPool, BackToBackShortJobsRunEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::uint32_t> hits(64, 0);
  const std::function<void(std::size_t)> fn = [&hits](std::size_t i) {
    ++hits[i];
  };
  std::vector<std::uint32_t> expected(hits.size(), 0);
  for (std::size_t job = 0; job < 5000; ++job) {
    const std::size_t n = 1 + job % hits.size();
    const auto stats = pool.for_indexed(n, 4, fn);
    ASSERT_EQ(stats.tasks_run, n) << "job " << job;
    for (std::size_t i = 0; i < n; ++i) ++expected[i];
  }
  EXPECT_EQ(hits, expected);
}

// A job capped below the pool size runs on the caller plus the same
// workers every time, so repeated capped jobs keep reusing the same
// threads' allocator arenas instead of spreading over all of them.
TEST(ThreadPool, CappedJobsReuseTheSameThreads) {
  constexpr std::size_t kThreads = 3;
  ASSERT_GT(ThreadPool::shared().worker_count() + 1, kThreads);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  for (int run = 0; run < 6; ++run) {
    parallel_for_indexed(
        4 * kThreads,
        [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          const std::lock_guard lock(mutex);
          seen.insert(std::this_thread::get_id());
        },
        kThreads);
  }
  EXPECT_LE(seen.size(), kThreads);
}

}  // namespace
}  // namespace samurai::util
