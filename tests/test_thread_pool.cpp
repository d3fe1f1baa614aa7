// Tests for the shared work-stealing executor: full index coverage,
// determinism across thread counts, first-exception propagation onto the
// calling thread, and graceful degradation of nested parallel loops.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

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
  EXPECT_GE(stats.wall_seconds, 0.0);
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
