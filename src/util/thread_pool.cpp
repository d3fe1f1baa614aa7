#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace samurai::util {

namespace {

/// Set while a thread is executing tasks for some job; a `for_indexed`
/// issued from such a thread must not wait on the pool (its workers may
/// all be busy running the outer job) — it runs serially instead.
thread_local bool t_inside_pool_job = false;

}  // namespace

struct ThreadPool::Impl {
  // One contiguous slice of [0, n). `next` is bumped by the owner and by
  // thieves alike; claims at or past `end` are dead. Padded so two
  // participants' cursors never share a cache line.
  struct alignas(64) Block {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t participants = 0;     ///< blocks; slot 0 is the caller
    std::vector<Block> blocks;
    std::atomic<std::size_t> active{0};    ///< workers still running
    std::atomic<bool> cancelled{false};
    std::atomic<bool> has_exception{false};
    std::exception_ptr exception;          ///< written by the CAS winner only
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };

  std::mutex mutex;                  ///< guards `job`, `job_serial`, `shutdown`
  std::condition_variable wake_cv;
  Job* job = nullptr;
  std::uint64_t job_serial = 0;      ///< bumped per published job
  bool shutdown = false;
  std::mutex submit_mutex;           ///< serialises whole jobs
  std::vector<std::thread> workers;

  // Drain blocks starting from the participant's own, then steal from the
  // others in round-robin order. Determinism: fn(i) depends only on i, so
  // who runs an index is invisible in the results.
  static void run_participant(Job& job, std::size_t slot) {
    const bool was_inside = t_inside_pool_job;
    t_inside_pool_job = true;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    for (std::size_t probe = 0; probe < job.participants; ++probe) {
      Block& block = job.blocks[(slot + probe) % job.participants];
      for (;;) {
        if (job.cancelled.load(std::memory_order_relaxed)) goto drained;
        const std::size_t i = block.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= block.end) break;
        ++tasks;
        if (probe != 0) ++steals;
        try {
          (*job.fn)(i);
        } catch (...) {
          bool expected = false;
          if (job.has_exception.compare_exchange_strong(expected, true)) {
            job.exception = std::current_exception();
          }
          job.cancelled.store(true, std::memory_order_release);
        }
      }
    }
  drained:
    t_inside_pool_job = was_inside;
    job.tasks.fetch_add(tasks, std::memory_order_relaxed);
    job.steals.fetch_add(steals, std::memory_order_relaxed);
  }

  // Worker `index` always takes slot index + 1 (slot 0 is the caller), so
  // a job with k participants runs on the caller plus workers 0..k-2.
  // Repeated capped jobs thus reuse the same threads and their allocator
  // arenas; were the k-1 slots taken by whichever workers woke first, each
  // run would leave freed memory resident in a different subset of arenas
  // and the process footprint would grow run after run.
  void worker_loop(std::size_t index) {
    std::uint64_t joined = 0;  // serial of the last job this worker ran
    for (;;) {
      Job* current = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake_cv.wait(lock, [&] {
          return shutdown || (job != nullptr && job_serial != joined &&
                              index + 1 < job->participants);
        });
        if (shutdown) return;
        joined = job_serial;
        current = job;
      }
      run_participant(*current, index + 1);
      // Count down under done_mutex: the caller destroys the job as soon
      // as it sees zero, so the last worker must be done touching the job
      // (its mutex and condition variable) before the count can read zero.
      std::lock_guard<std::mutex> lock(current->done_mutex);
      if (current->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        current->done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl) {
  impl_->workers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->wake_cv.notify_all();
  for (auto& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::worker_count() const noexcept {
  return impl_->workers.size();
}

ParallelForStats ThreadPool::for_indexed(
    std::size_t n, std::size_t max_participants,
    const std::function<void(std::size_t)>& fn) {
  const auto start = std::chrono::steady_clock::now();
  ParallelForStats stats;
  auto finish = [&] {
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return stats;
  };
  if (n == 0) return finish();

  if (max_participants == 0) max_participants = worker_count() + 1;
  std::size_t participants =
      std::min({max_participants, worker_count() + 1, n});

  // A caller already inside a pool job (nested parallel_for) or racing
  // another caller for the pool falls back to the serial loop rather than
  // waiting on workers that may never come free.
  std::unique_lock<std::mutex> submit(impl_->submit_mutex, std::defer_lock);
  if (participants > 1 && !t_inside_pool_job) {
    if (!submit.try_lock()) participants = 1;
  } else {
    participants = 1;
  }

  if (participants <= 1) {
    stats.threads_used = 1;
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
      ++stats.tasks_run;
    }
    return finish();
  }

  Impl::Job job;
  job.n = n;
  job.fn = &fn;
  job.participants = participants;
  job.blocks = std::vector<Impl::Block>(participants);
  for (std::size_t p = 0; p < participants; ++p) {
    job.blocks[p].next.store(n * p / participants, std::memory_order_relaxed);
    job.blocks[p].end = n * (p + 1) / participants;
  }
  job.active.store(participants - 1, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = &job;
    ++impl_->job_serial;
  }
  impl_->wake_cv.notify_all();

  Impl::run_participant(job, 0);  // the caller is participant 0

  {
    std::unique_lock<std::mutex> lock(job.done_mutex);
    job.done_cv.wait(lock, [&] {
      return job.active.load(std::memory_order_acquire) == 0;
    });
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = nullptr;
  }

  stats.threads_used = participants;
  stats.tasks_run = job.tasks.load(std::memory_order_relaxed);
  stats.steals = job.steals.load(std::memory_order_relaxed);
  const ParallelForStats out = finish();
  if (job.has_exception.load(std::memory_order_acquire)) {
    std::rethrow_exception(job.exception);
  }
  return out;
}

ThreadPool& ThreadPool::shared() {
  // Sized so a `threads = 8` request parallelises even when
  // hardware_concurrency() is small; surplus workers sleep.
  static ThreadPool pool(std::max<std::size_t>(
      7, std::thread::hardware_concurrency() == 0
             ? 7
             : std::thread::hardware_concurrency() - 1));
  return pool;
}

std::size_t available_cpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ParallelForStats parallel_for_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    std::size_t threads) {
  if (threads <= 1 || n <= 1) {
    const auto start = std::chrono::steady_clock::now();
    ParallelForStats stats;
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
      ++stats.tasks_run;
    }
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return stats;
  }
  return ThreadPool::shared().for_indexed(n, threads, fn);
}

}  // namespace samurai::util
