#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
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

/// Wait until `value` no longer reads `old` (acquire); return what it reads.
/// Waiting threads park on a futex (after `atomic::wait`'s own brief spin)
/// rather than poll across the serial work between two jobs: a poller
/// keeps its core busy, so another runnable thread, or the host taking the
/// virtual CPU, lands on a participant in mid-task and holds up the whole
/// join. A worker that wakes late costs the join nothing, because the
/// caller withdraws its ticket (see `Ticket`).
template <typename T>
T await_change(const std::atomic<T>& value, T old) {
  for (;;) {
    value.wait(old, std::memory_order_acquire);
    const T now = value.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

}  // namespace

struct ThreadPool::Impl {
  // One contiguous slice of [0, n). `next` is bumped by the owner and by
  // thieves alike; claims at or past `end` are dead. Padded so two
  // participants' cursors never share a cache line.
  struct alignas(64) Block {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };
  // One worker's invitation to the job in flight. The caller rings it
  // (kRung); the worker accepts it (kRung -> kTaken) before it touches the
  // job, or the caller withdraws it (kRung -> kRevoked) once every index
  // has been claimed. Exactly one of the two exchanges wins, so the caller
  // waits only for workers that really joined: a worker that has not woken
  // (parked, or preempted by another process) by then never delays the
  // join.
  enum : std::uint32_t { kIdle = 0, kRung = 1, kTaken = 2, kRevoked = 3 };
  struct alignas(64) Ticket {
    std::atomic<std::uint32_t> state{kIdle};
  };

  explicit Impl(std::size_t worker_count)
      : blocks(worker_count + 1), tickets(worker_count) {}

  // The job in flight. Only one runs at a time (submit_mutex), so its
  // state lives here, sized once: publishing a job allocates nothing.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t participants = 0;       ///< blocks in use; slot 0 is the caller
  std::vector<Block> blocks;          ///< worker_count() + 1
  std::atomic<std::uint32_t> active{0};  ///< rung workers not yet done
  std::atomic<bool> cancelled{false};
  std::atomic<bool> has_exception{false};
  std::exception_ptr exception;        ///< written by the CAS winner only
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> steals{0};

  std::vector<Ticket> tickets;      ///< one per worker
  std::atomic<bool> shutdown{false};
  std::mutex submit_mutex;          ///< serialises whole jobs
  std::vector<std::thread> workers;

  // Drain blocks starting from the participant's own, then steal from the
  // others in round-robin order. Determinism: fn(i) depends only on i, so
  // who runs an index is invisible in the results.
  void run_participant(std::size_t slot) {
    const bool was_inside = t_inside_pool_job;
    t_inside_pool_job = true;
    std::uint64_t done = 0;
    std::uint64_t stolen = 0;
    for (std::size_t probe = 0; probe < participants; ++probe) {
      Block& block = blocks[(slot + probe) % participants];
      for (;;) {
        if (cancelled.load(std::memory_order_relaxed)) goto drained;
        const std::size_t i = block.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= block.end) break;
        ++done;
        if (probe != 0) ++stolen;
        try {
          (*fn)(i);
        } catch (...) {
          bool expected = false;
          if (has_exception.compare_exchange_strong(expected, true)) {
            exception = std::current_exception();
          }
          cancelled.store(true, std::memory_order_release);
        }
      }
    }
  drained:
    t_inside_pool_job = was_inside;
    tasks.fetch_add(done, std::memory_order_relaxed);
    steals.fetch_add(stolen, std::memory_order_relaxed);
  }

  // Worker `index` always takes slot index + 1 (slot 0 is the caller), and
  // only the tickets of workers 0..k-2 ring for a k-participant job, so it
  // runs on the caller plus (at most) the same k-1 workers every time and
  // wakes no one else. Repeated capped jobs thus reuse the same threads and
  // their allocator arenas; were the k-1 slots taken by whichever workers
  // woke first, each run would leave freed memory resident in a different
  // subset of arenas and the process footprint would grow run after run.
  void worker_loop(std::size_t index) {
    std::atomic<std::uint32_t>& ticket = tickets[index].state;
    std::uint32_t seen = kIdle;
    for (;;) {
      seen = await_change(ticket, seen);
      if (shutdown.load(std::memory_order_acquire)) return;
      if (seen != kRung) continue;  // withdrawn before this worker woke
      // The acquire half of a won exchange publishes the job's state.
      if (!ticket.compare_exchange_strong(seen, kTaken,
                                          std::memory_order_acq_rel)) {
        continue;  // withdrawn meanwhile; `seen` now reads kRevoked
      }
      seen = kTaken;
      run_participant(index + 1);
      // The decrement is this worker's last touch of the job: once the
      // caller reads zero it may publish the next one.
      if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        active.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl(workers)) {
  impl_->workers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  impl_->shutdown.store(true, std::memory_order_release);
  // kRung differs from every value a waiting worker last saw, so each one
  // wakes, reads `shutdown` and leaves.
  for (auto& ticket : impl_->tickets) {
    ticket.state.store(Impl::kRung, std::memory_order_release);
    ticket.state.notify_one();
  }
  for (auto& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::worker_count() const noexcept {
  return impl_->workers.size();
}

ParallelForStats ThreadPool::for_indexed(
    std::size_t n, std::size_t max_participants,
    const std::function<void(std::size_t)>& fn) {
  ParallelForStats stats;
  if (n == 0) return stats;

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
    return stats;
  }

  Impl& pool = *impl_;
  pool.fn = &fn;
  pool.participants = participants;
  for (std::size_t p = 0; p < participants; ++p) {
    pool.blocks[p].next.store(n * p / participants, std::memory_order_relaxed);
    pool.blocks[p].end = n * (p + 1) / participants;
  }
  pool.active.store(static_cast<std::uint32_t>(participants - 1),
                    std::memory_order_relaxed);
  pool.cancelled.store(false, std::memory_order_relaxed);
  pool.has_exception.store(false, std::memory_order_relaxed);
  pool.exception = nullptr;
  pool.tasks.store(0, std::memory_order_relaxed);
  pool.steals.store(0, std::memory_order_relaxed);
  // The release store publishes the job to each rung worker.
  const std::size_t rung = participants - 1;
  for (std::size_t w = 0; w < rung; ++w) {
    pool.tickets[w].state.store(Impl::kRung, std::memory_order_release);
    pool.tickets[w].state.notify_one();
  }

  pool.run_participant(0);  // the caller is participant 0

  // Every index is claimed now. Withdraw the tickets no worker has taken
  // yet, then wait only for the workers that joined to finish theirs.
  std::uint32_t revoked = 0;
  for (std::size_t w = 0; w < rung; ++w) {
    std::uint32_t expected = Impl::kRung;
    if (pool.tickets[w].state.compare_exchange_strong(
            expected, Impl::kRevoked, std::memory_order_acq_rel)) {
      ++revoked;
    }
  }
  for (std::uint32_t left =
           pool.active.fetch_sub(revoked, std::memory_order_acq_rel) - revoked;
       left != 0;) {
    left = await_change(pool.active, left);
  }

  stats.threads_used = participants;
  stats.tasks_run = pool.tasks.load(std::memory_order_relaxed);
  stats.steals = pool.steals.load(std::memory_order_relaxed);
  if (pool.has_exception.load(std::memory_order_acquire)) {
    std::exception_ptr error = std::move(pool.exception);
    pool.exception = nullptr;
    std::rethrow_exception(error);
  }
  return stats;
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

std::size_t fan_out_threads() {
  const std::size_t cpus = available_cpus();
  return cpus > 1 ? std::min(ThreadPool::shared().worker_count() + 1, cpus)
                  : 1;
}

ParallelForStats parallel_for_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    std::size_t threads) {
  if (threads <= 1 || n <= 1) {
    ParallelForStats stats;
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
      ++stats.tasks_run;
    }
    return stats;
  }
  return ThreadPool::shared().for_indexed(n, threads, fn);
}

}  // namespace samurai::util
