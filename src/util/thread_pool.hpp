// Shared work-stealing executor for the Monte-Carlo paths.
//
// Every parallel loop in the library is an *indexed* loop whose body
// depends only on (config, index) — per-cell array simulation, per-sample
// importance sampling, per-point V_min sweeps, per-trap RTN generation —
// because all randomness derives from `Rng::split(index)`. Scheduling can
// therefore never change a result, only the wall time. This header
// provides the one executor those loops share:
//
//  * `ThreadPool` — a persistent pool of workers woken per job. Each job
//    partitions [0, n) into one contiguous block per participant; a
//    participant drains its own block first and then *steals* from the
//    other blocks, so imbalanced work (cells that converge slowly, biased
//    samples that fail) cannot idle the fast participants. A job with k
//    participants runs on the caller plus at most the same k-1 workers,
//    and wakes only those. Publishing a job allocates nothing, and the
//    caller never waits for a worker that has not joined by the time every
//    index is claimed (it withdraws that worker's invitation), so a
//    fork-join is cheap enough to run every Newton iteration (the
//    transient sweeps of DESIGN.md §15) and a worker that is slow to wake,
//    or preempted by another process, cannot hold the join up. Idle
//    threads park instead of polling, leaving the cores to the ones at
//    work.
//  * `parallel_for_indexed(n, fn, threads)` — the convenience entry point
//    used by the adopters. `threads <= 1` runs the plain serial loop on
//    the calling thread.
//
// Contracts:
//  * The *first* exception thrown by any task is captured, remaining work
//    is cancelled, and the exception is rethrown on the calling thread
//    after all participants finish. Worker exceptions can never reach
//    `std::terminate`.
//  * Nested or concurrent `for_indexed` calls degrade gracefully to the
//    serial path instead of deadlocking on the busy pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace samurai::util {

/// Per-run execution statistics (observability for the benches).
struct ParallelForStats {
  std::size_t threads_used = 1;  ///< participants offered, incl. the caller
  std::uint64_t tasks_run = 0;   ///< indices executed (== n unless cancelled)
  std::uint64_t steals = 0;      ///< tasks run by a non-owning participant
};

class ThreadPool {
 public:
  /// A pool with `workers` sleeping worker threads (callers participate in
  /// jobs too, so `workers + 1` threads can run tasks at once).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept;

  /// Run `fn(i)` for every i in [0, n) on the calling thread plus up to
  /// `max_participants - 1` pool workers; blocks until every index has
  /// completed (or been cancelled by an exception). The first exception is
  /// rethrown here. `max_participants == 0` means "use the whole pool".
  ParallelForStats for_indexed(std::size_t n, std::size_t max_participants,
                               const std::function<void(std::size_t)>& fn);

  /// The process-wide pool shared by every adopter. Sized so that a
  /// `threads = 8` request is honoured even on small machines (idle
  /// workers just sleep on a condition variable).
  static ThreadPool& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The number of CPUs this process may run on: the sched_getaffinity
/// count, or hardware_concurrency() where that is unavailable; at least 1.
std::size_t available_cpus();

/// Threads a library fan-out uses: min(shared pool workers + 1,
/// available_cpus()). On one CPU it is 1 and the pool is never started.
std::size_t fan_out_threads();

/// Run `fn(i)` for i in [0, n) on `threads` threads (the shared pool plus
/// the calling thread). `threads <= 1` is the exact serial loop. Results
/// must depend only on (captured state, index) — see the determinism rule
/// in DESIGN.md §8.
ParallelForStats parallel_for_indexed(std::size_t n,
                                      const std::function<void(std::size_t)>& fn,
                                      std::size_t threads);

/// parallel_for_indexed over `chunks` for a callable of any size: the
/// one-reference capture fits std::function's local buffer, so a sweep
/// allocates nothing (the partitioned transient and the grouped sparse LU
/// run several per Newton iteration).
template <typename Fn>
void sweep(std::size_t chunks, std::size_t threads, const Fn& fn) {
  parallel_for_indexed(
      chunks, [&fn](std::size_t chunk) { fn(chunk); }, threads);
}

}  // namespace samurai::util
