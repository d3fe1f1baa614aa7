// Host facts and controls the benchmark records: clocks, CPU time, peak
// memory, and core pinning.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_seconds();

/// CPU time consumed by every thread of the process so far, seconds.
double process_cpu_seconds();

/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

/// CPUs this process may run on (the `nproc` set), ascending.
std::vector<int> allowed_cpus();

/// Restrict every current thread of the process (and so every thread it
/// creates later) to `cpus`. Throws std::runtime_error on failure.
void pin_process(const std::vector<int>& cpus);

/// Threads the process currently has (from /proc/self/task).
std::size_t live_threads();

/// "0,1,2,3"
std::string join_cpus(const std::vector<int>& cpus);

}  // namespace perfbench
