// The four benchmark workloads and what each run reports.
//
// A run without tracing measures the end-to-end metrics through the
// library's public entry points. A traced run re-composes the same work
// from the public per-layer calls (pipeline.hpp), checks it reproduces the
// entry point bit for bit, and reports the per-layer split.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "options.hpp"
#include "trace.hpp"

namespace perfbench {

bool is_workload(const std::string& name);

/// Workloads that run on one thread (pinned to one core).
bool is_single_threaded(const std::string& workload);

struct Context {
  Options options;
  std::size_t threads = 1;  ///< N = min(4, nproc) for the parallel workloads
  std::vector<int> cpus;    ///< cores the process is pinned to
  double process_start = 0.0;
  std::string run_dir;      ///< private work directory of this process
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Everything else the run records: configuration, digests of the
  /// simulated outputs, percentile bases, observed thread use.
  samurai::campaign::JsonWriter details;
  std::vector<Span> spans;  ///< traced runs: exported as a Chrome trace
  double trace_origin = 0.0;
};

RunReport run_methodology(const Context& ctx);
RunReport run_campaign(const Context& ctx, bool batched);
RunReport run_array(const Context& ctx);

}  // namespace perfbench
