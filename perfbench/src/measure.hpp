// Timing loops, summary statistics, output digests and the metric tables
// shared by the workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/uniformisation.hpp"
#include "pipeline.hpp"
#include "spice/analysis.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs `setup` `repeats` times and returns the median duration, seconds.
/// The first repetition is timed from process start, so process-level
/// start-up (and anything a later change moves into set-up) counts.
double median_setup(const Context& ctx, int repeats,
                    const std::function<void()>& setup);

/// Runs `unit(i)` for i = 0, 1, ... and returns what each call returned:
/// the seconds of its own timed work (a unit may do untimed checks after
/// it). A unit starts only while the run is expected to end within
/// `seconds` of wall time, but at least `min_units` run.
std::vector<double> timed_units(double seconds, std::size_t min_units,
                                const std::function<double(std::size_t)>& unit);

double median(std::vector<double> values);

/// The fastest of the times in `seconds` that share a key, per key:
/// entry i of `seconds` has key `keys[i]`, a key below `key_count`. Each
/// run repeats a fixed set of units, and on a shared host the fastest
/// repeat of a unit is the one other tenants disturbed least.
std::vector<double> best_per_key(const std::vector<double>& seconds,
                                 const std::vector<std::size_t>& keys,
                                 std::size_t key_count);

/// The highest whole percentile with at least ten values beyond it
/// (nearest rank); the maximum when fewer than twenty values exist.
struct Tail {
  double value = 0.0;
  int percentile = 100;  ///< 100 = the maximum
};
Tail tail(std::vector<double> values);

/// The end-to-end metrics: set-up, median unit latency (ms) over the
/// distinct units' best times, throughput in simulated samples per second,
/// and peak memory. Records the latency tail over every timed unit, its
/// percentile and the counts in `report.details`.
void add_end_to_end(RunReport& report, double setup_s,
                    const std::vector<double>& best_seconds,
                    const std::vector<double>& all_seconds,
                    double samples_per_s);

/// FNV-1a over the bits of simulated outputs: equal digests on equal
/// seeds show a change left the simulated statistics alone.
class Digest {
 public:
  void add(double value);
  void add(std::uint64_t value);
  std::uint64_t value() const noexcept { return state_; }
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Everything the per-layer table is computed from, for `units` units of
/// a workload (every *_ms and count is reported per unit).
struct LayerInputs {
  PipelineCounts counts;            ///< filled by the traced pipeline
  std::vector<Span> spans;
  double units = 1.0;
  double traced_wall = 0.0;    ///< seconds, the traced re-composition
  double untraced_wall = 0.0;  ///< seconds, the same work untraced
  spice::SolverStats solver;        ///< snapshot delta, traced region
  core::UniformisationStats rtn;    ///< snapshot delta, traced region
  double cpu_utilisation = 0.0;
  double failed_share = 0.0;
};

/// The per-layer metrics, in BENCHMARK.json order; also records the
/// coverage bases in `report.details`.
void add_per_layer(RunReport& report, const LayerInputs& in);

/// Removes `path` (recursively) if present; never throws.
void remove_tree(const std::string& path) noexcept;

}  // namespace perfbench
