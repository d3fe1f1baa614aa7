// Campaign shards: the unit of execution, checkpointing and resumption.
//
// A campaign's sample budget [0, budget) is cut into fixed-size shards;
// shard i covers the contiguous global index range [i·S, min((i+1)·S, N)).
// The determinism contract is inherited from the library's executor rule
// (DESIGN.md §8): sample n depends only on (manifest, n) through
// `Rng(seed).split(n + 1)`, so the shard partition — like the thread
// schedule — can never change a result, only when it is computed. That is
// what lets a resumed campaign replay completed shards from the ledger and
// continue bit-identically to an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/accumulator.hpp"
#include "campaign/manifest.hpp"
#include "core/uniformisation.hpp"
#include "spice/analysis.hpp"
#include "sram/array.hpp"
#include "sram/importance.hpp"
#include "sram/vmin.hpp"

namespace samurai::campaign {

class JsonWriter;

/// Appends every solver and sampler counter under its table key, in table
/// order: the `nw_`…`rtn_` block of ledger lines and summaries.
void write_counters(JsonWriter& json, const spice::SolverStats& solver,
                    const core::UniformisationStats& rtn);

struct ShardSpec {
  std::uint64_t index = 0;  ///< shard number
  std::uint64_t first = 0;  ///< first global sample index
  std::uint64_t count = 0;  ///< samples in this shard
};

/// The shard range for `shard_index` of `manifest` (last shard may be
/// partial). Throws std::out_of_range past the end.
ShardSpec shard_spec(const Manifest& manifest, std::uint64_t shard_index);

/// Streaming result of one shard: every campaign kind folds into the same
/// accumulator set (unused ones stay empty), which keeps the ledger schema
/// uniform. Accumulation within a shard is serial in global sample order.
struct ShardResult {
  std::uint64_t index = 0;
  std::uint64_t samples = 0;
  /// Campaign-service worker that ran the shard ("" for single-process
  /// runs; the coordinator's per-worker throughput view groups by this).
  /// Attribution only — never estimator state.
  std::string worker;
  WeightedFailure weighted;  ///< importance: LR-weighted failures
  Binomial fails;          ///< primary Bernoulli (array: RTN-only errors;
                           ///< vmin: replicas with no RTN V_min in range)
  Binomial nominal_fails;  ///< array: nominal errors; vmin: no nominal V_min
  Binomial slow;           ///< array: slow cells
  Welford value;           ///< vmin: V_min_rtn (V); array: traps per cell
  double wall_seconds = 0.0;  ///< observability only; not estimator state
  /// SPICE solver work done by this shard (process-wide snapshot delta;
  /// valid because shards execute one at a time). Observability only.
  spice::SolverStats solver;
  /// Algorithm-1 sampler work done by this shard (same snapshot-delta
  /// scheme; `rtn_*` ledger keys). Observability only.
  core::UniformisationStats rtn;

  std::string to_json() const;  ///< one ledger line
  static ShardResult from_json(const std::string& line);  ///< throws
};

/// Execute one shard: map samples on the shared executor with
/// `manifest.threads` workers, then reduce in index order.
ShardResult run_shard(const Manifest& manifest, const ShardSpec& spec);

// Manifest → concrete workload configs (used by run_shard and exposed so
// tests and adopters can cross-check against the in-process estimators).
sram::MethodologyConfig cell_config_from(const Manifest& manifest);
sram::ImportanceConfig importance_config_from(const Manifest& manifest);
sram::ArrayConfig array_config_from(const Manifest& manifest);
/// Config for V_min replica `replica` (its own trap-population stream).
sram::VminConfig vmin_config_from(const Manifest& manifest,
                                  std::uint64_t replica);

}  // namespace samurai::campaign
