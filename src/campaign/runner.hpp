// The campaign runner: streaming fold, early stopping, and the `run`,
// `resume` and `status` entry points.
//
// The campaign state is the fold of the shard ledger *in shard order*,
// re-applying the sequential stopping rule after each shard. With a
// checkpoint directory, `run` is `init` plus `resume`, and `resume` is one
// in-process service worker (service/worker.hpp) plus one coordinator tick
// (service/coordinator.hpp). Because the fold order is fixed and shard
// contents depend only on (manifest, shard index), a campaign killed after
// any shard and resumed, or shared with any set of `work` processes,
// reproduces the uninterrupted run bit-identically, including where the
// stopping rule fires. Without a directory, `run` folds in memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/accumulator.hpp"
#include "campaign/manifest.hpp"
#include "campaign/shard.hpp"

namespace samurai::campaign {

class JsonWriter;

struct RunOptions {
  /// Checkpoint directory; empty = run in memory (no resume possible).
  std::string dir;
  /// Execute at most this many *new* shards this invocation (0 = no cap).
  /// Used to simulate a kill in tests and to budget long sessions.
  std::uint64_t max_shards_this_run = 0;
  /// Stream one print_progress line per shard (nullptr = silent).
  std::ostream* progress = nullptr;
};

struct CampaignResult {
  Manifest manifest;
  std::uint64_t shards_done = 0;
  std::uint64_t samples_done = 0;
  bool complete = false;       ///< budget exhausted or early-stopped
  bool stopped_early = false;  ///< sequential rule fired below budget
  std::uint64_t budget_saved = 0;  ///< budget - samples_done when stopped
  double wall_seconds = 0.0;       ///< summed shard wall time (ledger)
  spice::SolverStats solver;       ///< summed per-shard solver counters
  core::UniformisationStats rtn;   ///< summed per-shard sampler counters

  // Folded streaming state (all kinds; unused accumulators stay empty).
  WeightedFailure weighted;
  Binomial fails;
  Binomial nominal_fails;
  Binomial slow;
  Welford value;

  // Kind-primary estimate: importance → weighted failure probability,
  // array-yield → RTN-only bit-error rate (Wilson CI), vmin → mean V_min.
  double estimate = 0.0;
  double standard_error = 0.0;
  Interval ci;
  double relative_half_width = 0.0;  ///< ci half-width / estimate (inf if 0)
  double effective_sample_size = 0.0;

  /// The machine-readable summary line.
  std::string to_json() const;
  /// The same fields appended to a caller-owned writer, so composed
  /// documents (the service's status.json) can extend rather than wrap.
  void write_fields(JsonWriter& json) const;
};

/// Fold `ledger` (as returned by Checkpoint::load_ledger: index-sorted,
/// deduplicated) without executing anything. Folds the *contiguous* shard
/// prefix from shard 0 — never past a gap left by a still-running or dead
/// worker — re-applying the sequential stopping rule at each shard, so
/// the estimate, CI and stopping decision are bit-identical to the
/// single-process run over the same prefix regardless of which workers
/// appended which lines in which order.
CampaignResult fold_ledger(const Manifest& manifest,
                           const std::vector<ShardResult>& ledger);

/// The one progress line of `run`, `resume` and `work`, printed after
/// shard `shard` completes: the worker id ("" prints as `(local)`) and the
/// campaign's folded prefix as that worker sees it.
void print_progress(std::ostream& out, const std::string& worker_id,
                    std::uint64_t shard, const CampaignResult& folded);

/// Run `manifest` from scratch. With a checkpoint dir this is
/// Checkpoint::init (an existing ledger in the dir is an error: resume
/// instead) followed by resume_campaign.
CampaignResult run_campaign(const Manifest& manifest,
                            const RunOptions& options = {});

/// Continue the campaign in `options.dir`: one in-process worker runs the
/// shards missing from the ledger, sharing them with any `work` processes
/// through leases; then one coordinator tick folds it into status.json.
CampaignResult resume_campaign(const RunOptions& options);

/// Fold the ledger without executing anything: the current state of a
/// (possibly running or interrupted) campaign.
CampaignResult campaign_status(const std::string& dir);

}  // namespace samurai::campaign
