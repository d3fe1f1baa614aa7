// The campaign service coordinator: reclaim, fold, publish.
//
// `samurai_campaign serve --dir` watches a campaign directory that any
// number of worker processes are appending to. Each tick it (1) reaps
// expired leases so shards owned by dead workers return to the pool,
// (2) folds the ledger's contiguous shard prefix through the ordinary
// `fold_ledger` engine — bit-identical to the single-process fold,
// including where the stopping rule fires — and (3) publishes the result
// as `status.json`: the campaign summary extended with `svc_*` service
// counters and a per-worker throughput table. `run`/`resume` end with one
// tick, so every checkpointed run leaves a status.json behind. The
// coordinator holds no exclusive state: killing it loses nothing, and
// restarting it re-derives everything from the directory. It is an
// observer/janitor, not a scheduler — workers self-assign via leases, so
// the campaign also completes with no coordinator at all.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/service/lease.hpp"

namespace samurai::campaign {

struct ServeOptions {
  std::string dir;            ///< campaign directory (required)
  double lease_ttl = 30.0;    ///< must match the workers' ttl scale
  double poll_seconds = 0.5;  ///< tick period
  double max_wall_seconds = 0.0;  ///< stop serving after this long (0 =
                                  ///< until the campaign completes)
  bool watch = false;             ///< live view on `out` every tick
  std::ostream* out = nullptr;    ///< watch/progress stream (nullptr = quiet)

  void validate() const;  ///< throws std::invalid_argument
};

/// Per-worker aggregate over the ledger (attribution via ShardResult::worker).
struct WorkerView {
  std::string worker;  ///< "" = shards run by `run`/`resume`
  std::uint64_t shards = 0;
  std::uint64_t samples = 0;
  double wall_seconds = 0.0;
  double samples_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(samples) / wall_seconds
                              : 0.0;
  }
};

/// One coordinator observation of the campaign directory.
struct ServiceStatus {
  CampaignResult result;  ///< folded contiguous prefix (stopping rule applied)
  std::uint64_t shards_total = 0;
  std::uint64_t shards_completed = 0;  ///< distinct ledger lines, gaps included
  std::uint64_t leases_active = 0;     ///< live (unexpired) lease files
  std::uint64_t leases_reclaimed = 0;  ///< cumulative, this coordinator
  double oldest_lease_age = 0.0;       ///< seconds; 0 when no leases
  std::vector<WorkerView> workers;     ///< sorted by worker id
  std::vector<LeaseDir::Observed> leases;  ///< live view of lease files

  std::string to_json() const;  ///< status.json payload (svc_* keys)
};

/// One coordinator pass over `dir`: reap expired leases, fold the ledger,
/// publish status.json. Stateless apart from the cumulative reclaim
/// counter carried via `reclaimed_so_far`.
ServiceStatus coordinator_tick(const std::string& dir, double lease_ttl,
                               std::uint64_t reclaimed_so_far = 0);

/// Serve until the campaign completes or `max_wall_seconds` elapses,
/// ticking every `poll_seconds`. Returns the final observation.
ServiceStatus serve_campaign(const ServeOptions& options);

}  // namespace samurai::campaign
