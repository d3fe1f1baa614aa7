// The campaign service worker: claim a shard, run it, append, repeat.
//
// `samurai_campaign work --dir` turns any process with access to the
// campaign directory into an elastic worker, and `run`/`resume` are one
// in-process worker (empty id) followed by one coordinator tick. Each loop
// iteration reads the ledger bytes appended since the last iteration,
// re-evaluates the stopping rule on the folded contiguous prefix (so
// workers stop claiming the moment the campaign's sequential decision is
// reachable), claims the lowest unfinished shard whose lease is free or
// expired, runs it through the ordinary `run_shard` engine while the
// worker's one heartbeat thread renews the lease, appends the one-line
// result durably, and releases the lease. Workers never write
// manifest.json or status.json — the ledger append is their only mutation
// of shared estimator state, which is what makes any number of them safe.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace samurai::campaign {

struct WorkerOptions {
  std::string dir;        ///< campaign directory (required)
  std::string worker_id;  ///< "" = run/resume's in-process worker, whose
                          ///< ledger lines carry no `worker` key
  double lease_ttl = 30.0;     ///< seconds without heartbeat until stealable
  double poll_seconds = 0.2;   ///< sleep when every open shard is leased
  std::uint64_t max_shards = 0;    ///< run at most this many (0 = no cap)
  double max_wall_seconds = 0.0;   ///< give up after this long (0 = never);
                                   ///< the CI bound for fault-injection runs
  std::ostream* progress = nullptr;  ///< one line per shard (nullptr = quiet)

  /// Throws std::invalid_argument on an unusable configuration (empty
  /// dir, non-positive ttl/poll, or a worker id that cannot live inside
  /// a flat-JSON lease file / ledger line).
  void validate() const;
};

struct WorkerReport {
  std::string worker_id;
  std::uint64_t shards_run = 0;
  std::uint64_t samples_run = 0;
  std::uint64_t leases_lost = 0;  ///< renewals that found the lease stolen
  std::uint64_t leases_reclaimed = 0;  ///< expired leases this worker stole
  bool campaign_complete = false;  ///< budget exhausted or early-stopped
  bool timed_out = false;          ///< max_wall_seconds elapsed first
  double wall_seconds = 0.0;

  std::string to_json() const;  ///< one machine-readable summary line
};

/// Run the worker loop until the campaign completes, `max_shards` is
/// reached, or `max_wall_seconds` elapses. Throws on configuration or
/// unrecoverable I/O errors; lease races are handled, not thrown.
WorkerReport run_worker(const WorkerOptions& options);

}  // namespace samurai::campaign
