#include "campaign/service/worker.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "campaign/service/lease.hpp"

namespace samurai::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// Renews the lease it is handed every `period` seconds, on one background
/// thread that lives as long as the worker: `watch` hands it the lease of
/// the shard about to run, `unwatch` takes the lease back. A renewal runs
/// under the mutex, so none is in flight once `unwatch` returns and the
/// caller may release the lease file. Joined, never detached.
class Heartbeat {
 public:
  Heartbeat(LeaseDir& leases, double period) : leases_(leases) {
    thread_ = std::thread(
        [this, period] { run(std::chrono::duration<double>(period)); });
  }

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Start renewing `lease`; the heartbeat must not hold one.
  void watch(Lease lease) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      lease_ = std::move(lease);
    }
    cv_.notify_all();
  }

  /// Stop renewing. Returns the lease, or nullopt if a renewal found it
  /// stolen or failed with an I/O error (either way the lease is lost).
  std::optional<Lease> unwatch() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(lease_, std::nullopt);
  }

 private:
  void run(std::chrono::duration<double> period) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return quit_ || lease_.has_value(); });
      if (quit_) return;
      // A lease handed over mid-wait is renewed early, which is harmless.
      if (cv_.wait_for(lock, period, [this] { return quit_ || !lease_; })) {
        continue;
      }
      bool renewed = false;
      try {
        renewed = leases_.renew(*lease_);
      } catch (const std::exception&) {
        renewed = false;  // an I/O failure counts as a lost lease
      }
      // Stolen: stop touching a file that is no longer ours.
      if (!renewed) lease_.reset();
    }
  }

  LeaseDir& leases_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Lease> lease_;  ///< the lease being renewed, if any
  bool quit_ = false;
  std::thread thread_;
};

}  // namespace

void WorkerOptions::validate() const {
  if (dir.empty()) {
    throw std::invalid_argument("worker: campaign --dir is required");
  }
  if (!(lease_ttl > 0.0)) {
    throw std::invalid_argument("worker: --lease-ttl must be positive");
  }
  if (!(poll_seconds > 0.0)) {
    throw std::invalid_argument("worker: --poll must be positive");
  }
  for (char ch : worker_id) {
    // The id is embedded in flat-JSON lease files and ledger lines; keep
    // it printable and free of the writer's escape/separator characters.
    if (ch == '"' || ch == '\\' || ch == '/' ||
        static_cast<unsigned char>(ch) < 0x21) {
      throw std::invalid_argument(
          "worker: --worker-id must be printable without spaces, quotes, "
          "backslashes or slashes");
    }
  }
}

std::string WorkerReport::to_json() const {
  JsonWriter json;
  json.add("worker", worker_id);
  json.add_u64("svc_shards_run", shards_run);
  json.add_u64("svc_samples_run", samples_run);
  json.add_u64("svc_leases_lost", leases_lost);
  json.add_u64("svc_leases_reclaimed", leases_reclaimed);
  json.add("svc_campaign_complete", campaign_complete);
  json.add("svc_timed_out", timed_out);
  json.add("wall_seconds", wall_seconds);
  return json.str();
}

WorkerReport run_worker(const WorkerOptions& options) {
  options.validate();

  const Checkpoint checkpoint(options.dir);
  const Manifest manifest = checkpoint.load_manifest();
  manifest.validate();
  LeaseDir leases(options.dir, options.lease_ttl);
  Heartbeat heartbeat(leases, options.lease_ttl / 3.0);

  const auto started = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - started).count();
  };

  WorkerReport report;
  report.worker_id = options.worker_id;

  std::vector<ShardResult> ledger;
  std::uint64_t ledger_offset = 0;
  std::optional<std::uint64_t> last_run;  // shard awaiting its progress line
  for (;;) {
    ledger_offset = checkpoint.read_ledger(ledger_offset, ledger);
    const CampaignResult folded = fold_ledger(manifest, ledger);
    if (last_run && options.progress) {
      print_progress(*options.progress, options.worker_id, *last_run, folded);
    }
    last_run.reset();
    if (folded.complete) {
      report.campaign_complete = true;
      break;
    }
    if (options.max_shards != 0 && report.shards_run >= options.max_shards) {
      break;
    }
    if (options.max_wall_seconds > 0.0 &&
        elapsed() > options.max_wall_seconds) {
      report.timed_out = true;
      break;
    }

    // Lowest-index-first keeps the contiguous prefix growing, which is
    // what advances the stopping rule; it also means gaps left by dead
    // workers are the first thing a live worker goes after.
    bool claimed = false;
    for (std::uint64_t i = folded.shards_done; i < manifest.shard_count(); ++i) {
      if (std::ranges::binary_search(ledger, i, {}, &ShardResult::index)) {
        continue;  // done
      }
      auto lease = leases.try_claim(i, options.worker_id);
      if (!lease) continue;
      claimed = true;

      heartbeat.watch(std::move(*lease));
      ShardResult shard = run_shard(manifest, shard_spec(manifest, i));
      shard.worker = options.worker_id;
      lease = heartbeat.unwatch();
      // A lost lease means we were presumed dead and our shard re-assigned.
      // Our result is bit-identical to the thief's, so append it anyway —
      // the fold dedupes — but leave the thief's lease file alone.
      if (!lease) ++report.leases_lost;
      checkpoint.append_ledger(shard);
      if (lease) leases.release(*lease);
      ++report.shards_run;
      report.samples_run += shard.samples;
      last_run = i;
      break;  // re-read the ledger before choosing the next shard
    }

    if (!claimed) {
      // Everything open is leased to live workers (or the directory just
      // changed under us): wait and re-scan.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.poll_seconds));
    }
  }

  report.leases_reclaimed = leases.reclaimed();
  report.wall_seconds = elapsed();
  return report;
}

}  // namespace samurai::campaign
