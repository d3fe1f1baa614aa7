#include "campaign/service/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"

namespace samurai::campaign {

void ServeOptions::validate() const {
  if (dir.empty()) {
    throw std::invalid_argument("serve: campaign --dir is required");
  }
  if (!(lease_ttl > 0.0)) {
    throw std::invalid_argument("serve: --lease-ttl must be positive");
  }
  if (!(poll_seconds > 0.0)) {
    throw std::invalid_argument("serve: --poll must be positive");
  }
}

std::string ServiceStatus::to_json() const {
  JsonWriter json;
  result.write_fields(json);
  json.add_u64("svc_shards_total", shards_total);
  json.add_u64("svc_shards_completed", shards_completed);
  json.add_u64("svc_shards_folded", result.shards_done);
  json.add_u64("svc_leases_active", leases_active);
  json.add_u64("svc_leases_reclaimed", leases_reclaimed);
  json.add("svc_oldest_lease_age", oldest_lease_age);
  json.add_u64("svc_workers", workers.size());
  std::string detail = "[";
  for (const auto& view : workers) {
    if (detail.size() > 1) detail += ", ";
    JsonWriter row;
    row.add("worker", view.worker.empty() ? "(local)" : view.worker);
    row.add_u64("shards", view.shards);
    row.add_u64("samples", view.samples);
    row.add("wall_seconds", view.wall_seconds);
    row.add("samples_per_second", view.samples_per_second());
    detail += row.str();
  }
  detail += "]";
  json.add_raw("svc_worker_detail", detail);
  return json.str();
}

namespace {

std::vector<WorkerView> aggregate_workers(
    const std::vector<ShardResult>& ledger) {
  std::map<std::string, WorkerView> by_id;
  for (const auto& shard : ledger) {
    WorkerView& view = by_id[shard.worker];
    view.worker = shard.worker;
    ++view.shards;
    view.samples += shard.samples;
    view.wall_seconds += shard.wall_seconds;
  }
  std::vector<WorkerView> out;
  out.reserve(by_id.size());
  for (auto& [id, view] : by_id) out.push_back(std::move(view));
  return out;
}

void print_watch(std::ostream& out, const ServiceStatus& status) {
  const CampaignResult& result = status.result;
  out << "[serve " << result.manifest.name << "] shards "
      << status.shards_completed << "/" << status.shards_total << " (folded "
      << result.shards_done << ")  samples " << result.samples_done << "/"
      << result.manifest.budget << "  estimate " << result.estimate
      << "  rel-CI-half-width " << result.relative_half_width << "\n";
  for (const auto& view : status.workers) {
    out << "  worker " << (view.worker.empty() ? "(local)" : view.worker)
        << ": " << view.shards << " shards, " << view.samples << " samples, "
        << view.samples_per_second() << " samples/s\n";
  }
  for (const auto& observed : status.leases) {
    out << "  lease shard " << observed.lease.shard << " -> "
        << observed.lease.worker << " (age " << observed.age_seconds << " s"
        << (observed.expired ? ", EXPIRED" : "") << ", "
        << observed.lease.heartbeats << " heartbeats)\n";
  }
  const auto print = [&out](const char* key, auto value) {
    if (value != 0) out << "  " << key << " " << value;
  };
  for (const auto& c : spice::kSolverCounters) {
    print(c.key, result.solver.*c.field);
  }
  for (const auto& c : core::kUniformisationCounts) {
    print(c.key, result.rtn.*c.field);
  }
  for (const auto& c : core::kUniformisationSums) {
    print(c.key, result.rtn.*c.field);
  }
  out << "  reclaimed " << status.leases_reclaimed << "\n";
}

}  // namespace

ServiceStatus coordinator_tick(const std::string& dir, double lease_ttl,
                               std::uint64_t reclaimed_so_far) {
  Checkpoint checkpoint(dir);
  const Manifest manifest = checkpoint.load_manifest();
  LeaseDir leases(dir, lease_ttl);

  ServiceStatus status;
  status.leases_reclaimed = reclaimed_so_far + leases.reclaim_expired();

  const auto ledger = checkpoint.load_ledger();
  status.result = fold_ledger(manifest, ledger);
  status.shards_total = manifest.shard_count();
  status.shards_completed = ledger.size();
  status.workers = aggregate_workers(ledger);
  status.leases = leases.observe();
  for (const auto& observed : status.leases) {
    if (!observed.expired) ++status.leases_active;
    status.oldest_lease_age =
        std::max(status.oldest_lease_age, observed.age_seconds);
  }

  write_file_atomic(checkpoint.status_path(), status.to_json() + "\n");
  return status;
}

ServiceStatus serve_campaign(const ServeOptions& options) {
  options.validate();
  const auto started = std::chrono::steady_clock::now();
  std::uint64_t reclaimed = 0;
  for (;;) {
    ServiceStatus status =
        coordinator_tick(options.dir, options.lease_ttl, reclaimed);
    reclaimed = status.leases_reclaimed;
    if (options.watch && options.out) print_watch(*options.out, status);
    if (status.result.complete) return status;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    if (options.max_wall_seconds > 0.0 &&
        elapsed > options.max_wall_seconds) {
      return status;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.poll_seconds));
  }
}

}  // namespace samurai::campaign
