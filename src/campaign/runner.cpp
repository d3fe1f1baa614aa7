#include "campaign/runner.hpp"

#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/worker.hpp"

namespace samurai::campaign {

namespace {

void fold(CampaignResult& result, const ShardResult& shard) {
  result.weighted.merge(shard.weighted);
  result.fails.merge(shard.fails);
  result.nominal_fails.merge(shard.nominal_fails);
  result.slow.merge(shard.slow);
  result.value.merge(shard.value);
  result.samples_done += shard.samples;
  result.wall_seconds += shard.wall_seconds;
  result.solver.merge(shard.solver);
  result.rtn.merge(shard.rtn);
  ++result.shards_done;
}

void refresh_estimate(CampaignResult& result) {
  const double z = result.manifest.confidence_z;
  switch (result.manifest.kind) {
    case CampaignKind::kImportance:
      result.estimate = result.weighted.probability();
      result.standard_error = result.weighted.standard_error();
      result.ci = result.weighted.normal_interval(z);
      result.effective_sample_size = result.weighted.effective_sample_size();
      break;
    case CampaignKind::kArrayYield:
      result.estimate = result.fails.rate();
      result.ci = result.fails.wilson_interval(z);
      result.standard_error = result.ci.half_width() / z;
      result.effective_sample_size = static_cast<double>(result.fails.count);
      break;
    case CampaignKind::kVmin:
      result.estimate = result.value.mean;
      result.standard_error = result.value.standard_error();
      result.ci = result.value.normal_interval(z);
      result.effective_sample_size = static_cast<double>(result.value.count);
      break;
  }
  result.relative_half_width =
      result.estimate > 0.0 && result.samples_done > 0
          ? result.ci.half_width() / result.estimate
          : std::numeric_limits<double>::infinity();
}

/// Sequential stopping rule, evaluated at shard boundaries only (so the
/// decision sequence is a pure function of the folded shard prefix).
bool should_stop(const CampaignResult& result) {
  const Manifest& manifest = result.manifest;
  if (manifest.target_rel_half_width <= 0.0) return false;
  if (result.samples_done < manifest.min_samples) return false;
  // A zero/degenerate interval means "no information yet" (no failures
  // observed, or a single V_min replica), not a settled estimate.
  if (!(result.estimate > 0.0) || !(result.standard_error > 0.0)) return false;
  return result.relative_half_width <= manifest.target_rel_half_width;
}

void finalise(CampaignResult& result) {
  if (result.stopped_early || result.samples_done >= result.manifest.budget) {
    result.complete = true;
  }
  result.budget_saved =
      result.stopped_early ? result.manifest.budget - result.samples_done : 0;
}

}  // namespace

CampaignResult fold_ledger(const Manifest& manifest,
                           const std::vector<ShardResult>& ledger) {
  CampaignResult result;
  result.manifest = manifest;
  for (const auto& shard : ledger) {
    if (shard.index != result.shards_done) break;  // contiguous prefix only
    fold(result, shard);
    refresh_estimate(result);
    if (should_stop(result)) {
      result.stopped_early = true;
      break;
    }
  }
  refresh_estimate(result);
  finalise(result);
  return result;
}

std::string CampaignResult::to_json() const {
  JsonWriter json;
  write_fields(json);
  return json.str();
}

void CampaignResult::write_fields(JsonWriter& json) const {
  json.add("kind", to_string(manifest.kind));
  json.add("name", manifest.name);
  json.add("status", stopped_early ? "stopped_early"
                     : complete    ? "complete"
                                   : "paused");
  json.add_u64("shards_done", shards_done);
  json.add_u64("shard_count", manifest.shard_count());
  json.add_u64("budget", manifest.budget);
  json.add_u64("budget_used", samples_done);
  json.add_u64("budget_saved", budget_saved);
  json.add("estimate", estimate);
  json.add("standard_error", standard_error);
  json.add("ci_lo", ci.lo);
  json.add("ci_hi", ci.hi);
  json.add("relative_half_width", relative_half_width);
  json.add("effective_sample_size", effective_sample_size);
  json.add_u64("failures", manifest.kind == CampaignKind::kImportance
                               ? weighted.failures
                               : fails.successes);
  json.add("wall_seconds", wall_seconds);
  write_counters(json, solver, rtn);
  json.add("rtn_envelope_efficiency", rtn.envelope_efficiency());
}

void print_progress(std::ostream& out, const std::string& worker_id,
                    std::uint64_t shard, const CampaignResult& folded) {
  out << "[campaign " << folded.manifest.name << "] "
      << (worker_id.empty() ? "(local)" : worker_id) << " shard " << shard
      << "  samples " << folded.samples_done << "/" << folded.manifest.budget
      << "  estimate " << folded.estimate << "  rel-CI-half-width "
      << folded.relative_half_width << "\n";
}

CampaignResult run_campaign(const Manifest& manifest,
                            const RunOptions& options) {
  manifest.validate();
  if (!options.dir.empty()) {
    Checkpoint(options.dir).init(manifest);
    return resume_campaign(options);
  }
  std::vector<ShardResult> ledger;
  CampaignResult result = fold_ledger(manifest, ledger);
  while (!result.complete && (options.max_shards_this_run == 0 ||
                              ledger.size() < options.max_shards_this_run)) {
    ledger.push_back(run_shard(manifest, shard_spec(manifest, ledger.size())));
    result = fold_ledger(manifest, ledger);
    if (options.progress) {
      print_progress(*options.progress, "", ledger.back().index, result);
    }
  }
  return result;
}

CampaignResult resume_campaign(const RunOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument("resume_campaign: checkpoint dir required");
  }
  WorkerOptions worker;
  worker.dir = options.dir;
  worker.max_shards = options.max_shards_this_run;
  worker.progress = options.progress;
  run_worker(worker);
  return coordinator_tick(options.dir, worker.lease_ttl).result;
}

CampaignResult campaign_status(const std::string& dir) {
  Checkpoint checkpoint(dir);
  const Manifest manifest = checkpoint.load_manifest();
  return fold_ledger(manifest, checkpoint.load_ledger());
}

}  // namespace samurai::campaign
