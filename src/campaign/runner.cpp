#include "campaign/runner.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"

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

void report_progress(std::ostream* out, const CampaignResult& result) {
  if (!out) return;
  *out << "[campaign " << result.manifest.name << "] shard "
       << result.shards_done << "/" << result.manifest.shard_count()
       << "  samples " << result.samples_done << "/" << result.manifest.budget
       << "  estimate " << result.estimate << "  rel-CI-half-width "
       << result.relative_half_width << "\n";
}

/// Shared engine: fold the existing ledger shard by shard (re-applying the
/// stopping rule so a resumed campaign stops exactly where the
/// uninterrupted one would have), then optionally execute further shards.
/// Ledger entries beyond a gap (a distributed campaign whose workers
/// completed shards out of order) are folded in place when the fold
/// reaches their index — never re-executed, never double-folded.
CampaignResult drive(const Manifest& manifest, const RunOptions& options,
                     Checkpoint* checkpoint,
                     const std::vector<ShardResult>& ledger, bool execute) {
  CampaignResult result = fold_ledger(manifest, ledger);

  // Completed shards the prefix fold could not reach (beyond a gap).
  std::map<std::uint64_t, ShardResult> completed_ahead;
  for (const auto& shard : ledger) {
    if (shard.index >= result.shards_done) completed_ahead.emplace(shard.index, shard);
  }

  std::uint64_t executed = 0;
  while (execute && !result.stopped_early &&
         result.shards_done < manifest.shard_count()) {
    ShardResult shard;
    bool ran = false;
    const auto ahead = completed_ahead.find(result.shards_done);
    if (ahead != completed_ahead.end()) {
      shard = ahead->second;  // gap closed: fold the stored result
    } else {
      if (options.max_shards_this_run != 0 &&
          executed >= options.max_shards_this_run) {
        break;  // simulated kill / per-invocation budget
      }
      shard = run_shard(manifest, shard_spec(manifest, result.shards_done));
      ran = true;
      ++executed;
    }
    fold(result, shard);
    refresh_estimate(result);
    if (should_stop(result)) result.stopped_early = true;
    finalise(result);
    if (ran) {
      if (checkpoint) {
        checkpoint->append_ledger(shard);
        checkpoint->store_state(result.to_json());
      }
      report_progress(options.progress, result);
    }
  }

  refresh_estimate(result);
  finalise(result);
  if (checkpoint && result.shards_done > 0) {
    checkpoint->store_state(result.to_json());
  }
  return result;
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

CampaignResult run_campaign(const Manifest& manifest,
                            const RunOptions& options) {
  manifest.validate();
  if (options.dir.empty()) {
    return drive(manifest, options, nullptr, {}, /*execute=*/true);
  }
  Checkpoint checkpoint(options.dir);
  checkpoint.init(manifest);
  return drive(manifest, options, &checkpoint, {}, /*execute=*/true);
}

CampaignResult resume_campaign(const RunOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument("resume_campaign: checkpoint dir required");
  }
  Checkpoint checkpoint(options.dir);
  const Manifest manifest = checkpoint.load_manifest();
  manifest.validate();
  return drive(manifest, options, &checkpoint, checkpoint.load_ledger(),
               /*execute=*/true);
}

CampaignResult campaign_status(const std::string& dir) {
  Checkpoint checkpoint(dir);
  const Manifest manifest = checkpoint.load_manifest();
  return fold_ledger(manifest, checkpoint.load_ledger());
}

}  // namespace samurai::campaign
