#include "campaign/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "campaign/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace samurai::campaign {

ShardSpec shard_spec(const Manifest& manifest, std::uint64_t shard_index) {
  if (shard_index >= manifest.shard_count()) {
    throw std::out_of_range("shard_spec: shard index past campaign end");
  }
  ShardSpec spec;
  spec.index = shard_index;
  spec.first = shard_index * manifest.shard_size;
  spec.count = std::min(manifest.shard_size, manifest.budget - spec.first);
  return spec;
}

sram::MethodologyConfig cell_config_from(const Manifest& manifest) {
  sram::MethodologyConfig cell;
  cell.tech = physics::technology(manifest.node);
  if (manifest.v_dd > 0.0) cell.tech.v_dd = manifest.v_dd;
  cell.sizing.extra_node_cap = manifest.extra_node_cap;
  cell.timing.period = manifest.period;
  std::vector<int> bits;
  for (char ch : manifest.bits) {
    if (ch == '0' || ch == '1') bits.push_back(ch - '0');
  }
  cell.ops = sram::ops_from_bits(bits);
  cell.rtn_scale = manifest.rtn_scale;
  return cell;
}

sram::ImportanceConfig importance_config_from(const Manifest& manifest) {
  sram::ImportanceConfig config;
  config.cell = cell_config_from(manifest);
  config.sigma_vt = manifest.sigma_vt;
  for (int m = 0; m < 6; ++m) {
    const double shift = manifest.shift[static_cast<size_t>(m)];
    if (shift != 0.0) config.shift["M" + std::to_string(m + 1)] = shift;
  }
  config.samples = manifest.budget;
  config.seed = manifest.seed;
  config.count_slow_as_fail = manifest.count_slow_as_fail;
  config.with_rtn = manifest.with_rtn;
  config.threads = manifest.threads;
  return config;
}

sram::ArrayConfig array_config_from(const Manifest& manifest) {
  sram::ArrayConfig config;
  config.cell = cell_config_from(manifest);
  // An explicit R×C footprint pins the cell population; otherwise one cell
  // per sample (budget cells), the historical behaviour.
  config.num_cells =
      manifest.rows > 0 ? manifest.rows * manifest.cols : manifest.budget;
  config.sigma_vt = manifest.sigma_vt;
  config.seed = manifest.seed;
  config.threads = manifest.threads;
  return config;
}

sram::VminConfig vmin_config_from(const Manifest& manifest,
                                  std::uint64_t replica) {
  sram::VminConfig config;
  config.cell = cell_config_from(manifest);
  // Each replica is an independent trap-population universe: its cell seed
  // comes from the campaign root stream, exactly like a sample index.
  config.cell.seed = util::Rng(manifest.seed).split(replica + 1).next_u64();
  config.v_lo = manifest.v_lo;
  config.v_hi = manifest.v_hi;
  config.resolution = manifest.resolution;
  config.rtn_seeds = manifest.rtn_seeds;
  config.count_slow_as_fail = manifest.count_slow_as_fail;
  config.threads = 1;  // parallelism lives at the shard level
  return config;
}

namespace {

/// Per-sample outcome, generic across campaign kinds. Slots are written by
/// the parallel map and reduced serially in index order.
struct SampleOutcome {
  double weight = 1.0;
  bool failed = false;
  bool nominal_failed = false;
  bool slow = false;
  bool has_value = false;
  double value = 0.0;
};

SampleOutcome evaluate(const Manifest& manifest,
                       const sram::ImportanceConfig& importance,
                       const sram::ArrayConfig& array, std::uint64_t global) {
  SampleOutcome outcome;
  switch (manifest.kind) {
    case CampaignKind::kImportance: {
      const auto sample = sram::evaluate_importance_sample(
          importance, static_cast<std::size_t>(global));
      outcome.weight = sample.weight;
      outcome.failed = sample.failed;
      break;
    }
    case CampaignKind::kArrayYield: {
      const auto cell = sram::simulate_array_cell(
          array, static_cast<std::size_t>(global));
      outcome.failed = cell.rtn_error && !cell.nominal_error;  // RTN-only
      outcome.nominal_failed = cell.nominal_error;
      outcome.slow = cell.rtn_slow;
      outcome.has_value = true;
      outcome.value = static_cast<double>(cell.total_traps);
      break;
    }
    case CampaignKind::kVmin: {
      const auto result = sram::find_vmin(vmin_config_from(manifest, global));
      outcome.failed = !result.rtn_found;
      outcome.nominal_failed = !result.nominal_found;
      outcome.has_value = result.rtn_found;
      outcome.value = result.rtn_found ? result.vmin_rtn : 0.0;
      break;
    }
  }
  return outcome;
}

}  // namespace

ShardResult run_shard(const Manifest& manifest, const ShardSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  const spice::SolverStats stats_before = spice::solver_stats_snapshot();
  const core::UniformisationStats rtn_before =
      core::uniformisation_stats_snapshot();
  const sram::ImportanceConfig importance = importance_config_from(manifest);
  const sram::ArrayConfig array = array_config_from(manifest);

  std::vector<SampleOutcome> outcomes(static_cast<std::size_t>(spec.count));
  if (manifest.kind == CampaignKind::kImportance && manifest.batch > 1) {
    // Batched importance path: consecutive global indices are grouped into
    // lanes of one lock-step transient each. Each group writes only its
    // own outcome slots and a sample's verdict is independent of its
    // group-mates (all lanes share one breakpoint set, so the step plan
    // never depends on the grouping) — the thread-count and shard-size
    // independence of the scalar path carries over.
    const auto batch = static_cast<std::size_t>(manifest.batch);
    const auto count = static_cast<std::size_t>(spec.count);
    const std::size_t groups = (count + batch - 1) / batch;
    util::parallel_for_indexed(
        groups,
        [&](std::size_t g) {
          const std::size_t lo = g * batch;
          const std::size_t n = std::min(batch, count - lo);
          const auto samples = sram::evaluate_importance_batch(
              importance, static_cast<std::size_t>(spec.first) + lo, n);
          for (std::size_t j = 0; j < n; ++j) {
            outcomes[lo + j].weight = samples[j].weight;
            outcomes[lo + j].failed = samples[j].failed;
          }
        },
        static_cast<std::size_t>(manifest.threads));
  } else {
    util::parallel_for_indexed(
        static_cast<std::size_t>(spec.count),
        [&](std::size_t n) {
          outcomes[n] = evaluate(manifest, importance, array, spec.first + n);
        },
        static_cast<std::size_t>(manifest.threads));
  }

  ShardResult result;
  result.index = spec.index;
  result.samples = spec.count;
  for (const auto& outcome : outcomes) {
    result.weighted.add(outcome.weight, outcome.failed);
    result.fails.add(outcome.failed);
    result.nominal_fails.add(outcome.nominal_failed);
    result.slow.add(outcome.slow);
    if (outcome.has_value) result.value.add(outcome.value);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Shards run one at a time, so the snapshot delta attributes exactly this
  // shard's solver work (the atomic registry already folded every worker).
  result.solver = spice::solver_stats_snapshot().since(stats_before);
  result.rtn = core::uniformisation_stats_snapshot().since(rtn_before);
  return result;
}

void write_counters(JsonWriter& json, const spice::SolverStats& solver,
                    const core::UniformisationStats& rtn) {
  for (const auto& c : spice::kSolverCounters) {
    json.add_u64(c.key, solver.*c.field);
  }
  for (const auto& c : core::kUniformisationCounts) {
    json.add_u64(c.key, rtn.*c.field);
  }
  for (const auto& c : core::kUniformisationSums) {
    json.add(c.key, rtn.*c.field);
  }
}

std::string ShardResult::to_json() const {
  JsonWriter json;
  json.add_u64("shard", index);
  json.add_u64("samples", samples);
  // Only service workers stamp an identity; single-process ledger lines
  // stay byte-identical to the pre-service format.
  if (!worker.empty()) json.add("worker", worker);
  json.add_u64("w_count", weighted.count);
  json.add_u64("w_failures", weighted.failures);
  json.add("w_sum", weighted.weight_sum);
  json.add("w_sq_sum", weighted.weight_sq_sum);
  json.add("w_fail_sum", weighted.fail_weight_sum);
  json.add("w_fail_sq_sum", weighted.fail_weight_sq_sum);
  json.add_u64("fail_count", fails.count);
  json.add_u64("fail_successes", fails.successes);
  json.add_u64("nominal_count", nominal_fails.count);
  json.add_u64("nominal_successes", nominal_fails.successes);
  json.add_u64("slow_count", slow.count);
  json.add_u64("slow_successes", slow.successes);
  json.add_u64("value_count", value.count);
  json.add("value_mean", value.mean);
  json.add("value_m2", value.m2);
  json.add("wall_seconds", wall_seconds);
  write_counters(json, solver, rtn);
  return json.str();
}

ShardResult ShardResult::from_json(const std::string& line) {
  const JsonObject json = JsonObject::parse(line);
  ShardResult result;
  result.index = json.get_u64("shard", 0);
  result.samples = json.get_u64("samples", 0);
  result.worker = json.get_string("worker", "");
  result.weighted.count = json.get_u64("w_count", 0);
  result.weighted.failures = json.get_u64("w_failures", 0);
  result.weighted.weight_sum = json.get_double("w_sum", 0.0);
  result.weighted.weight_sq_sum = json.get_double("w_sq_sum", 0.0);
  result.weighted.fail_weight_sum = json.get_double("w_fail_sum", 0.0);
  result.weighted.fail_weight_sq_sum = json.get_double("w_fail_sq_sum", 0.0);
  result.fails.count = json.get_u64("fail_count", 0);
  result.fails.successes = json.get_u64("fail_successes", 0);
  result.nominal_fails.count = json.get_u64("nominal_count", 0);
  result.nominal_fails.successes = json.get_u64("nominal_successes", 0);
  result.slow.count = json.get_u64("slow_count", 0);
  result.slow.successes = json.get_u64("slow_successes", 0);
  result.value.count = json.get_u64("value_count", 0);
  result.value.mean = json.get_double("value_mean", 0.0);
  result.value.m2 = json.get_double("value_m2", 0.0);
  result.wall_seconds = json.get_double("wall_seconds", 0.0);
  // A missing counter reads as zero, so ledgers written before it existed
  // keep parsing.
  for (const auto& c : spice::kSolverCounters) {
    result.solver.*c.field = json.get_u64(c.key, 0);
  }
  for (const auto& c : core::kUniformisationCounts) {
    result.rtn.*c.field = json.get_u64(c.key, 0);
  }
  for (const auto& c : core::kUniformisationSums) {
    result.rtn.*c.field = json.get_double(c.key, 0.0);
  }
  return result;
}

}  // namespace samurai::campaign
