#include "sram/importance.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace samurai::sram {

namespace {

/// Sample `index`'s cell: its seed, then V_T offsets drawn from the
/// *biased* distribution N(shift_d, σ²), all on Rng(seed).split(index + 1),
/// and `weight` = exp(log w) from the log likelihood ratio
///   log w = Σ_d log[ φ(x_d; 0, σ) / φ(x_d; s_d, σ) ]
///         = Σ_d (s_d² - 2 s_d x_d) / 2σ².
/// Both evaluators draw through here, so their weights match bit for bit.
MethodologyConfig biased_cell(const ImportanceConfig& config,
                              std::size_t index, double& weight) {
  const double inv_two_var = 1.0 / (2.0 * config.sigma_vt * config.sigma_vt);
  util::Rng sample_rng = util::Rng(config.seed).split(index + 1);
  MethodologyConfig cell = config.cell;
  cell.seed = sample_rng.next_u64();
  double log_weight = 0.0;
  for (int m = 1; m <= 6; ++m) {
    const std::string name = "M" + std::to_string(m);
    const auto it = config.shift.find(name);
    const double shift = it == config.shift.end() ? 0.0 : it->second;
    const double x = sample_rng.normal(shift, config.sigma_vt);
    cell.vth_shifts[name] = x;
    log_weight += (shift * shift - 2.0 * shift * x) * inv_two_var;
  }
  weight = std::exp(log_weight);
  return cell;
}

}  // namespace

ImportanceSample evaluate_importance_sample(const ImportanceConfig& config,
                                            std::size_t index) {
  ImportanceSample sample;
  const auto run = run_methodology(biased_cell(config, index, sample.weight));
  const auto& report = config.with_rtn ? run.rtn_report : run.nominal_report;
  sample.failed =
      report.any_error || (config.count_slow_as_fail && report.any_slow);
  return sample;
}

std::vector<ImportanceSample> evaluate_importance_batch(
    const ImportanceConfig& config, std::size_t first, std::size_t count) {
  if (config.with_rtn) {
    throw std::invalid_argument(
        "evaluate_importance_batch: with_rtn samples couple to per-sample "
        "RTN traces and must run through evaluate_importance_sample");
  }
  std::vector<ImportanceSample> samples(count);
  if (count == 0) return samples;

  std::vector<MethodologyConfig> cells;
  cells.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    cells.push_back(biased_cell(config, first + i, samples[i].weight));
  }

  spice::BatchWorkspace workspace;
  const NominalBatchRun run = run_nominal_batch(cells, workspace);
  DetectorOptions detector = config.cell.detector;
  detector.v_dd = config.cell.tech.v_dd;
  for (std::size_t i = 0; i < count; ++i) {
    const PatternReport report = check_pattern(
        run.results[i].voltage(run.q_node), run.pattern, detector);
    samples[i].failed =
        report.any_error || (config.count_slow_as_fail && report.any_slow);
  }
  return samples;
}

ImportanceResult estimate_failure_probability(const ImportanceConfig& config) {
  if (!(config.sigma_vt > 0.0) || config.samples == 0) {
    throw std::invalid_argument("importance sampling: bad configuration");
  }

  // Parallel map: sample n depends only on (config, n) through its
  // rng.split(n + 1) stream and writes only its own slot.
  std::vector<ImportanceSample> outcomes(config.samples);
  util::parallel_for_indexed(
      config.samples,
      [&](std::size_t n) { outcomes[n] = evaluate_importance_sample(config, n); },
      config.threads);

  // Serial reduction in index order: floating-point accumulation stays
  // bit-identical no matter how the map phase was scheduled.
  double weight_sum = 0.0;
  double weight_sq_sum = 0.0;
  double fail_weight_sum = 0.0;
  double fail_weight_sq_sum = 0.0;
  std::size_t failures = 0;
  for (const auto& outcome : outcomes) {
    weight_sum += outcome.weight;
    weight_sq_sum += outcome.weight * outcome.weight;
    if (outcome.failed) {
      ++failures;
      fail_weight_sum += outcome.weight;
      fail_weight_sq_sum += outcome.weight * outcome.weight;
    }
  }

  ImportanceResult result;
  result.samples = config.samples;
  result.failures_observed = failures;
  const double n = static_cast<double>(config.samples);
  result.failure_probability = fail_weight_sum / n;
  // Var(p̂) = (E[w² 1_fail] - p²) / n, estimated from the sample moments.
  const double second_moment = fail_weight_sq_sum / n;
  const double variance = std::max(
      0.0, (second_moment - result.failure_probability *
                                result.failure_probability) / n);
  result.standard_error = std::sqrt(variance);
  result.effective_sample_size =
      weight_sq_sum > 0.0 ? weight_sum * weight_sum / weight_sq_sum : 0.0;
  return result;
}

}  // namespace samurai::sram
