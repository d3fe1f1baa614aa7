// Yield-estimation bench: naive Monte-Carlo vs mean-shift importance
// sampling for the rare write failures the paper highlights ("extremely
// rare events"). At the operating point used here the failure probability
// sits far in the variation distribution's tail: naive sampling at
// affordable counts sees nothing, while the biased estimator resolves the
// probability with tight relative error from the same budget.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "sram/importance.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

double time_estimate(const sram::ImportanceConfig& config,
                     sram::ImportanceResult& result) {
  const auto start = std::chrono::steady_clock::now();
  result = estimate_failure_probability(config);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  sram::ImportanceConfig config;
  std::size_t scaling_samples = 0;
  std::uint64_t campaign_budget = 0;
  std::uint64_t campaign_shard = 0;
  // Counts are read before any simulation, so a bad one fails at once.
  try {
    config.samples = static_cast<std::size_t>(cli.get_count("samples", 120));
    config.threads = static_cast<std::size_t>(cli.get_count("threads", 8));
    scaling_samples =
        static_cast<std::size_t>(cli.get_count("scaling-samples", 64));
    campaign_budget =
        static_cast<std::uint64_t>(cli.get_count("campaign-budget", 120));
    campaign_shard =
        static_cast<std::uint64_t>(cli.get_count("campaign-shard", 12));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_importance: %s\n", error.what());
    return 2;
  }
  config.cell.tech = physics::technology(cli.get_string("node", "90nm"));
  config.cell.tech.v_dd = cli.get_double("vdd", 0.97);
  config.cell.sizing.extra_node_cap = 40e-15;
  config.cell.timing.period = 1e-9;
  config.cell.ops = sram::ops_from_bits({1, 0});
  config.cell.rtn_scale = cli.get_double("scale", 30.0);
  config.sigma_vt = cli.get_double("sigma-vt", 0.03);
  config.seed = cli.get_seed("seed", 31);
  config.with_rtn = !cli.has("nominal-only");

  std::printf("=== Rare write-failure estimation: naive MC vs importance "
              "sampling ===\n");
  std::printf("%s at V_dd = %.2f V, sigma_VT = %.0f mV, RTN x%.0f, %zu "
              "samples per estimator\n\n",
              config.cell.tech.name.c_str(), config.cell.tech.v_dd,
              config.sigma_vt * 1e3, config.cell.rtn_scale, config.samples);

  util::Table table({"estimator", "mean shift (mV)", "failures seen",
                     "P(fail) estimate", "std error", "ESS"});
  // Naive.
  {
    const auto result = estimate_failure_probability(config);
    table.add_row({std::string("naive Monte-Carlo"), 0.0,
                   static_cast<long long>(result.failures_observed),
                   result.failure_probability, result.standard_error,
                   result.effective_sample_size});
  }
  // Mean-shift ladder toward the write-critical devices (pass gates).
  for (double shift : {0.06, 0.09, 0.12}) {
    sram::ImportanceConfig biased = config;
    biased.shift = {{"M1", shift}, {"M2", shift}};
    const auto result = estimate_failure_probability(biased);
    table.add_row({std::string("importance (mean shift)"), shift * 1e3,
                   static_cast<long long>(result.failures_observed),
                   result.failure_probability, result.standard_error,
                   result.effective_sample_size});
  }
  table.print(std::cout);

  // --- Parallel scaling: serial vs executor-backed estimation. -------------
  // The estimator maps samples on the shared work-stealing executor and
  // reduces in index order, so the parallel run must be bit-identical;
  // the JSON line lets tooling track the serial-vs-parallel throughput.
  {
    sram::ImportanceConfig probe = config;
    probe.samples = scaling_samples;
    sram::ImportanceResult serial, parallel;
    probe.threads = 1;
    const double serial_s = time_estimate(probe, serial);
    probe.threads = config.threads;
    const double parallel_s = time_estimate(probe, parallel);
    const bool identical =
        serial.failure_probability == parallel.failure_probability &&
        serial.standard_error == parallel.standard_error &&
        serial.effective_sample_size == parallel.effective_sample_size &&
        serial.failures_observed == parallel.failures_observed;
    std::printf("\n--- parallel scaling (%zu samples) ---\n", probe.samples);
    std::printf(
        "{\"bench\": \"importance_scaling\", \"samples\": %zu, "
        "\"threads\": %zu, \"serial_seconds\": %.6f, "
        "\"parallel_seconds\": %.6f, \"serial_samples_per_s\": %.3f, "
        "\"parallel_samples_per_s\": %.3f, \"speedup\": %.3f, "
        "\"bit_identical\": %s}\n",
        probe.samples, config.threads, serial_s, parallel_s,
        probe.samples / serial_s, probe.samples / parallel_s,
        serial_s / parallel_s, identical ? "true" : "false");
  }

  // --- Campaign runtime: sequential early stopping. -----------------------
  // The same estimator driven as a sharded campaign: shards fold through
  // the streaming weighted-failure accumulator and the run ends as soon as
  // the relative CI half-width meets the target — the budget the paper's
  // rare-event sweeps would otherwise burn after the answer has settled.
  {
    campaign::Manifest manifest;
    manifest.kind = campaign::CampaignKind::kImportance;
    manifest.name = "bench_importance";
    manifest.node = config.cell.tech.name;
    manifest.v_dd = config.cell.tech.v_dd;
    manifest.bits = "10";
    manifest.rtn_scale = config.cell.rtn_scale;
    // Wider variation than the rare-event sweep above: the CI must be able
    // to tighten within the demo budget for the stopping rule to fire.
    manifest.sigma_vt = cli.get_double("campaign-sigma", 0.2);
    manifest.shift[0] = manifest.shift[1] =
        cli.get_double("campaign-shift", 0.09);
    manifest.seed = config.seed;
    manifest.with_rtn = config.with_rtn;
    manifest.threads = config.threads;
    manifest.budget = campaign_budget;
    manifest.shard_size = campaign_shard;
    manifest.min_samples = manifest.shard_size * 2;

    campaign::Manifest full = manifest;  // exhaust the budget
    full.target_rel_half_width = 0.0;
    const auto full_run = campaign::run_campaign(full);

    manifest.target_rel_half_width = cli.get_double("target-rhw", 0.5);
    const auto early = campaign::run_campaign(manifest);

    const bool agrees = full_run.estimate >= early.ci.lo &&
                        full_run.estimate <= early.ci.hi;
    std::printf("\n--- campaign early stopping (target rel CI half-width "
                "%.2f) ---\n", manifest.target_rel_half_width);
    std::printf(
        "{\"bench\": \"importance_campaign\", \"budget\": %llu, "
        "\"budget_used\": %llu, \"budget_saved\": %llu, "
        "\"stopped_early\": %s, \"estimate\": %.6g, \"ci_lo\": %.6g, "
        "\"ci_hi\": %.6g, \"full_budget_estimate\": %.6g, "
        "\"agrees_within_ci\": %s}\n",
        static_cast<unsigned long long>(manifest.budget),
        static_cast<unsigned long long>(early.samples_done),
        static_cast<unsigned long long>(early.budget_saved),
        early.stopped_early ? "true" : "false", early.estimate, early.ci.lo,
        early.ci.hi, full_run.estimate, agrees ? "true" : "false");
  }

  std::printf("\nExpected shape: the naive estimator sees zero failures\n"
              "(its estimate collapses to 0 with no error information); the\n"
              "biased estimators see tens of failures and resolve a tail\n"
              "probability orders of magnitude below 1/samples. The price\n"
              "is effective sample size — the estimates scatter within\n"
              "their (wide) error bars at this budget, tightening as\n"
              "samples grow and as the shift lands near the failure\n"
              "boundary (the middle row).\n");
  return 0;
}
