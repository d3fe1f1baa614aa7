// Workloads `campaign_rtn` and `campaign_batch`: importance-sampled write
// failure campaigns through campaign::run_campaign, checkpointed to disk.
//
//   campaign_rtn    with_rtn, scalar samples: the Fig. 8 pipeline per
//                   sample under campaign + util::ThreadPool.
//   campaign_batch  nominal-only, 16-lane batched transients: bypasses
//                   physics/core, stresses spice::transient_batch and the
//                   ledger/state fsyncs of small shards.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "measure.hpp"
#include "spice/batch.hpp"
#include "sram/importance.hpp"
#include "system.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace samurai;

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kMinRuns = 5;

/// bench_importance's settings: bits "10", V_dd 0.97, RTN ×30, σ_VT 30 mV,
/// M1/M2 mean shift 90 mV, the whole budget (no early stop).
campaign::Manifest manifest_for(std::uint64_t workload_seed, bool batched,
                                std::size_t threads) {
  campaign::Manifest m;
  m.kind = campaign::CampaignKind::kImportance;
  m.name = batched ? "perfbench_campaign_batch" : "perfbench_campaign_rtn";
  m.seed = util::Rng(workload_seed).split(1).next_u64();
  m.node = "90nm";
  m.v_dd = 0.97;
  m.bits = "10";
  m.rtn_scale = 30.0;
  m.sigma_vt = 0.03;
  m.shift[0] = m.shift[1] = 0.09;
  m.with_rtn = !batched;
  m.batch = batched ? 16 : 1;
  m.budget = batched ? 1024 : 64;
  m.shard_size = batched ? 64 : 8;
  m.threads = threads;
  return m;
}

/// Estimator state and solver/sampler work, bit for bit. Not compared:
/// the manifest and wall times (thread counts and clocks differ), and the
/// sampler's envelope integrals, which the process-wide registry sums as
/// doubles in thread completion order, so their last bits vary with
/// scheduling when shards run on several threads.
bool same_campaign(const campaign::CampaignResult& a,
                   const campaign::CampaignResult& b) {
  const auto bits = same_double;
  const auto& wa = a.weighted;
  const auto& wb = b.weighted;
  return a.shards_done == b.shards_done && a.samples_done == b.samples_done &&
         a.complete == b.complete && a.stopped_early == b.stopped_early &&
         a.budget_saved == b.budget_saved && wa.count == wb.count &&
         wa.failures == wb.failures && bits(wa.weight_sum, wb.weight_sum) &&
         bits(wa.weight_sq_sum, wb.weight_sq_sum) &&
         bits(wa.fail_weight_sum, wb.fail_weight_sum) &&
         bits(wa.fail_weight_sq_sum, wb.fail_weight_sq_sum) &&
         a.fails.count == b.fails.count &&
         a.fails.successes == b.fails.successes &&
         a.nominal_fails.count == b.nominal_fails.count &&
         a.nominal_fails.successes == b.nominal_fails.successes &&
         a.slow.count == b.slow.count && a.slow.successes == b.slow.successes &&
         a.value.count == b.value.count && bits(a.value.mean, b.value.mean) &&
         bits(a.value.m2, b.value.m2) && bits(a.estimate, b.estimate) &&
         bits(a.standard_error, b.standard_error) && bits(a.ci.lo, b.ci.lo) &&
         bits(a.ci.hi, b.ci.hi) &&
         bits(a.relative_half_width, b.relative_half_width) &&
         bits(a.effective_sample_size, b.effective_sample_size) &&
         same_stats(a.solver, b.solver) && a.rtn.candidates == b.rtn.candidates &&
         a.rtn.accepted == b.rtn.accepted && a.rtn.segments == b.rtn.segments &&
         a.rtn.rng_refills == b.rtn.rng_refills;
}

/// The output check of one campaign run.
bool campaign_ok(const campaign::Manifest& m, const campaign::CampaignResult& r) {
  return r.complete && r.samples_done == m.budget &&
         std::isfinite(r.estimate) && r.ci.lo <= r.estimate &&
         r.estimate <= r.ci.hi;
}

/// Ledger records without the fields same_campaign leaves out, for
/// comparing two runs.
std::vector<std::string> ledger_records(const std::string& dir) {
  std::vector<std::string> records;
  for (auto shard : campaign::Checkpoint(dir).load_ledger()) {
    shard.wall_seconds = 0.0;
    shard.rtn.envelope_integral = 0.0;
    shard.rtn.fixed_bound_integral = 0.0;
    records.push_back(shard.to_json());
  }
  return records;
}

/// One importance sample's configuration and likelihood-ratio weight,
/// drawn exactly as sram::evaluate_importance_sample draws them.
sram::MethodologyConfig draw_sample(const sram::ImportanceConfig& config,
                                    std::size_t index, double& weight) {
  const util::Rng rng(config.seed);
  const double inv_two_var = 1.0 / (2.0 * config.sigma_vt * config.sigma_vt);
  util::Rng sample_rng = rng.split(index + 1);
  sram::MethodologyConfig cell = config.cell;
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

/// campaign::run_shard on one thread, re-composed from the per-sample
/// layers: the traced methodology per scalar sample, or
/// run_nominal_batch + check_pattern per batch of lanes.
campaign::ShardResult traced_shard(const campaign::Manifest& m,
                                   const campaign::ShardSpec& spec,
                                   PipelineCounts& counts) {
  const Scope shard_span("campaign.shard");
  const double start = now_seconds();
  const auto solver_before = spice::solver_stats_snapshot();
  const auto rtn_before = core::uniformisation_stats_snapshot();
  const sram::ImportanceConfig importance = campaign::importance_config_from(m);
  sram::DetectorOptions detector = importance.cell.detector;
  detector.v_dd = importance.cell.tech.v_dd;

  const auto count = static_cast<std::size_t>(spec.count);
  const auto first = static_cast<std::size_t>(spec.first);
  std::vector<double> weights(count);
  std::vector<char> failed(count);
  auto verdict = [&](const sram::PatternReport& report) {
    return report.any_error || (importance.count_slow_as_fail && report.any_slow);
  };
  if (m.batch > 1) {
    const auto batch = static_cast<std::size_t>(m.batch);
    for (std::size_t lo = 0; lo < count; lo += batch) {
      const std::size_t n = std::min(batch, count - lo);
      std::vector<sram::MethodologyConfig> cells;
      for (std::size_t j = 0; j < n; ++j) {
        cells.push_back(draw_sample(importance, first + lo + j, weights[lo + j]));
      }
      sram::NominalBatchRun run;
      {
        const Scope span("spice.batch_transient");
        spice::BatchWorkspace workspace;
        run = sram::run_nominal_batch(cells, workspace);
      }
      for (std::size_t j = 0; j < n; ++j) {
        const Scope span("sram.detect");
        failed[lo + j] = verdict(sram::check_pattern(
            run.results[j].voltage(run.q_node), run.pattern, detector));
      }
    }
  } else {
    for (std::size_t n = 0; n < count; ++n) {
      const auto cell = draw_sample(importance, first + n, weights[n]);
      const auto result = traced_methodology(cell, counts);
      failed[n] = verdict(importance.with_rtn ? result.rtn_report
                                              : result.nominal_report);
    }
  }

  campaign::ShardResult result;
  result.index = spec.index;
  result.samples = spec.count;
  for (std::size_t n = 0; n < count; ++n) {
    result.weighted.add(weights[n], failed[n] != 0);
    result.fails.add(failed[n] != 0);
    result.nominal_fails.add(false);
    result.slow.add(false);
  }
  result.wall_seconds = now_seconds() - start;
  result.solver = spice::solver_stats_snapshot().since(solver_before);
  result.rtn = core::uniformisation_stats_snapshot().since(rtn_before);
  return result;
}

/// campaign::run_campaign with a checkpoint dir, re-composed: shards in
/// order, each folded, appended to the ledger and its state stored.
campaign::CampaignResult traced_campaign(const campaign::Manifest& m,
                                         const std::string& dir,
                                         PipelineCounts& counts) {
  m.validate();
  const campaign::Checkpoint checkpoint(dir);
  {
    const Scope span("campaign.init");
    checkpoint.init(m);
  }
  std::vector<campaign::ShardResult> ledger;
  campaign::CampaignResult folded;
  {
    const Scope span("campaign.fold");
    folded = campaign::fold_ledger(m, ledger);
  }
  while (!folded.stopped_early && folded.shards_done < m.shard_count()) {
    ledger.push_back(
        traced_shard(m, campaign::shard_spec(m, folded.shards_done), counts));
    {
      const Scope span("campaign.fold");
      folded = campaign::fold_ledger(m, ledger);
    }
    {
      const Scope span("campaign.ledger_append");
      checkpoint.append_ledger(ledger.back());
    }
    {
      const Scope span("campaign.state_store");
      checkpoint.store_state(folded.to_json());
    }
  }
  if (folded.shards_done > 0) {
    const Scope span("campaign.state_store");
    checkpoint.store_state(folded.to_json());
  }
  return folded;
}

void write_digest(samurai::campaign::JsonWriter& json,
                  const campaign::CampaignResult& r) {
  Digest digest;
  digest.add(r.estimate);
  digest.add(r.ci.lo);
  digest.add(r.ci.hi);
  digest.add(r.weighted.failures);
  digest.add(r.rtn.accepted);
  digest.add(r.solver.steps_accepted);
  json.add("digest", digest.hex());
  json.add("digest_estimate", r.estimate);
  json.add("digest_ci_lo", r.ci.lo);
  json.add("digest_ci_hi", r.ci.hi);
  json.add_u64("digest_failures", r.weighted.failures);
  json.add("digest_effective_sample_size", r.effective_sample_size);
  json.add_u64("digest_accepted_transitions", r.rtn.accepted);
}

}  // namespace

RunReport run_campaign(const Context& ctx, bool batched) {
  RunReport report;
  const campaign::Manifest manifest =
      manifest_for(ctx.options.seed, batched, ctx.threads);
  // The process's run directory starts empty, so numbered
  // subdirectories are fresh; main removes them all at exit.
  std::size_t dirs = 0;
  auto fresh_dir = [&] {
    return ctx.run_dir + "/campaign-" + std::to_string(dirs++);
  };
  auto run_in_fresh_dir = [&](const campaign::Manifest& m, std::string& dir) {
    dir = fresh_dir();
    campaign::RunOptions options;
    options.dir = dir;
    return campaign::run_campaign(m, options);
  };

  campaign::CampaignResult reference;
  const double setup_s =
      median_setup(ctx, ctx.options.trace ? 1 : kSetupRepeats, [&] {
        std::string dir;
        reference = run_in_fresh_dir(manifest, dir);
      });
  report.correct = campaign_ok(manifest, reference);

  if (!ctx.options.trace) {
    // Every run repeats the same campaign: a shard's cost is its best time
    // over the runs, the throughput is that of the fastest run.
    std::vector<double> shard_seconds;
    std::vector<std::size_t> shard_index;
    std::vector<double> samples_per_s;
    std::uint64_t failed = 0;
    const auto runs = timed_units(ctx.options.seconds, kMinRuns, [&](std::size_t) {
      std::string dir;
      double seconds = 0.0;
      try {
        const double start = now_seconds();
        const auto result = run_in_fresh_dir(manifest, dir);
        seconds = now_seconds() - start;
        if (!campaign_ok(manifest, result) || !same_campaign(result, reference)) {
          ++failed;
        }
        for (const auto& shard : campaign::Checkpoint(dir).load_ledger()) {
          shard_seconds.push_back(shard.wall_seconds);
          shard_index.push_back(static_cast<std::size_t>(shard.index));
        }
        samples_per_s.push_back(static_cast<double>(result.samples_done) / seconds);
      } catch (const std::exception&) {
        ++failed;
      }
      remove_tree(dir);
      return seconds;
    });
    report.attempted = runs.size();
    report.failed = failed;
    add_end_to_end(report, setup_s,
                   best_per_key(shard_seconds, shard_index,
                                static_cast<std::size_t>(manifest.shard_count())),
                   shard_seconds,
                   samples_per_s.empty()
                       ? 0.0
                       : *std::max_element(samples_per_s.begin(), samples_per_s.end()));
    report.details.add("samples_per_s_median_over_runs", median(samples_per_s));
    report.details.add("unit", "one campaign shard (unit_ms, best of the runs "
                               "per shard); samples_per_s is the fastest whole "
                               "campaign run");
    report.details.add_u64("campaign_runs", runs.size());
  } else {
    LayerInputs layers;
    std::string dir_n, dir_1, dir_traced;

    // N threads, untraced: the entry point as users run it.
    double start = now_seconds();
    const double cpu_start = process_cpu_seconds();
    const auto parallel = run_in_fresh_dir(manifest, dir_n);
    const double parallel_wall = now_seconds() - start;
    layers.cpu_utilisation = (process_cpu_seconds() - cpu_start) /
                             (parallel_wall * static_cast<double>(ctx.threads));

    // One thread: untraced, traced, untraced again. The untraced runs are
    // the thread-invariance gate and, averaged, the base of the tracing
    // overhead (one on each side, so drift of the host cancels).
    const campaign::Manifest serial_manifest =
        manifest_for(ctx.options.seed, batched, 1);
    auto serial_run = [&] {
      const double begin = now_seconds();
      auto result = run_in_fresh_dir(serial_manifest, dir_1);
      layers.untraced_wall += 0.5 * (now_seconds() - begin);
      return result;
    };
    const auto serial = serial_run();

    dir_traced = fresh_dir();
    const auto solver_before = spice::solver_stats_snapshot();
    const auto rtn_before = core::uniformisation_stats_snapshot();
    report.trace_origin = now_seconds();
    start = now_seconds();
    const auto traced = traced_campaign(serial_manifest, dir_traced, layers.counts);
    layers.traced_wall = now_seconds() - start;
    layers.solver = spice::solver_stats_snapshot().since(solver_before);
    layers.rtn = core::uniformisation_stats_snapshot().since(rtn_before);
    report.spans = take_spans();
    layers.spans = report.spans;
    const auto serial_again = serial_run();

    const bool threads_invariant = same_campaign(parallel, serial) &&
                                   same_campaign(serial, serial_again);
    const bool traced_identical = same_campaign(parallel, traced) &&
                                  ledger_records(dir_n) == ledger_records(dir_traced);
    const bool repeatable = same_campaign(parallel, reference);
    const bool ok = campaign_ok(manifest, parallel) && threads_invariant &&
                    traced_identical && repeatable;

    report.attempted = 1;
    report.failed = ok ? 0 : 1;
    layers.failed_share = ok ? 0.0 : 1.0;
    report.details.add("n_thread_equals_single_thread", threads_invariant);
    report.details.add("recomposition_bit_identical", traced_identical);
    report.details.add("parallel_wall_s", parallel_wall);
    add_per_layer(report, layers);
    report.details.add("per_layer_unit", "one campaign run, re-composed on 1 thread");
  }
  report.correct = report.correct && report.failed == 0;
  write_digest(report.details, reference);
  report.details.add_u64("campaign_budget", manifest.budget);
  report.details.add_u64("campaign_shard_size", manifest.shard_size);
  report.details.add_u64("campaign_batch", manifest.batch);
  report.details.add_u64("campaign_threads", manifest.threads);
  return report;
}

}  // namespace perfbench
