// Workload `methodology`: serial sram::run_methodology samples of the
// paper's Fig. 8 setup, one seed per sample, on one pinned core.
#include <optional>
#include <vector>

#include "core/rtn_generator.hpp"
#include "measure.hpp"
#include "physics/srh_model.hpp"
#include "physics/technology.hpp"
#include "sram/methodology.hpp"
#include "sram/pattern.hpp"
#include "system.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace samurai;

namespace {

constexpr int kSetupRepeats = 9;  ///< one sample each: cheap, so many
constexpr std::size_t kDistinctSamples = 16;  ///< timed, repeated round-robin
constexpr std::size_t kMinRounds = 2;
constexpr std::size_t kTracedSamples = 4;

/// 90 nm, pattern [1,1,0,1,0,1,0,0,1], V_dd 0.9, 40 fF node cap, 1 ns
/// period, RTN ×30 on all six transistors; sample k gets its own seed.
sram::MethodologyConfig sample_config(std::uint64_t workload_seed,
                                      std::uint64_t k) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.tech.v_dd = 0.9;
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 1, 0, 1, 0, 1, 0, 0, 1});
  config.rtn_scale = 30.0;
  config.seed = util::Rng(workload_seed).split(k + 1).next_u64();
  return config;
}

/// The output check: the nominal (RTN-free) writes must all succeed.
bool sample_ok(const sram::MethodologyResult& result) {
  return !result.nominal_report.any_error && result.rtn.size() == 6;
}

/// What the digest keeps of one sample's simulated outputs.
struct SampleSummary {
  Digest digest;
  std::uint64_t traps = 0;
  std::uint64_t accepted = 0;
  bool rtn_error = false;
  bool rtn_slow = false;

  SampleSummary() = default;
  explicit SampleSummary(const sram::MethodologyResult& result)
      : rtn_error(result.rtn_report.any_error),
        rtn_slow(result.rtn_report.any_slow) {
    for (const auto& device : result.rtn) {
      traps += device.traps.size();
      accepted += device.stats.accepted;
      digest.add(static_cast<std::uint64_t>(device.traps.size()));
      digest.add(device.stats.accepted);
    }
    for (const auto* report : {&result.nominal_report, &result.rtn_report}) {
      for (const auto& op : report->ops) {
        digest.add(static_cast<std::uint64_t>(op.outcome));
        digest.add(op.q_at_slot_end);
      }
    }
  }
};

/// Digest over a fixed set of samples, folded in sample order, so it
/// depends on the seed and the simulated outputs only.
struct SampleDigest {
  Digest digest;
  std::uint64_t traps = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rtn_errors = 0;  ///< samples whose RTN run mis-wrote
  std::uint64_t rtn_slow = 0;

  void add(const SampleSummary& sample) {
    digest.add(sample.digest.value());
    traps += sample.traps;
    accepted += sample.accepted;
    rtn_errors += sample.rtn_error ? 1 : 0;
    rtn_slow += sample.rtn_slow ? 1 : 0;
  }

  void write(samurai::campaign::JsonWriter& json) const {
    json.add("digest", digest.hex());
    json.add_u64("digest_traps", traps);
    json.add_u64("digest_accepted_transitions", accepted);
    json.add_u64("digest_rtn_write_errors", rtn_errors);
    json.add_u64("digest_rtn_slow_writes", rtn_slow);
  }
};

/// Once per traced run: the re-composed generator against the one-shot
/// core::generate_device_rtn on transistor M1 of `result`'s sample.
bool one_shot_matches(const sram::MethodologyConfig& config,
                      const sram::MethodologyResult& result) {
  const physics::SrhModel srh(config.tech);
  const auto& m1 = result.rtn.front();
  const physics::MosDevice equivalent(
      config.tech, physics::MosType::kNmos,
      sram::transistor_geometry(config.tech, config.sizing, 1));
  core::RtnGeneratorOptions gen;
  gen.tf = result.pattern.t_end;
  gen.amplitude_scale = config.rtn_scale;
  const util::Rng rng(config.seed);
  util::Rng one_rng = rng.split(1 * 977 + 13);
  util::Rng traced_rng = one_rng;
  const auto one = core::generate_device_rtn(srh, equivalent, m1.traps, m1.v_gs,
                                             m1.i_d, one_rng, gen);
  PipelineCounts unused;
  const auto traced = traced_device_rtn(srh, equivalent, m1.traps, m1.v_gs,
                                        m1.i_d, traced_rng, gen, unused);
  return same_device_rtn(one, traced) && same_step(one.n_filled, m1.n_filled) &&
         same_pwl(one.i_rtn, m1.i_rtn);
}

}  // namespace

RunReport run_methodology(const Context& ctx) {
  RunReport report;
  const std::uint64_t seed = ctx.options.seed;
  bool setup_ok = true;
  // Each set-up warms up on its own sample, past the timed ones, so the
  // median does not hang on one sample's cost.
  std::uint64_t warm_up = kDistinctSamples + 1;
  const double setup_s =
      median_setup(ctx, ctx.options.trace ? 1 : kSetupRepeats, [&] {
        setup_ok = setup_ok &&
                   sample_ok(sram::run_methodology(sample_config(seed, warm_up++)));
      });
  report.correct = setup_ok;

  SampleDigest digest;
  if (!ctx.options.trace) {
    std::uint64_t failed = 0;
    // Samples 1..kDistinctSamples repeat round-robin. A sample's cost is
    // its best time; every repeat must reproduce the first one's outputs,
    // and the digest covers each sample once.
    std::vector<SampleSummary> summaries(kDistinctSamples);
    std::vector<std::size_t> keys;
    const auto seconds = timed_units(ctx.options.seconds,
                                     kMinRounds * kDistinctSamples,
                                     [&](std::size_t i) {
      const std::size_t k = i % kDistinctSamples;
      keys.push_back(k);
      const double start = now_seconds();
      try {
        const auto result = sram::run_methodology(sample_config(seed, k + 1));
        const double elapsed = now_seconds() - start;
        const SampleSummary summary(result);
        if (i < kDistinctSamples) {
          summaries[k] = summary;
        } else if (summary.digest.value() != summaries[k].digest.value()) {
          ++failed;
        }
        if (!sample_ok(result)) ++failed;
        return elapsed;
      } catch (const std::exception&) {
        ++failed;
        return now_seconds() - start;
      }
    });
    const auto best = best_per_key(seconds, keys, kDistinctSamples);
    double best_total = 0.0;
    for (double s : best) best_total += s;
    for (const auto& summary : summaries) digest.add(summary);
    report.attempted = seconds.size();
    report.failed = failed;
    add_end_to_end(report, setup_s, best, seconds,
                   static_cast<double>(kDistinctSamples) / best_total);
    report.details.add_u64("digest_samples", summaries.size());
  } else {
    LayerInputs layers;
    layers.units = kTracedSamples;
    double untraced_cpu = 0.0;
    std::uint64_t failed = 0;
    bool identical = true;
    std::optional<sram::MethodologyConfig> first_config;
    std::optional<sram::MethodologyResult> first_result;
    report.trace_origin = now_seconds();
    for (std::size_t k = 1; k <= kTracedSamples; ++k) {
      const auto config = sample_config(seed, k);
      double start = now_seconds();
      const double cpu_start = process_cpu_seconds();
      auto untraced = sram::run_methodology(config);
      layers.untraced_wall += now_seconds() - start;
      untraced_cpu += process_cpu_seconds() - cpu_start;

      const auto solver_before = spice::solver_stats_snapshot();
      const auto rtn_before = core::uniformisation_stats_snapshot();
      start = now_seconds();
      auto traced = traced_methodology(config, layers.counts);
      layers.traced_wall += now_seconds() - start;
      layers.solver.merge(spice::solver_stats_snapshot().since(solver_before));
      layers.rtn.merge(core::uniformisation_stats_snapshot().since(rtn_before));

      const bool same = same_methodology(untraced, traced);
      identical = identical && same;
      if (!same || !sample_ok(untraced)) ++failed;
      digest.add(SampleSummary(untraced));
      if (!first_result) {
        first_config = config;
        first_result = std::move(untraced);
      }
    }
    report.spans = take_spans();
    const bool one_shot = one_shot_matches(*first_config, *first_result);
    take_spans();  // the one-shot check is not part of the traced work

    layers.spans = report.spans;
    layers.cpu_utilisation = untraced_cpu / layers.untraced_wall;
    layers.failed_share = static_cast<double>(failed) / kTracedSamples;
    report.attempted = kTracedSamples;
    report.failed = failed;
    report.correct = report.correct && identical && one_shot;
    report.details.add("recomposition_bit_identical", identical);
    report.details.add("one_shot_generator_bit_identical", one_shot);
    add_per_layer(report, layers);
  }
  report.correct = report.correct && report.failed == 0;
  digest.write(report.details);
  report.details.add("per_layer_unit", "one methodology sample");
  report.details.add("unit", "one methodology sample (serial, 1 core)");
  return report;
}

}  // namespace perfbench
