// RTN-generation hot-path benchmark: Algorithm 1 over the 6T write-pattern
// workload (65nm, pattern 101), run twice — once with the piecewise
// per-state majorant (the default) and once on the classic fixed-bound
// thinning path (`use_majorant = false`). Both paths sample the same law
// (asserted by the equivalence tests and cross-checked loosely here); the
// candidate-count ratio is the work the envelope saves. Emits one
// machine-readable JSON line (scripted against BENCH_rtn_generation.json).
//
// `--quick` shrinks the pass counts for use as a smoke test under
// `ctest -L perf`; `--passes N` overrides the per-batch pass count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/rtn_generator.hpp"
#include "physics/mos_device.hpp"
#include "physics/srh_model.hpp"
#include "sram/cell.hpp"
#include "sram/methodology.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace samurai;

namespace {

sram::MethodologyConfig base_config() {
  sram::MethodologyConfig config;
  config.tech = physics::technology("65nm");
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 0, 1});
  // Fixed per-transistor trap count: a deterministic, meaty workload
  // (6 x 16 traps) independent of the Poisson draw.
  config.profile.fixed_count = 16;
  return config;
}

struct ModeReport {
  double ms_per_pass = 0.0;  ///< best-of-batches mean wall per pass
  core::UniformisationStats stats;  ///< aggregate over every timed pass
  double candidates_per_sec = 0.0;  ///< aggregate candidates / total wall
};

/// One pass = generate for all six transistors' prebuilt workloads,
/// mirroring the methodology's phase-2 seeding so pass p is deterministic
/// and both modes consume identical per-trap streams. The propensity
/// tabulations (all surface-potential work) live in the workloads, built
/// once in setup: a pass times Algorithm 1 plus the render walk — the part
/// the majorant actually accelerates, and the part a Monte-Carlo campaign
/// re-runs per sample.
void run_pass(const std::vector<core::DeviceRtnWorkload>& workloads,
              double t_end, bool use_majorant, std::uint64_t pass) {
  core::RtnGeneratorOptions gen;
  gen.t0 = 0.0;
  gen.tf = t_end;
  gen.uniformisation.use_majorant = use_majorant;
  util::Rng rng(0xB5EFu + pass);
  for (std::size_t m = 0; m < workloads.size(); ++m) {
    util::Rng trap_rng = rng.split(m * 977 + 13);
    (void)workloads[m].generate(trap_rng, gen);
  }
}

/// One timed batch of `passes` *per mode*, interleaved pass by pass (one
/// majorant pass, one fixed pass, ...). Each pass is timed individually
/// and the per-mode sums compared, so CPU frequency ramps, thermal drift
/// and cache warmup hit both modes identically — timing the modes in
/// separate blocks hands a systematic few-percent penalty to whichever
/// block runs while the clock is still ramping. The ~20 ns clock reads
/// are noise against the ~10 ms passes.
void run_batch(const std::vector<core::DeviceRtnWorkload>& workloads,
               double t_end, int passes, std::uint64_t& pass,
               ModeReport& majorant, ModeReport& fixed,
               double& wall_majorant, double& wall_fixed) {
  double seconds_m = 0.0;
  double seconds_f = 0.0;
  for (int p = 0; p < passes; ++p) {
    const auto s0 = core::uniformisation_stats_snapshot();
    const auto a = std::chrono::steady_clock::now();
    run_pass(workloads, t_end, /*use_majorant=*/true, pass);
    const auto b = std::chrono::steady_clock::now();
    const auto s1 = core::uniformisation_stats_snapshot();
    run_pass(workloads, t_end, /*use_majorant=*/false, pass);
    const auto c = std::chrono::steady_clock::now();
    const auto s2 = core::uniformisation_stats_snapshot();
    seconds_m += std::chrono::duration<double>(b - a).count();
    seconds_f += std::chrono::duration<double>(c - b).count();
    majorant.stats.merge(s1.since(s0));
    fixed.stats.merge(s2.since(s1));
    ++pass;
  }
  majorant.ms_per_pass =
      std::min(majorant.ms_per_pass, seconds_m / passes * 1e3);
  fixed.ms_per_pass = std::min(fixed.ms_per_pass, seconds_f / passes * 1e3);
  wall_majorant += seconds_m;
  wall_fixed += seconds_f;
}

void print_mode_json(const char* key, const ModeReport& r,
                     std::size_t total_traps) {
  std::printf("\"%s\": {\"ms_per_pass\": %.4f", key, r.ms_per_pass);
  for (const auto& c : core::kUniformisationCounts) {
    std::printf(", \"%s\": %llu", c.key,
                static_cast<unsigned long long>(r.stats.*c.field));
  }
  for (const auto& c : core::kUniformisationSums) {
    std::printf(", \"%s\": %.6e", c.key, r.stats.*c.field);
  }
  std::printf(
      ", \"envelope_efficiency\": %.3f, \"candidates_per_sec\": %.3e, "
      "\"candidates_per_trap_sec\": %.3e}",
      r.stats.envelope_efficiency(), r.candidates_per_sec,
      r.candidates_per_sec / static_cast<double>(total_traps));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  int passes = 0;
  try {
    passes = static_cast<int>(cli.get_count("passes", quick ? 5 : 40));
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "bench_rtn_generation: %s\n", err.what());
    return 2;
  }
  const int batches = quick ? 2 : 5;

  // Setup: one methodology run extracts the six bias/current waveforms and
  // trap populations the RTN generator consumes.
  const auto config = base_config();
  const auto setup = sram::run_methodology(config);
  const physics::SrhModel srh(config.tech);
  std::vector<core::DeviceRtnWorkload> workloads;
  std::size_t total_traps = 0;
  for (int m = 1; m <= 6; ++m) {
    const auto& entry = setup.rtn[static_cast<std::size_t>(m - 1)];
    workloads.emplace_back(
        srh,
        physics::MosDevice(config.tech, physics::MosType::kNmos,
                           sram::transistor_geometry(config.tech,
                                                     config.sizing, m)),
        entry.traps, entry.v_gs, entry.i_d);
    total_traps += entry.traps.size();
  }
  const double t_end = setup.pattern.t_end;

  std::printf("=== RTN generation hot path (6T write, 65nm, pattern 101) "
              "===\n");
  std::printf("%zu traps across 6 transistors, horizon %.3g s; %d passes x "
              "%d batches\n\n",
              total_traps, t_end, passes, batches);

  ModeReport majorant, fixed;
  majorant.ms_per_pass = fixed.ms_per_pass = 1e300;
  run_pass(workloads, t_end, /*use_majorant=*/true, 0);   // warmup
  run_pass(workloads, t_end, /*use_majorant=*/false, 0);  // warmup
  std::uint64_t pass = 1;
  double wall_m = 0.0;
  double wall_f = 0.0;
  for (int b = 0; b < batches; ++b) {
    run_batch(workloads, t_end, passes, pass, majorant, fixed, wall_m,
              wall_f);
  }
  majorant.candidates_per_sec =
      wall_m > 0.0 ? static_cast<double>(majorant.stats.candidates) / wall_m
                   : 0.0;
  fixed.candidates_per_sec =
      wall_f > 0.0 ? static_cast<double>(fixed.stats.candidates) / wall_f
                   : 0.0;

  const double reduction =
      static_cast<double>(fixed.stats.candidates) /
      static_cast<double>(std::max<std::uint64_t>(majorant.stats.candidates,
                                                  1));
  const double speedup = fixed.ms_per_pass / majorant.ms_per_pass;
  std::printf("majorant: %.3f ms/pass, %llu candidates (%llu accepted), "
              "envelope efficiency %.2fx\n",
              majorant.ms_per_pass,
              static_cast<unsigned long long>(majorant.stats.candidates),
              static_cast<unsigned long long>(majorant.stats.accepted),
              majorant.stats.envelope_efficiency());
  std::printf("fixed:    %.3f ms/pass, %llu candidates (%llu accepted)\n",
              fixed.ms_per_pass,
              static_cast<unsigned long long>(fixed.stats.candidates),
              static_cast<unsigned long long>(fixed.stats.accepted));
  std::printf("candidate reduction %.2fx, wall speedup %.2fx\n\n", reduction,
              speedup);

  std::printf("{\"bench\": \"rtn_generation\", \"quick\": %s, "
              "\"traps\": %zu, \"passes_per_batch\": %d, \"batches\": %d, "
              "\"candidate_reduction\": %.3f, \"speedup\": %.3f, ",
              quick ? "true" : "false", total_traps, passes, batches,
              reduction, speedup);
  print_mode_json("majorant", majorant, total_traps);
  std::printf(", ");
  print_mode_json("fixed", fixed, total_traps);
  std::printf("}\n");

  // Contract checks (these make the ctest registration meaningful).
  if (reduction < 3.0) {
    std::printf("\nFAIL: candidate reduction %.2fx below the 3x contract\n",
                reduction);
    return 1;
  }
  // A pass times only the sampler (propensities are prebuilt in the
  // workloads), so the candidates the envelope saves must show up as wall
  // clock: the contract is a 1.3x speedup over fixed-bound thinning.
  // Quick mode times too few passes for a tight line — gate it loosely so
  // scheduler noise cannot flake the smoke test, and say so.
  const double speedup_floor = quick ? 0.7 : 1.3;
  if (quick) {
    std::printf("note: speedup gate relaxed to %.1fx in quick mode "
                "(full gate: 1.3x)\n",
                speedup_floor);
  }
  if (speedup < speedup_floor) {
    std::printf("\nFAIL: majorant wall speedup %.2fx below the %.1fx "
                "contract\n",
                speedup, speedup_floor);
    return 1;
  }
  // Loose distributional cross-check: both modes realise the same switch
  // law, so with thousands of accepted transitions the totals must agree
  // to ~10% (the equivalence tests hold the tight line).
  const auto lo = std::min(majorant.stats.accepted, fixed.stats.accepted);
  const auto hi = std::max(majorant.stats.accepted, fixed.stats.accepted);
  if (lo > 2000 &&
      static_cast<double>(hi - lo) > 0.1 * static_cast<double>(hi)) {
    std::printf("\nFAIL: accepted-transition totals diverge (majorant %llu, "
                "fixed %llu)\n",
                static_cast<unsigned long long>(majorant.stats.accepted),
                static_cast<unsigned long long>(fixed.stats.accepted));
    return 1;
  }
  return 0;
}
