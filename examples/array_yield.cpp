// Array-level yield estimation (paper future-work #3), now driven by the
// campaign runtime: the cell Monte-Carlo is sharded, folds through
// streaming accumulators (Wilson-interval bit-error rate, Welford trap
// statistics), and — when a checkpoint directory is given — survives
// kills and resumes from the last completed shard, stopping early once
// the error-rate confidence interval meets the target.
//
//   ./array_yield [--node 90nm] [--cells 32] [--sigma-vt 0.02]
//                 [--scale 30] [--bits 101] [--seed 77] [--threads 4]
//                 [--shard 8] [--dir out/] [--resume] [--target-rhw 0.5]
//                 [--detail]
#include <cstdio>
#include <iostream>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "sram/array.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  campaign::Manifest manifest;
  manifest.kind = campaign::CampaignKind::kArrayYield;
  manifest.name = "array_yield";
  manifest.node = cli.get_string("node", "90nm");
  manifest.v_dd = cli.get_double("vdd", 0.9);
  manifest.extra_node_cap = cli.get_double("node-cap", 40e-15);
  manifest.period = cli.get_double("period", 1e-9);
  manifest.bits = cli.get_string("bits", "101");
  manifest.rtn_scale = cli.get_double("scale", 30.0);
  manifest.budget = cli.get_u64("cells", 32);
  manifest.shard_size = cli.get_u64("shard", 8);
  manifest.sigma_vt = cli.get_double("sigma-vt", 0.02);
  manifest.seed = cli.get_seed("seed", 77);
  manifest.threads = cli.get_u64("threads", 4);
  manifest.target_rel_half_width = cli.get_double("target-rhw", 0.0);
  manifest.min_samples = cli.get_u64("min-samples", 0);

  std::printf("SRAM array Monte-Carlo — %s, %llu cells, sigma_VT=%.0f mV, "
              "RTN x%.0f\n\n",
              manifest.node.c_str(),
              static_cast<unsigned long long>(manifest.budget),
              manifest.sigma_vt * 1e3, manifest.rtn_scale);

  campaign::RunOptions options;
  options.dir = cli.get_string("dir", "");
  options.progress = &std::cerr;
  const auto result = cli.has("resume")
                          ? campaign::resume_campaign(options)
                          : campaign::run_campaign(manifest, options);

  // Optional per-cell detail: replay individual cells from the same
  // streams (identical outcomes; the campaign itself only keeps the
  // streaming fold, which is what makes million-cell budgets possible).
  if (cli.has("detail")) {
    const auto config = campaign::array_config_from(manifest);
    util::Table table({"cell", "traps", "RTN switches", "nominal", "with RTN"});
    for (std::uint64_t i = 0; i < result.samples_done; ++i) {
      const auto cell =
          sram::simulate_array_cell(config, static_cast<std::size_t>(i));
      table.add_row({static_cast<long long>(cell.index),
                     static_cast<long long>(cell.total_traps),
                     static_cast<long long>(cell.rtn_switches),
                     std::string(cell.nominal_error ? "ERROR" : "ok"),
                     std::string(cell.rtn_error ? "ERROR"
                                 : cell.rtn_slow  ? "slow"
                                                  : "ok")});
    }
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf("Summary: %llu cells simulated (%llu shards%s), "
              "%llu fail nominally, %llu RTN-only errors, %llu slow\n",
              static_cast<unsigned long long>(result.samples_done),
              static_cast<unsigned long long>(result.shards_done),
              result.stopped_early ? ", stopped early" : "",
              static_cast<unsigned long long>(result.nominal_fails.successes),
              static_cast<unsigned long long>(result.fails.successes),
              static_cast<unsigned long long>(result.slow.successes));
  std::printf("RTN-induced bit-error rate: %.4f  (Wilson %g%% CI "
              "[%.4f, %.4f]), mean traps/cell %.2f\n",
              result.estimate, 95.0, result.ci.lo, result.ci.hi,
              result.value.mean);
  if (result.stopped_early) {
    std::printf("Early stop saved %llu of %llu budgeted cells\n",
                static_cast<unsigned long long>(result.budget_saved),
                static_cast<unsigned long long>(manifest.budget));
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
