// DRAM retention-time analysis with RTN-driven Variable Retention Time
// (paper conclusion, refs [22],[23]).
//
//   ./dram_retention [--node 45nm] [--devices 10] [--trials 12]
//                    [--cs 25] [--tat 1.5] [--seed 9]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "dram/vrt.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  dram::VrtConfig config;
  config.tech = physics::technology(cli.get_string("node", "45nm"));
  config.storage_cap = cli.get_double("cs", 25.0) * 1e-15;
  config.tat_strength = cli.get_double("tat", 1.5);
  const auto devices = static_cast<std::size_t>(cli.get_count("devices", 10));
  const auto trials = static_cast<std::size_t>(cli.get_count("trials", 12));
  util::Rng rng(cli.get_seed("seed", 9));

  std::printf("DRAM retention under RTN — %s access device, C_s = %.0f fF\n\n",
              config.tech.name.c_str(), config.storage_cap * 1e15);

  const auto population =
      dram::simulate_population(config, rng, devices, trials);

  util::Table table({"cell", "defects", "trials", "t_ret min (ms)",
                     "t_ret max (ms)", "ratio", "class"});
  std::vector<double> all_retentions;
  for (std::size_t d = 0; d < population.size(); ++d) {
    const auto& cell = population[d];
    for (const auto& trial : cell.trials) {
      all_retentions.push_back(trial.retention_time * 1e3);
    }
    table.add_row({static_cast<long long>(d),
                   static_cast<long long>(cell.traps.size()),
                   static_cast<long long>(cell.trials.size()),
                   cell.retention_min * 1e3, cell.retention_max * 1e3,
                   cell.vrt_ratio,
                   std::string(cell.vrt_ratio > 1.3 ? "VRT" : "stable")});
  }
  table.print(std::cout);

  // Retention histogram across the population: VRT shows up as secondary
  // modes below each cell's main retention level.
  std::sort(all_retentions.begin(), all_retentions.end());
  util::Series series{"retention CDF", {}, {}};
  for (std::size_t i = 0; i < all_retentions.size(); ++i) {
    series.x.push_back(all_retentions[i]);
    series.y.push_back(static_cast<double>(i + 1) /
                       static_cast<double>(all_retentions.size()));
  }
  util::PlotOptions options;
  options.title = "Retention-time CDF across the population";
  options.x_label = "t_ret (ms)";
  options.y_label = "CDF";
  options.height = 12;
  std::printf("\n");
  util::plot(std::cout, {series}, options);
  std::printf("\nSteps in a single cell's retention between trials (the\n"
              "'ratio' column) are the VRT signature: one slow defect\n"
              "toggling a trap-assisted leakage path.\n");
  return 0;
}
