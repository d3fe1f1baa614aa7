// Extension bench (paper conclusion, refs [22][23]): DRAM Variable
// Retention Time from RTN-like defects. Samples a population of 1T1C
// cells, measures retention over repeated discharge trials, and reports
// the bimodal toggling (max/min retention ratio) that defines VRT.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "dram/vrt.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  dram::VrtConfig config;
  config.tech = physics::technology(cli.get_string("node", "45nm"));
  config.storage_cap = cli.get_double("cs", 25e-15);
  config.tat_strength = cli.get_double("tat", 1.5);
  const auto devices = static_cast<std::size_t>(cli.get_count("devices", 20));
  const auto trials = static_cast<std::size_t>(cli.get_count("trials", 10));
  util::Rng rng(cli.get_seed("seed", 5));

  std::printf("=== DRAM Variable Retention Time from trap toggling ===\n");
  std::printf("%s access device, C_s = %.0f fF, %zu cells x %zu discharge "
              "trials\n\n",
              config.tech.name.c_str(), config.storage_cap * 1e15, devices,
              trials);

  const auto population = dram::simulate_population(config, rng, devices, trials);

  util::Table table({"cell", "defects", "t_ret min (ms)", "t_ret max (ms)",
                     "VRT ratio", "class"});
  std::size_t affected = 0;
  for (std::size_t d = 0; d < population.size(); ++d) {
    const auto& cell = population[d];
    const bool is_vrt = cell.vrt_ratio > 1.3;
    if (is_vrt) ++affected;
    table.add_row({static_cast<long long>(d),
                   static_cast<long long>(cell.traps.size()),
                   cell.retention_min * 1e3, cell.retention_max * 1e3,
                   cell.vrt_ratio,
                   std::string(is_vrt ? "VRT" : "stable")});
  }
  table.print(std::cout);
  std::printf("\nVRT-affected cells: %zu/%zu\n", affected, population.size());
  std::printf("\nExpected shape (refs [22],[23]): most cells retain a fixed\n"
              "time; cells with a slow near-resonant defect toggle between\n"
              "discrete retention levels (ratio ~2-10x) as the defect opens\n"
              "and closes a trap-assisted junction leakage path.\n");
  return 0;
}
