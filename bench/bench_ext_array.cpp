// Extension bench (paper future-work #3): RTN-induced bit-error statistics
// over an SRAM array with local V_T variation, swept over the RTN
// amplitude scale. Cells are independent Monte-Carlo instances.
#include <cstdio>
#include <iostream>

#include "sram/array.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  sram::ArrayConfig config;
  config.cell.tech = physics::technology(cli.get_string("node", "90nm"));
  // Run at the margin supply with loaded storage nodes (paper Fig. 2's
  // regime) so RTN has a measurable bit-error impact.
  config.cell.tech.v_dd = cli.get_double("vdd", 0.9);
  config.cell.sizing.extra_node_cap = cli.get_double("node-cap", 40e-15);
  config.cell.timing.period = cli.get_double("period", 1e-9);
  config.cell.ops = sram::ops_from_bits({1, 0, 1});
  config.num_cells = static_cast<std::size_t>(cli.get_count("cells", 24));
  config.sigma_vt = cli.get_double("sigma-vt", 0.02);
  config.seed = cli.get_seed("seed", 99);
  config.threads = static_cast<std::size_t>(cli.get_count("threads", 4));

  std::printf("=== Extension 3: array bit-error statistics vs RTN scale ===\n");
  std::printf("%s, %zu cells, sigma_VT = %.0f mV, pattern 101\n\n",
              config.cell.tech.name.c_str(), config.num_cells,
              config.sigma_vt * 1e3);

  util::Table table({"RTN scale", "nominal errors", "errors with RTN",
                     "broken by RTN", "rescued by RTN", "slow cells",
                     "RTN BER"});
  for (double scale : {0.0, 10.0, 30.0, 60.0, 120.0}) {
    config.cell.rtn_scale = scale;
    const auto result = sram::run_array(config);
    table.add_row({scale, static_cast<long long>(result.nominal_errors),
                   static_cast<long long>(result.rtn_errors),
                   static_cast<long long>(result.rtn_only_errors),
                   static_cast<long long>(result.rtn_rescued),
                   static_cast<long long>(result.slow_cells),
                   static_cast<double>(result.rtn_only_errors) /
                       static_cast<double>(config.num_cells)});
  }
  table.print(std::cout);

  std::printf("\nExpected shape: the nominal (scale-independent) error count\n"
              "is set by V_T variation alone; as the RTN scale grows it\n"
              "flips outcomes in *both* directions on marginal cells —\n"
              "breaking some good cells and rescuing some bad ones —\n"
              "because injected RTN weakens aiding and opposing devices\n"
              "alike. The paper's point stands: RTN's incremental effect\n"
              "is concentrated where variation already ate the margin.\n");
  return 0;
}
