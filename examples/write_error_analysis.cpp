// The paper's headline application (Fig. 8): run the full SAMURAI+SPICE
// methodology on a 6T SRAM cell writing a bit pattern, with optional RTN
// amplitude scaling, and report write errors / slow-down per slot.
//
//   ./write_error_analysis [--node 90nm] [--bits 110101001] [--scale 30]
//                          [--seed 2024] [--coupled]
//
// Exits 0 when every write lands, 1 when the RTN-injected (or, with
// --coupled, the coupled) run shows a write error, and 2 with usage naming
// the option when the command line is rejected.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "sram/coupled.hpp"
#include "sram/methodology.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

std::vector<int> parse_bits(const std::string& text) {
  std::vector<int> bits;
  for (char ch : text) {
    if (ch == '0' || ch == '1') bits.push_back(ch - '0');
  }
  if (bits.empty()) throw std::invalid_argument("--bits needs 0/1 characters");
  return bits;
}

const char* outcome_name(sram::OpOutcome outcome) {
  switch (outcome) {
    case sram::OpOutcome::kOk: return "ok";
    case sram::OpOutcome::kSlow: return "SLOW";
    case sram::OpOutcome::kError: return "ERROR";
  }
  return "?";
}

void print_report(const char* title, const sram::PatternReport& report) {
  util::Table table({"slot", "op", "expected", "Q at slot end (V)", "outcome"});
  for (std::size_t k = 0; k < report.ops.size(); ++k) {
    const auto& op = report.ops[k];
    table.add_row({static_cast<long long>(k), sram::op_name(op.op),
                   static_cast<long long>(op.expected_bit),
                   op.q_at_slot_end, std::string(outcome_name(op.outcome))});
  }
  std::printf("%s\n", title);
  table.print(std::cout);
  std::printf("=> any_error=%s any_slow=%s\n\n",
              report.any_error ? "yes" : "no", report.any_slow ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  sram::MethodologyConfig config;
  try {
    cli.require_declared({"node", "vdd", "node-cap", "period", "bits", "seed",
                          "scale", "coupled"});
    config.tech = physics::technology(cli.get_string("node", "90nm"));
    // Default to the margin regime the paper targets: reduced supply and a
    // bitline-loaded storage node (see DESIGN.md) so RTN has visible bite.
    config.tech.v_dd = cli.get_double("vdd", 0.9);
    config.sizing.extra_node_cap = cli.get_double("node-cap", 40e-15);
    config.timing.period = cli.get_double("period", 1e-9);
    config.ops =
        sram::ops_from_bits(parse_bits(cli.get_string("bits", "110101001")));
    config.seed = cli.get_seed("seed", 2024);
    config.rtn_scale = cli.get_double("scale", 30.0);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr,
                 "write_error_analysis: %s\n"
                 "usage: write_error_analysis [--node N] [--vdd V] "
                 "[--node-cap F] [--period S] [--bits 0101..] [--seed N] "
                 "[--scale X] [--coupled]\n"
                 "exit status: 0 no write error, 1 write error, "
                 "2 rejected command line\n",
                 err.what());
    return 2;
  }

  std::printf("SRAM write-error analysis — %s, %zu ops, RTN x%.0f, seed %llu\n\n",
              config.tech.name.c_str(), config.ops.size(), config.rtn_scale,
              static_cast<unsigned long long>(config.seed));

  if (cli.has("coupled")) {
    const auto result = sram::run_coupled(config);
    print_report("Bi-directionally coupled run:", result.report);
    return result.report.any_error ? 1 : 0;
  }

  const auto result = sram::run_methodology(config);
  print_report("Nominal (no RTN):", result.nominal_report);
  print_report("With SAMURAI RTN injected:", result.rtn_report);

  // Per-transistor RTN summary (paper Fig. 8 (b)-(d) in numbers).
  util::Table rtn_table({"device", "traps", "switches", "max filled",
                         "peak |I_RTN| (uA)"});
  for (const auto& entry : result.rtn) {
    double max_filled = entry.n_filled.initial_value();
    for (double v : entry.n_filled.values()) max_filled = std::max(max_filled, v);
    double peak = 0.0;
    for (double v : entry.i_rtn.values()) peak = std::max(peak, std::abs(v));
    rtn_table.add_row({entry.name, static_cast<long long>(entry.traps.size()),
                       static_cast<long long>(entry.stats.accepted),
                       max_filled, peak * 1e6});
  }
  std::printf("Per-transistor SAMURAI traces:\n");
  rtn_table.print(std::cout);

  // Plot Q(t) nominal vs with RTN.
  util::Series nominal{"Q nominal", result.nominal.times(),
                       result.nominal.voltage_samples(result.q_node)};
  util::Series with_rtn{"Q with RTN", result.with_rtn.times(),
                        result.with_rtn.voltage_samples(result.q_node)};
  util::PlotOptions options;
  options.title = "Stored bit Q(t): nominal vs RTN-injected";
  options.x_label = "t (s)";
  options.y_label = "V";
  std::printf("\n");
  util::plot(std::cout, {nominal, with_rtn}, options);
  return result.rtn_report.any_error ? 1 : 0;
}
