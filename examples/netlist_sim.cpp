// Standalone netlist simulator (the SpiceOPUS role): read a SPICE-style
// deck, run the DC operating point and any .tran analysis, and print the
// .print'ed node waveforms as a table, CSV or ASCII plot.
//
//   ./netlist_sim deck.sp [--csv out.csv] [--plot] [--points 25]
//
// With no file argument, runs a built-in demo deck (an RC step response).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "spice/parser.hpp"
#include "spice/rtn_integration.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

constexpr const char* kDemoDeck = R"(demo: RC step response
Vin in 0 PWL(0 0 1n 0 1.1n 1 10n 1)
R1 in out 1k
C1 out 0 1p
.tran 20p 10n
.print v(in) v(out)
.end
)";

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  std::string text;
  if (cli.positional().empty()) {
    std::printf("(no deck given: running the built-in RC demo)\n\n");
    text = kDemoDeck;
  } else {
    std::ifstream file(cli.positional()[0]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", cli.positional()[0].c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  spice::ParsedNetlist parsed;
  try {
    parsed = spice::parse_netlist(text);
  } catch (const spice::ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  if (!parsed.title.empty()) std::printf("title: %s\n", parsed.title.c_str());
  std::printf("nodes: %zu, devices: %zu, analysis: %s\n\n",
              parsed.circuit->num_nodes(), parsed.circuit->devices().size(),
              parsed.has_tran ? "transient" : "DC only");

  spice::TransientResult result;
  spice::RtnTransientResult rtn_result;
  const bool with_rtn = !parsed.rtn_requests.empty() && parsed.has_tran;
  try {
    if (with_rtn) {
      rtn_result = spice::run_netlist_rtn(text);
      result = rtn_result.with_rtn;
      std::printf("SAMURAI RTN injected into %zu device(s):\n",
                  rtn_result.traces.size());
      for (const auto& trace : rtn_result.traces) {
        std::printf("  %s: %zu traps, %llu transitions\n",
                    trace.device.c_str(), trace.traps.size(),
                    static_cast<unsigned long long>(trace.stats.accepted));
      }
      std::printf("\n");
    } else {
      result = parsed.has_tran ? spice::transient(*parsed.circuit, parsed.tran)
                               : spice::run_netlist(text);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simulation failed: %s\n", e.what());
    return 1;
  }

  std::vector<std::string> nodes = parsed.print_nodes;
  if (nodes.empty()) nodes = result.node_names();

  const auto csv_path = cli.get_string("csv", "");
  if (!csv_path.empty()) {
    std::vector<std::string> headers = {"time"};
    headers.insert(headers.end(), nodes.begin(), nodes.end());
    util::Table table(std::move(headers), 9);
    for (std::size_t i = 0; i < result.times().size(); ++i) {
      std::vector<util::Cell> row = {result.times()[i]};
      for (const auto& node : nodes) {
        row.emplace_back(result.voltage_samples(node)[i]);
      }
      table.add_row(std::move(row));
    }
    table.write_csv_file(csv_path);
    std::printf("wrote %zu points to %s\n", result.times().size(),
                csv_path.c_str());
    return 0;
  }

  if (cli.has("plot") || cli.positional().empty()) {
    std::vector<util::Series> series;
    for (const auto& node : nodes) {
      series.push_back({node, result.times(), result.voltage_samples(node)});
    }
    util::PlotOptions options;
    options.title = parsed.title.empty() ? "transient" : parsed.title;
    options.x_label = "t (s)";
    options.y_label = "V";
    util::plot(std::cout, series, options);
    return 0;
  }

  // Default: decimated table.
  const auto points = static_cast<std::size_t>(cli.get_count("points", 25));
  std::vector<std::string> headers = {"time (s)"};
  headers.insert(headers.end(), nodes.begin(), nodes.end());
  util::Table table(std::move(headers));
  const std::size_t n = result.times().size();
  const std::size_t stride = std::max<std::size_t>(1, n / points);
  for (std::size_t i = 0; i < n; i += stride) {
    std::vector<util::Cell> row = {result.times()[i]};
    for (const auto& node : nodes) {
      row.emplace_back(result.voltage_samples(node)[i]);
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}
