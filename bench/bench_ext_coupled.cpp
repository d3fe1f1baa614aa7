// Extension bench (paper future-work #1): staged methodology (biases
// pre-computed from an RTN-free run) vs bi-directionally coupled
// simulation (trap chains driven by the actual, RTN-perturbed node
// voltages) on the same pattern, seeds and scale.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "sram/coupled.hpp"
#include "sram/methodology.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

double rms_difference(const spice::TransientResult& a, const std::string& node_a,
                      const spice::TransientResult& b, const std::string& node_b,
                      double t_end) {
  double sum = 0.0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const double t = t_end * (i + 0.5) / n;
    const double d = a.voltage_at(node_a, t) - b.voltage_at(node_b, t);
    sum += d * d;
  }
  return std::sqrt(sum / n);
}

template <typename F>
double timed_ms(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  sram::MethodologyConfig config;
  try {
    cli.require_declared({"node", "vdd", "node-cap", "period", "scale"});
    config.tech = physics::technology(cli.get_string("node", "90nm"));
    config.tech.v_dd = cli.get_double("vdd", 0.9);
    config.sizing.extra_node_cap = cli.get_double("node-cap", 40e-15);
    config.timing.period = cli.get_double("period", 1e-9);
    config.rtn_scale = cli.get_double("scale", 30.0);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr,
                 "bench_ext_coupled: %s\n"
                 "usage: bench_ext_coupled [--node N] [--vdd V] "
                 "[--node-cap F] [--period S] [--scale X]\n",
                 err.what());
    return 2;
  }
  config.ops = sram::ops_from_bits({1, 1, 0, 1, 0});

  std::printf("=== Extension 1: staged vs bi-directionally coupled RTN ===\n");
  std::printf("%s, pattern 11010, RTN x%.0f\n\n", config.tech.name.c_str(),
              config.rtn_scale);

  util::Table table({"seed", "staged outcome", "coupled outcome",
                     "RMS ΔQ (mV)", "staged switches", "coupled switches",
                     "staged ms", "coupled ms"});
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    config.seed = seed;
    sram::MethodologyResult staged;
    sram::CoupledResult coupled;
    const double staged_ms = timed_ms([&] { staged = sram::run_methodology(config); });
    const double coupled_ms = timed_ms([&] { coupled = sram::run_coupled(config); });

    std::uint64_t staged_switches = 0;
    for (const auto& entry : staged.rtn) staged_switches += entry.stats.accepted;
    std::uint64_t coupled_switches = 0;
    for (const auto& trace : coupled.n_filled) coupled_switches += trace.num_steps();

    auto outcome = [](bool error, bool slow) {
      return std::string(error ? "ERROR" : slow ? "slow" : "ok");
    };
    table.add_row({static_cast<long long>(seed),
                   outcome(staged.rtn_report.any_error, staged.rtn_report.any_slow),
                   outcome(coupled.report.any_error, coupled.report.any_slow),
                   1e3 * rms_difference(staged.with_rtn, staged.q_node,
                                        coupled.transient, coupled.q_node,
                                        staged.pattern.t_end),
                   static_cast<long long>(staged_switches),
                   static_cast<long long>(coupled_switches), staged_ms,
                   coupled_ms});
  }
  table.print(std::cout);

  std::printf("\nExpected shape: the coupled run is systematically *more*\n"
              "pessimistic near the margin: when RTN delays the write, the\n"
              "trap chains keep seeing the delayed (still-biased) node\n"
              "voltages, so the opposing glitch persists instead of dying\n"
              "with the nominal trajectory — precisely the 'higher-order'\n"
              "bi-directional effect the paper's future-work #1 targets.\n"
              "The staged run under-predicts these failures at comparable\n"
              "cost on cell-sized circuits.\n");
  return 0;
}
