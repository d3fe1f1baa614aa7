// Read-failure analysis (paper footnote 2: "RTN-induced SRAM read
// failures have also been reported [16]. SAMURAI is capable of predicting
// these too").
//
// Read upset is regenerative and razor-sharp: during a read the low node
// rises to a pass-gate/pull-down divider level, and the cell flips iff
// that level crosses the opposite inverter's trip point. RTN therefore
// does not show up as occasional flips of a healthy cell but as a *shift
// of the failure boundary*: how much V_T mismatch on the read pull-down
// (M6) the cell tolerates before a read upsets it. We bisect that
// critical mismatch without RTN and with SAMURAI traces injected (worst
// case over seeds); the difference is the read-stability margin RTN
// consumes.
#include <cstdio>
#include <iostream>

#include "sram/methodology.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

struct Probe {
  sram::MethodologyConfig base;
  std::size_t seeds;
};

enum class Mode { kNominal, kRtnAll, kRtnPullDownOnly };

/// True if the cell survives the read pattern at the given M6 shift.
bool survives(const Probe& probe, double shift, Mode mode) {
  sram::MethodologyConfig config = probe.base;
  config.vth_shifts["M6"] = shift;
  if (mode == Mode::kRtnPullDownOnly) {
    config.rtn_devices = {"M5", "M6"};  // isolate the destabilising side
  }
  if (mode == Mode::kNominal) {
    const auto result = sram::run_methodology(config);
    return !result.nominal_report.any_error;
  }
  for (std::size_t s = 0; s < probe.seeds; ++s) {
    config.seed = 100 + s;
    const auto result = sram::run_methodology(config);
    if (result.rtn_report.any_error) return false;
  }
  return true;
}

/// Bisect the largest surviving shift in [lo, hi].
double critical_shift(const Probe& probe, Mode mode) {
  double lo = 0.0, hi = 0.45;
  if (!survives(probe, lo, mode)) return 0.0;
  for (int iter = 0; iter < 12; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (survives(probe, mid, mode)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  Probe probe;
  probe.base.tech = physics::technology(cli.get_string("node", "90nm"));
  probe.base.sizing.pull_down = 1.0;
  probe.base.sizing.pass_gate = cli.get_double("pg", 2.0);
  probe.base.sizing.extra_node_cap = cli.get_double("node-cap", 10e-15);
  probe.base.timing.period = cli.get_double("period", 1e-9);
  probe.base.ops = {sram::Op::kWrite0, sram::Op::kRead, sram::Op::kRead,
                    sram::Op::kRead};
  probe.base.rtn_scale = cli.get_double("scale", 30.0);
  probe.seeds = static_cast<std::size_t>(cli.get_count("seeds", 5));

  std::printf("=== Read-disturb margin analysis (paper footnote 2) ===\n");
  std::printf("%s, read-prone sizing (PD 1.0 / PG %.1f), W0 + 3 reads, "
              "RTN x%.0f worst of %zu seeds\n\n",
              probe.base.tech.name.c_str(), probe.base.sizing.pass_gate,
              probe.base.rtn_scale, probe.seeds);
  std::printf("Metric: the largest V_T mismatch on the read pull-down M6\n"
              "the cell tolerates before a read flips it.\n\n");

  const double v_dd_full = probe.base.tech.v_dd;
  util::Table table({"V_dd (V)", "critical shift nominal (mV)",
                     "RTN all devices (mV)", "RTN pull-downs only (mV)",
                     "margin lost, pull-down RTN (mV)"});
  for (double frac : {1.0, 0.85, 0.7, 0.6}) {
    probe.base.tech.v_dd = frac * v_dd_full;
    const double nominal = critical_shift(probe, Mode::kNominal);
    const double rtn_all = critical_shift(probe, Mode::kRtnAll);
    const double rtn_pd = critical_shift(probe, Mode::kRtnPullDownOnly);
    table.add_row({probe.base.tech.v_dd, nominal * 1e3, rtn_all * 1e3,
                   rtn_pd * 1e3, (nominal - rtn_pd) * 1e3});
  }
  table.print(std::cout);

  std::printf("\nExpected shape: the tolerable mismatch shrinks with the\n"
              "supply. RTN moves the boundary in *both* directions — traps\n"
              "in the pass gate throttle the disturbing read current\n"
              "(stabilising), traps in the pull-down throttle the current\n"
              "that keeps the low node low (destabilising). With injection\n"
              "restricted to the pull-downs, RTN consumes read margin —\n"
              "the failure mechanism of ref. [16]; with all devices\n"
              "injected the two effects compete and the pass-gate side can\n"
              "win (its few-carrier channel has the larger per-trap ΔI).\n");
  return 0;
}
