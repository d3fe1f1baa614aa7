// Reproduces paper Fig. 5: the effect of I_RTN glitch *timing* on a
// write-1 operation — (i) no glitch: clean write; (ii) glitch that ends
// before WL de-assertion: slowed write; (iii) glitch that persists through
// WL de-assertion: write error.
//
// A rectangular current glitch opposing the pass transistor M1's channel
// current (paper Fig. 4 right) is injected between Q and BL while the
// pattern writes a 1. Also prints a timing/amplitude shmoo showing where
// the slow/error boundaries fall.
#include <cstdio>
#include <iostream>

#include "sram/cell.hpp"
#include "sram/detector.hpp"
#include "sram/pattern.hpp"
#include "spice/analysis.hpp"
#include "spice/devices.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

struct Scenario {
  std::string name;
  double glitch_start;  ///< s, absolute (0 = slot start); <0 = no glitch
  double glitch_end;
  double amplitude;     ///< A
};

struct Outcome {
  sram::PatternReport report;
  spice::TransientResult transient;
  std::string q_node;
  double q_at_wl_off = 0.0;
};

Outcome run_scenario(const physics::Technology& tech,
                     const sram::PatternWaveforms& pattern,
                     const Scenario& scenario) {
  // This cell's regeneration from near-threshold takes tens of ps (its
  // time constants are far smaller than the paper's 90nm testbed), so a
  // write counts as "slowed" when Q settles later than 10 ps after WL
  // de-assertion rather than the detector's default 5% of the slot.
  spice::Circuit circuit;
  const auto handles = sram::build_6t_cell(circuit, tech, {}, "");
  spice::VoltageSource::dc(circuit, "Vdd", circuit.find_node(handles.vdd),
                           spice::kGround, tech.v_dd);
  circuit.add<spice::VoltageSource>(circuit, "Vwl",
                                    circuit.find_node(handles.wl),
                                    spice::kGround, pattern.wl);
  circuit.add<spice::VoltageSource>(circuit, "Vbl",
                                    circuit.find_node(handles.bl),
                                    spice::kGround, pattern.bl);
  circuit.add<spice::VoltageSource>(circuit, "Vblb",
                                    circuit.find_node(handles.blb),
                                    spice::kGround, pattern.blb);
  if (scenario.glitch_start >= 0.0) {
    core::Pwl glitch;
    glitch.append(0.0, 0.0);
    if (scenario.glitch_start > 0.0) glitch.append(scenario.glitch_start, 0.0);
    glitch.append(scenario.glitch_start + 5e-12, scenario.amplitude);
    glitch.append(scenario.glitch_end, scenario.amplitude);
    glitch.append(scenario.glitch_end + 5e-12, 0.0);
    // Current pulled out of Q into BL: opposes the write-1 charging path.
    // Its 5 ps edges are landed exactly.
    circuit
        .add<spice::CurrentSource>("Iglitch", circuit.find_node(handles.q),
                                   circuit.find_node(handles.bl),
                                   std::move(glitch))
        .set_emit_breakpoints(true);
  }
  spice::TransientOptions options;
  options.t_stop = pattern.t_end;
  options.dt_max = pattern.timing.period / 200.0;
  options.dc.nodeset[handles.q] = 0.0;
  options.dc.nodeset[handles.qb] = tech.v_dd;
  options.dc.nodeset[handles.vdd] = tech.v_dd;
  options.dc.nodeset[handles.bl] = tech.v_dd;
  options.dc.nodeset[handles.blb] = tech.v_dd;

  Outcome outcome;
  outcome.transient = spice::transient(circuit, options);
  outcome.q_node = handles.q;
  sram::DetectorOptions detector;
  detector.v_dd = tech.v_dd;
  detector.slow_margin_frac = 0.005;
  outcome.report = sram::check_pattern(outcome.transient.voltage(handles.q),
                                       pattern, detector);
  outcome.q_at_wl_off =
      outcome.transient.voltage_at(handles.q, pattern.wl_off_time(0));
  return outcome;
}

const char* outcome_name(const sram::PatternReport& report) {
  if (report.any_error) return "WRITE ERROR";
  if (report.any_slow) return "slowed write";
  return "clean write";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto tech = physics::technology(cli.get_string("node", "90nm"));
  const double amp = cli.get_double("amp", 260e-6);
  const bool plots = !cli.has("no-plots");

  sram::PatternTiming timing;
  timing.period = 2e-9;
  const auto pattern = sram::build_pattern({sram::Op::kWrite1}, tech.v_dd,
                                           timing);
  const double wl_on = timing.wl_delay_frac * timing.period + timing.edge;
  const double wl_off = pattern.wl_off_time(0);

  std::printf("=== Paper Fig. 5: glitch timing decides the write outcome ===\n");
  std::printf("%s cell, write-1 slot of %.1f ns, WL on %.2f-%.2f ns, glitch "
              "amplitude %.0f uA\n\n",
              tech.name.c_str(), timing.period * 1e9, wl_on * 1e9,
              wl_off * 1e9, amp * 1e6);

  const std::vector<Scenario> scenarios = {
      {"(i) no glitch", -1.0, -1.0, 0.0},
      {"(ii) glitch ends just before WL falls", 0.6e-9, wl_off - 0.036e-9, amp},
      {"(iii) glitch persists past WL fall", 0.7e-9, wl_off + 0.25e-9, amp},
  };

  util::Table table({"scenario", "glitch (ns)", "Q at WL off (V)",
                     "Q at slot end (V)", "outcome"});
  std::vector<util::Series> series;
  for (const auto& scenario : scenarios) {
    const auto outcome = run_scenario(tech, pattern, scenario);
    char window[48];
    if (scenario.glitch_start < 0.0) {
      std::snprintf(window, sizeof window, "-");
    } else {
      std::snprintf(window, sizeof window, "%.2f-%.2f",
                    scenario.glitch_start * 1e9, scenario.glitch_end * 1e9);
    }
    table.add_row({scenario.name, std::string(window), outcome.q_at_wl_off,
                   outcome.report.ops[0].q_at_slot_end,
                   std::string(outcome_name(outcome.report))});
    if (plots) {
      util::Series s;
      s.name = scenario.name.substr(0, 5);
      s.x = outcome.transient.times();
      s.y = outcome.transient.voltage_samples(outcome.q_node);
      series.push_back(std::move(s));
    }
  }
  table.print(std::cout);
  std::printf("\n");

  if (plots) {
    util::PlotOptions options;
    options.title = "Q(t) per scenario (solid Q traces of paper Fig. 5)";
    options.x_label = "t (s)";
    options.y_label = "V";
    options.height = 14;
    util::plot(std::cout, series, options);
    std::printf("\n");
  }

  // Shmoo: glitch-end time vs amplitude.
  std::printf("Shmoo — outcome vs glitch end time and amplitude\n");
  std::printf("(glitch always starts at 0.6 ns; '.'=clean, 's'=slow, "
              "'E'=error; WL falls at %.2f ns)\n\n", wl_off * 1e9);
  std::printf("%10s", "amp (uA)");
  std::vector<double> end_times;
  for (double off : {-450.0, -250.0, -100.0, -50.0, -35.0, -25.0, 0.0, 150.0, 400.0}) {
    end_times.push_back(wl_off + off * 1e-12);
    std::printf(" %5.0f", off);
  }
  std::printf("   (end time rel. WL fall, ps)\n");
  for (double a : {100e-6, 180e-6, 260e-6, 340e-6, 420e-6}) {
    std::printf("%10.0f", a * 1e6);
    for (double end : end_times) {
      const Scenario s{"", 0.6e-9, end, a};
      const auto outcome = run_scenario(tech, pattern, s);
      char mark = '.';
      if (outcome.report.any_error) {
        mark = 'E';
      } else if (outcome.report.any_slow) {
        mark = 's';
      }
      std::printf(" %5c", mark);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape (paper): errors cluster where the glitch\n"
              "persists past WL de-assertion and the amplitude rivals the\n"
              "pass-gate current; earlier-ending glitches only slow the\n"
              "write; small glitches do nothing.\n");
  return 0;
}
