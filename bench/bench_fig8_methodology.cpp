// Reproduces paper Fig. 8: the full SAMURAI+SPICE methodology on the bit
// pattern [1,1,0,1,0,1,0,0,1].
//
//  (a) nominal write waveform Q(t)
//  (b) trap occupancy of M5 (gate = Q): active while Q is high
//  (c) trap occupancy of M6 (gate = Q̄): the mirror image
//  (d) the I_RTN(t) trace of pass transistor M2
//  (e) the RTN-injected run with amplitude scaling (paper uses x30), plus
//      a scale sweep showing where write errors appear.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "sram/methodology.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

/// Correlation diagnostic for plots (b)/(c): mean occupancy-switching
/// activity per slot, split by whether Q is high or low in that slot.
struct ActivitySplit {
  double per_ns_q_high = 0.0;
  double per_ns_q_low = 0.0;
};

ActivitySplit split_activity(const core::StepTrace& n_filled,
                             const sram::PatternWaveforms& pattern,
                             const std::vector<int>& bits, bool active_when_high) {
  double high_time = 0.0, low_time = 0.0;
  std::size_t high_events = 0, low_events = 0;
  for (std::size_t k = 0; k < bits.size(); ++k) {
    const double t0 = pattern.slot_start(k);
    const double t1 = t0 + pattern.timing.period;
    const bool q_high = bits[k] == 1;
    (q_high ? high_time : low_time) += pattern.timing.period;
    for (double t : n_filled.times()) {
      if (t < t0 || t >= t1) continue;
      (q_high ? high_events : low_events)++;
    }
  }
  ActivitySplit split;
  split.per_ns_q_high = high_time > 0.0
                            ? static_cast<double>(high_events) / (high_time * 1e9)
                            : 0.0;
  split.per_ns_q_low = low_time > 0.0
                           ? static_cast<double>(low_events) / (low_time * 1e9)
                           : 0.0;
  if (!active_when_high) std::swap(split.per_ns_q_high, split.per_ns_q_low);
  return split;
}

void plot_step(const char* title, const core::StepTrace& trace, double t_end,
               const char* ylabel) {
  std::vector<double> times, values;
  trace.to_paper_arrays(0.0, t_end, times, values);
  util::Series series{"", times, values};
  series.name = ylabel;
  util::PlotOptions options;
  options.title = title;
  options.x_label = "t (s)";
  options.y_label = ylabel;
  options.height = 10;
  util::plot(std::cout, {series}, options);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::vector<int> bits = {1, 1, 0, 1, 0, 1, 0, 0, 1};  // paper pattern
  sram::MethodologyConfig config;
  config.tech = physics::technology(cli.get_string("node", "90nm"));
  // The paper studies RTN at the *minimum operating supply* (its Fig. 2
  // motivation); run the cell under-driven and with bitline-scale loading
  // on the storage nodes so the nominal write has realistic (small)
  // timing margin. Nominal operation is still error-free.
  config.tech.v_dd = cli.get_double("vdd", 0.9);
  config.sizing.extra_node_cap = cli.get_double("node-cap", 40e-15);
  config.timing.period = cli.get_double("period", 1e-9);
  config.ops = sram::ops_from_bits(bits);
  config.seed = cli.get_seed("seed", 2024);
  config.rtn_scale = cli.get_double("scale", 30.0);
  const bool plots = !cli.has("no-plots");
  const auto seeds = static_cast<std::size_t>(cli.get_count("sweep-seeds", 8));

  std::printf("=== Paper Fig. 8: full methodology on pattern "
              "[1,1,0,1,0,1,0,0,1] (%s, seed %llu) ===\n\n",
              config.tech.name.c_str(),
              static_cast<unsigned long long>(config.seed));

  const auto result = sram::run_methodology(config);

  // ---- (a) nominal run. ----------------------------------------------------
  std::printf("(a) nominal SPICE run: %s\n",
              result.nominal_report.any_error ? "WRITE ERROR (unexpected!)"
                                              : "pattern written correctly");
  if (plots) {
    util::Series q{"Q", result.nominal.times(),
                   result.nominal.voltage_samples(result.q_node)};
    util::Series qb{"Q_bar", result.nominal.times(),
                    result.nominal.voltage_samples(result.qb_node)};
    util::PlotOptions options;
    options.title = "Fig. 8(a): nominal Q (solid) and Q_bar (dotted)";
    options.x_label = "t (s)";
    options.y_label = "V";
    options.height = 10;
    util::plot(std::cout, {q, qb}, options);
    std::printf("\n");
  }

  // ---- (b)/(c) trap occupancies of M5 and M6. ------------------------------
  const auto& m5 = result.rtn[4];
  const auto& m6 = result.rtn[5];
  const auto split5 = split_activity(m5.n_filled, result.pattern, bits, true);
  const auto split6 = split_activity(m6.n_filled, result.pattern, bits, false);
  util::Table activity({"device", "gate", "traps", "switch rate Q-high (1/ns)",
                        "switch rate Q-low (1/ns)"});
  activity.add_row({std::string("M5"), std::string("Q"),
                    static_cast<long long>(m5.traps.size()),
                    split5.per_ns_q_high, split5.per_ns_q_low});
  activity.add_row({std::string("M6"), std::string("Q_bar"),
                    static_cast<long long>(m6.traps.size()),
                    split6.per_ns_q_low, split6.per_ns_q_high});
  std::printf("(b),(c) trap activity of the pull-downs (paper: M5 active when"
              " Q high,\n        M6 active when Q low — anti-correlated):\n");
  activity.print(std::cout);
  std::printf("\n");
  if (plots) {
    plot_step("Fig. 8(b): N_filled(t) of M5 (gate = Q)", m5.n_filled,
              result.pattern.t_end, "filled traps");
    plot_step("Fig. 8(c): N_filled(t) of M6 (gate = Q_bar)", m6.n_filled,
              result.pattern.t_end, "filled traps");
  }

  // ---- (d) I_RTN of M2. -----------------------------------------------------
  const auto& m2 = result.rtn[1];
  double peak = 0.0;
  for (double v : m2.i_rtn.values()) peak = std::max(peak, std::abs(v));
  std::printf("(d) I_RTN trace of pass transistor M2: %zu traps, %llu "
              "transitions, peak |I_RTN| = %.2f uA (x%.0f scaling)\n\n",
              m2.traps.size(),
              static_cast<unsigned long long>(m2.stats.accepted), peak * 1e6,
              config.rtn_scale);
  if (plots) {
    util::Series s{"I_RTN(M2) uA", m2.i_rtn.times(), {}};
    s.y.reserve(m2.i_rtn.size());
    for (double v : m2.i_rtn.values()) s.y.push_back(v * 1e6);
    util::PlotOptions options;
    options.title = "Fig. 8(d): I_RTN(t) of M2";
    options.x_label = "t (s)";
    options.y_label = "uA";
    options.height = 10;
    util::plot(std::cout, {s}, options);
    std::printf("\n");
  }

  // ---- (e) RTN-injected run + scale sweep. ----------------------------------
  // The cell is deliberately operated at its timing margin (the nominal
  // write itself regenerates shortly after WL falls), so slow-down is
  // reported *relative to the nominal run*: the extra settle time RTN adds.
  auto max_extra_settle = [](const sram::PatternReport& rtn_report,
                             const sram::PatternReport& nominal_report) {
    double extra = 0.0;
    for (std::size_t k = 0; k < rtn_report.ops.size(); ++k) {
      if (!rtn_report.ops[k].settle_after_wl ||
          !nominal_report.ops[k].settle_after_wl) {
        continue;
      }
      extra = std::max(extra, *rtn_report.ops[k].settle_after_wl -
                                  *nominal_report.ops[k].settle_after_wl);
    }
    return extra;
  };
  const double extra_settle =
      max_extra_settle(result.rtn_report, result.nominal_report);
  std::printf("(e) RTN-injected run at x%.0f: %s (max extra settle vs "
              "nominal: %.0f ps)\n\n",
              config.rtn_scale,
              result.rtn_report.any_error ? "WRITE ERROR"
              : extra_settle > 20e-12     ? "RTN-slowed write"
                                          : "pattern still written correctly",
              extra_settle * 1e12);
  if (plots) {
    util::Series q{"Q with RTN", result.with_rtn.times(),
                   result.with_rtn.voltage_samples(result.q_node)};
    util::PlotOptions options;
    options.title = "Fig. 8(e): Q(t) with scaled I_RTN injected";
    options.x_label = "t (s)";
    options.y_label = "V";
    options.height = 10;
    util::plot(std::cout, {q}, options);
    std::printf("\n");
  }

  std::printf("Scale sweep (write errors are rare events; the paper scales\n"
              "I_RTN x30 on its illustration seed to surface one — here we\n"
              "sweep scale x seeds and report the first failing seed):\n\n");
  util::Table sweep({"scale", "seeds tried", "errors", "RTN-slowed",
                     "mean extra settle (ps)", "first bad seed"});
  for (double scale : {1.0, 10.0, 30.0, 60.0, 120.0, 200.0}) {
    std::size_t errors = 0, slow = 0;
    double extra_sum = 0.0;
    long long first_bad = -1;
    for (std::size_t s = 0; s < seeds; ++s) {
      sram::MethodologyConfig sweep_config = config;
      sweep_config.rtn_scale = scale;
      sweep_config.seed = config.seed + 1000 * (s + 1);
      const auto sweep_result = sram::run_methodology(sweep_config);
      const double extra = max_extra_settle(sweep_result.rtn_report,
                                            sweep_result.nominal_report);
      extra_sum += extra;
      if (sweep_result.rtn_report.any_error) {
        ++errors;
        if (first_bad < 0) first_bad = static_cast<long long>(sweep_config.seed);
      } else if (extra > 20e-12) {
        ++slow;
      }
    }
    sweep.add_row({scale, static_cast<long long>(seeds),
                   static_cast<long long>(errors), static_cast<long long>(slow),
                   extra_sum / static_cast<double>(seeds) * 1e12, first_bad});
  }
  sweep.print(std::cout);
  std::printf("\nExpected shape (paper): no failures at x1; failures appear\n"
              "as the artificial scaling grows, driven by glitches that\n"
              "straddle WL de-assertion (the Fig. 5 mechanism).\n");
  return 0;
}
