// Additional methodology coverage: selective injection, the margin
// operating regime, amplitude capping end-to-end, and extra node loading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/rtn_generator.hpp"
#include "physics/constants.hpp"
#include "sram/methodology.hpp"

namespace samurai::sram {
namespace {

MethodologyConfig margin_config() {
  MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.tech.v_dd = 0.9;
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = ops_from_bits({1, 0});
  config.seed = 5;
  config.rtn_scale = 30.0;
  return config;
}

TEST(MethodologyExtras, MarginRegimeStillWritesNominally) {
  const auto result = run_methodology(margin_config());
  EXPECT_FALSE(result.nominal_report.any_error);
}

TEST(MethodologyExtras, ExtraNodeCapSlowsTheWrite) {
  MethodologyConfig fast = margin_config();
  fast.sizing.extra_node_cap = 0.0;
  MethodologyConfig slow = margin_config();  // 40 fF
  const auto fast_run = run_nominal(fast);
  const auto slow_run = run_nominal(slow);
  // Q's 50% crossing in slot 0 comes later with the heavier node.
  auto crossing = [&](const NominalRun& run) {
    const auto q = run.result.voltage_samples(run.handles.q);
    const auto& ts = run.result.times();
    for (std::size_t i = 1; i < ts.size(); ++i) {
      if (q[i - 1] < 0.45 && q[i] >= 0.45) return ts[i];
    }
    return ts.back();
  };
  EXPECT_GT(crossing(slow_run), crossing(fast_run));
}

TEST(MethodologyExtras, SelectiveInjectionIsolatesCancellation) {
  // Injecting into all six devices partially *cancels* (RTN weakens the
  // devices aiding a write and those opposing it alike), so a single
  // device's injection can deviate more than the full set. Verify the
  // subset run differs from the full run, and that the cancellation is
  // visible: M1-only deviation is not smaller than the all-device one.
  MethodologyConfig all = margin_config();
  all.rtn_scale = 60.0;
  MethodologyConfig only_m1 = all;
  only_m1.rtn_devices = {"M1"};
  const auto run_all = run_methodology(all);
  const auto run_m1 = run_methodology(only_m1);

  auto deviation = [&](const MethodologyResult& run) {
    double sum = 0.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const double t = run.pattern.t_end * (i + 0.5) / n;
      const double d = run.with_rtn.voltage_at(run.q_node, t) -
                       run.nominal.voltage_at(run.q_node, t);
      sum += d * d;
    }
    return std::sqrt(sum / n);
  };
  const double dev_all = deviation(run_all);
  const double dev_m1 = deviation(run_m1);
  EXPECT_GT(dev_all, 0.0);
  EXPECT_GT(dev_m1, 0.0);
  EXPECT_GT(std::abs(dev_m1 - dev_all), 0.05 * dev_all);  // genuinely different
  EXPECT_GT(dev_m1, 0.5 * dev_all);  // the cancellation effect
}

TEST(MethodologyExtras, SelectiveInjectionUnknownNameIsInert) {
  MethodologyConfig config = margin_config();
  config.rtn_devices = {"M9"};  // matches nothing: no injection at all
  const auto result = run_methodology(config);
  double max_dev = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double t = result.pattern.t_end * (i + 0.5) / 200;
    max_dev = std::max(max_dev,
                       std::abs(result.with_rtn.voltage_at(result.q_node, t) -
                                result.nominal.voltage_at(result.q_node, t)));
  }
  EXPECT_LT(max_dev, 1e-3);
}

TEST(MethodologyExtras, AmplitudeCapBoundsTraceEverywhere) {
  const auto result = run_methodology(margin_config());
  for (const auto& entry : result.rtn) {
    // ΔI <= q v_sat / L per trap; the trace is bounded by
    // scale * cap * trap_count at every sample.
    const double cap = physics::kElementaryCharge * 1.0e5 /
                       physics::technology("90nm").l_min;
    const double bound =
        30.0 * cap * static_cast<double>(entry.traps.size()) * (1.0 + 1e-9);
    for (double v : entry.i_rtn.values()) {
      EXPECT_LE(std::abs(v), bound) << entry.name;
    }
  }
}

TEST(MethodologyExtras, RtnScaleZeroMatchesNominalAtSlotEnds) {
  // With zero scale the injected sources carry no current and, being
  // grid-sampled, add no breakpoints: the injected run steps on the
  // nominal's grid, so even this margin cell, still regenerating at the
  // slot end, matches it bit for bit.
  MethodologyConfig config = margin_config();
  config.rtn_scale = 0.0;
  const auto result = run_methodology(config);
  for (std::size_t k = 0; k < config.ops.size(); ++k) {
    const double t =
        result.pattern.slot_start(k) + 0.999 * config.timing.period;
    EXPECT_EQ(result.with_rtn.voltage_at(result.q_node, t),
              result.nominal.voltage_at(result.q_node, t))
        << "slot " << k;
  }
}

}  // namespace
}  // namespace samurai::sram
