#include "osc/ring.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "spice/devices.hpp"

namespace samurai::osc {
namespace {

TEST(Ring, RequiresOddStageCount) {
  spice::Circuit circuit;
  RingConfig config;
  config.tech = physics::technology("90nm");
  config.stages = 4;
  EXPECT_THROW(build_ring(circuit, config), std::invalid_argument);
  config.stages = 1;
  EXPECT_THROW(build_ring(circuit, config), std::invalid_argument);
}

TEST(Ring, RtnAnalysisRejectsAStageCountBeforeAllocating) {
  // A CLI's -1 cast to size_t is odd, so only the upper limit stops it
  // before two requests and a nodeset per stage are allocated.
  RingConfig config;
  config.tech = physics::technology("90nm");
  config.stages = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(ring_rtn_analysis(config, 5, 30.0), std::invalid_argument);
  config.stages = 10003;
  EXPECT_THROW(ring_rtn_analysis(config, 5, 30.0), std::invalid_argument);
  spice::Circuit circuit;
  EXPECT_THROW(build_ring(circuit, config), std::invalid_argument);
  config.stages = 6;
  EXPECT_THROW(ring_rtn_analysis(config, 5, 30.0), std::invalid_argument);
}

TEST(Ring, BuildCreatesStagesAndSupply) {
  spice::Circuit circuit;
  RingConfig config;
  config.tech = physics::technology("90nm");
  config.stages = 5;
  const auto build = build_ring(circuit, config);
  EXPECT_EQ(build.stage_nodes.size(), 5u);
  EXPECT_TRUE(circuit.has_node("n0"));
  EXPECT_TRUE(circuit.has_node("n4"));
  EXPECT_NE(circuit.find<spice::Mosfet>("MN0"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("MP4"), nullptr);
}

TEST(Ring, Oscillates) {
  spice::Circuit circuit;
  RingConfig config;
  config.tech = physics::technology("90nm");
  config.stages = 5;
  config.t_stop = 30e-9;
  const auto build = build_ring(circuit, config);
  spice::TransientOptions options;
  options.t_stop = config.t_stop;
  options.dt_max = config.t_stop / 3000.0;
  for (std::size_t s = 0; s < build.stage_nodes.size(); ++s) {
    options.dc.nodeset[build.stage_nodes[s]] =
        (s % 2 == 0) ? 0.0 : config.tech.v_dd;
  }
  const auto result = spice::transient(circuit, options);
  const auto crossings = rising_crossings(
      result.voltage(build.stage_nodes[0]), 0.5 * config.tech.v_dd);
  ASSERT_GT(crossings.size(), 6u) << "ring did not oscillate";
  const auto stats = period_statistics(crossings, 2);
  ASSERT_GT(stats.cycles, 3u);
  EXPECT_GT(stats.mean, 0.0);
  // Nominal ring: period jitter is purely numerical, well under 5%.
  EXPECT_LT(stats.stddev / stats.mean, 0.05);
}

TEST(Ring, CrossingDetectionOnSyntheticWave) {
  core::Pwl wave;
  wave.append(0.0, 0.0);
  wave.append(1.0, 1.0);
  wave.append(2.0, 0.0);
  wave.append(3.0, 1.0);
  wave.append(4.0, 0.0);
  const auto crossings = rising_crossings(wave, 0.5);
  ASSERT_EQ(crossings.size(), 2u);
  EXPECT_NEAR(crossings[0], 0.5, 1e-12);
  EXPECT_NEAR(crossings[1], 2.5, 1e-12);
}

TEST(Ring, PeriodStatisticsSkipStartup) {
  const std::vector<double> crossings = {0.0, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5};
  const auto stats = period_statistics(crossings, 1);
  EXPECT_EQ(stats.cycles, 5u);
  EXPECT_NEAR(stats.mean, 1.0, 1e-12);
  EXPECT_NEAR(stats.stddev, 0.0, 1e-12);
  const auto empty = period_statistics({1.0, 2.0}, 4);
  EXPECT_EQ(empty.cycles, 0u);
}

}  // namespace
}  // namespace samurai::osc
