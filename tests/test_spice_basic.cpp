// Linear-circuit validation of the MNA engine: dividers, RC dynamics and
// source conventions, all against closed-form solutions.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/analysis.hpp"
#include "spice/devices.hpp"

namespace samurai::spice {
namespace {

TEST(Circuit, NodeManagement) {
  Circuit circuit;
  EXPECT_EQ(circuit.node("0"), kGround);
  EXPECT_EQ(circuit.node("gnd"), kGround);
  const int a = circuit.node("a");
  EXPECT_EQ(circuit.node("a"), a);
  EXPECT_NE(circuit.node("b"), a);
  EXPECT_EQ(circuit.num_nodes(), 2u);
  EXPECT_THROW(circuit.find_node("missing"), std::invalid_argument);
}

TEST(Dc, ResistorDivider) {
  Circuit circuit;
  const int in = circuit.node("in");
  const int mid = circuit.node("mid");
  VoltageSource::dc(circuit, "V1", in, kGround, 10.0);
  circuit.add<Resistor>("R1", in, mid, 1000.0);
  circuit.add<Resistor>("R2", mid, kGround, 3000.0);
  const auto result = dc_operating_point(circuit);
  ASSERT_TRUE(result.converged);
  // gmin (1e-12 S) leaks a few nA through the divider: tolerate nV-scale.
  EXPECT_NEAR(result.x[static_cast<std::size_t>(mid)], 7.5, 1e-6);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(in)], 10.0, 1e-6);
}

TEST(Dc, VoltageSourceBranchCurrent) {
  Circuit circuit;
  const int a = circuit.node("a");
  auto& source = VoltageSource::dc(circuit, "V1", a, kGround, 5.0);
  circuit.add<Resistor>("R1", a, kGround, 50.0);
  const auto result = dc_operating_point(circuit);
  ASSERT_TRUE(result.converged);
  // Current flows from + through the source: 0.1 A leaves node a through R,
  // so the branch carries -0.1 A... sign check: i_branch = -I_R.
  EXPECT_NEAR(result.x[static_cast<std::size_t>(source.branch_index())], -0.1,
              1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Circuit circuit;
  const int a = circuit.node("a");
  // 1 mA from ground into node a (SPICE convention: + node is ground).
  circuit.add<CurrentSource>("I1", kGround, a, core::Pwl::constant(1e-3));
  circuit.add<Resistor>("R1", a, kGround, 2000.0);
  const auto result = dc_operating_point(circuit);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(a)], 2.0, 1e-6);
}

TEST(Dc, FloatingNodeHandledByGmin) {
  Circuit circuit;
  const int a = circuit.node("a");
  circuit.add<Capacitor>("C1", a, kGround, 1e-12);  // open in DC
  const auto result = dc_operating_point(circuit);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(a)], 0.0, 1e-6);
}

TEST(Dc, NodesetPullsBistableChoice) {
  // Two back-to-back "latch" resistor loads have one solution; nodeset
  // must at minimum not break a linear solve.
  Circuit circuit;
  const int a = circuit.node("a");
  VoltageSource::dc(circuit, "V1", a, kGround, 1.0);
  circuit.add<Resistor>("R1", a, kGround, 100.0);
  DcOptions options;
  options.nodeset["a"] = 0.3;
  const auto result = dc_operating_point(circuit, options);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(a)], 1.0, 1e-9);
}

TEST(Transient, RcDischargeMatchesAnalytic) {
  // V source steps 1 -> 0 at t=1us through R into C: exponential decay.
  Circuit circuit;
  const int in = circuit.node("in");
  const int out = circuit.node("out");
  core::Pwl step;
  step.append(0.0, 1.0);
  step.append(1e-6, 1.0);
  step.append(1.001e-6, 0.0);
  circuit.add<VoltageSource>(circuit, "V1", in, kGround, step);
  const double r = 1e4, c = 1e-9;  // tau = 10 us
  circuit.add<Resistor>("R1", in, out, r);
  circuit.add<Capacitor>("C1", out, kGround, c);

  TransientOptions options;
  options.t_stop = 30e-6;
  const auto result = transient(circuit, options);
  const double tau = r * c;
  for (double t : {5e-6, 10e-6, 20e-6}) {
    const double expected = std::exp(-(t - 1.001e-6) / tau);
    EXPECT_NEAR(result.voltage_at("out", t), expected, 0.01) << "t=" << t;
  }
  // Before the step the cap is charged to 1 V by the DC solve.
  EXPECT_NEAR(result.voltage_at("out", 0.5e-6), 1.0, 1e-6);
}

TEST(Transient, PwlCurrentInjectionIntoRc) {
  Circuit circuit;
  const int a = circuit.node("a");
  core::Pwl pulse;
  pulse.append(0.0, 0.0);
  pulse.append(1e-6, 0.0);
  pulse.append(1.0001e-6, 1e-3);
  pulse.append(2e-6, 1e-3);
  pulse.append(2.0001e-6, 0.0);
  // The 0.1 ns edges are landed exactly: a grid-sampled source would be
  // read only where the step controller happens to step.
  circuit.add<CurrentSource>("I1", kGround, a, pulse)
      .set_emit_breakpoints(true);
  circuit.add<Resistor>("R1", a, kGround, 1e3);
  TransientOptions options;
  options.t_stop = 3e-6;
  const auto result = transient(circuit, options);
  EXPECT_NEAR(result.voltage_at("a", 1.5e-6), 1.0, 1e-6);
  EXPECT_NEAR(result.voltage_at("a", 2.5e-6), 0.0, 1e-6);
}

TEST(Transient, SlowRcHoldsItsOperatingPoint) {
  // 1 nA into (1 GΩ || 1 nF): τ = 1 s, so over a 1 µs window the node must
  // sit at its 1 V operating point with negligible drift — a check that
  // the companion-model history is initialised from the DC solution.
  Circuit circuit;
  const int a = circuit.node("a");
  circuit.add<CurrentSource>("I1", kGround, a, core::Pwl::constant(1e-9));
  circuit.add<Resistor>("Rleak", a, kGround, 1e9);
  circuit.add<Capacitor>("C1", a, kGround, 1e-9);
  TransientOptions options;
  options.t_stop = 1e-6;
  const auto result = transient(circuit, options);
  EXPECT_NEAR(result.voltage_samples("a").front(), 1.0, 1e-3);
  EXPECT_NEAR(result.voltage_samples("a").back(), 1.0, 1e-3);
}

TEST(Transient, InvalidWindowThrows) {
  Circuit circuit;
  circuit.node("a");
  TransientOptions options;
  options.t_stop = 0.0;
  EXPECT_THROW(transient(circuit, options), std::invalid_argument);
}

TEST(Transient, BreakpointsAreHitExactly) {
  Circuit circuit;
  const int in = circuit.node("in");
  core::Pwl wave;
  wave.append(0.0, 0.0);
  wave.append(3.3e-7, 0.0);
  wave.append(3.4e-7, 1.0);
  circuit.add<VoltageSource>(circuit, "V1", in, kGround, wave);
  circuit.add<Resistor>("R1", in, kGround, 100.0);
  TransientOptions options;
  options.t_stop = 1e-6;
  const auto result = transient(circuit, options);
  bool found = false;
  for (double t : result.times()) {
    if (std::abs(t - 3.3e-7) < 1e-15) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Devices, ConstructionValidation) {
  EXPECT_THROW(Resistor("R", 0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(Resistor("R", 0, 1, -5.0), std::invalid_argument);
  EXPECT_THROW(Capacitor("C", 0, 1, -1e-12), std::invalid_argument);
  EXPECT_THROW(CallbackCurrentSource("I", 0, 1, nullptr),
               std::invalid_argument);
}

TEST(Devices, PulseWaveformShape) {
  const auto wave = pulse_waveform(0.0, 1.0, 1e-9, 0.1e-9, 1e-9, 0.1e-9,
                                   3e-9, 2);
  EXPECT_DOUBLE_EQ(wave.eval(0.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(wave.eval(1.5e-9), 1.0);   // first pulse high
  EXPECT_DOUBLE_EQ(wave.eval(2.5e-9), 0.0);   // between pulses
  EXPECT_DOUBLE_EQ(wave.eval(4.5e-9), 1.0);   // second pulse
  EXPECT_THROW(pulse_waveform(0, 1, 0, 0.1e-9, 1e-9, 0.1e-9, 0.5e-9, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace samurai::spice
