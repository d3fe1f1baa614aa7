// Regression tests for the transient fast path: the reusable Newton
// workspace, the linear-stamp cache and the modified-Newton LU bypass must
// be pure accelerations — same waveforms as the force-refactorize
// reference, zero steady-state allocations — and the adaptive step
// controller must keep its breakpoint/LTE/underflow contracts. The time
// loop's outputs are pinned bit for bit, and a NaN source must fail every
// path through it.
#include "spice/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bit_hash.hpp"
#include "spice/batch.hpp"
#include "spice/devices.hpp"
#include "sram/methodology.hpp"

namespace samurai {
namespace {

/// 1 kΩ || 1 pF driven by `current` (A, of time).
void build_rc(spice::Circuit& circuit, std::function<double(double)> current) {
  const int a = circuit.node("a");
  circuit.add<spice::CallbackCurrentSource>("I1", spice::kGround, a,
                                            std::move(current));
  circuit.add<spice::Resistor>("R1", a, spice::kGround, 1e3);
  circuit.add<spice::Capacitor>("C1", a, spice::kGround, 1e-12);
}

double sine_50mhz(double t) {
  return 1e-3 * std::sin(2.0 * 3.141592653589793 * 5e7 * t);
}

/// A source that reads NaN once the transient leaves t = 0.
double nan_after_start(double t) {
  return t > 0.0 ? std::numeric_limits<double>::quiet_NaN() : 1e-3;
}

/// The message of the std::runtime_error `run` throws ("" if none).
std::string failure_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

sram::MethodologyConfig write_config(bool fast_path) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("65nm");
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 0, 1});
  config.transient.newton.reuse_lu = fast_path;
  config.transient.newton.cache_linear_stamps = fast_path;
  config.transient.dc.newton.reuse_lu = fast_path;
  config.transient.dc.newton.cache_linear_stamps = fast_path;
  return config;
}

TEST(TransientFastPath, MatchesForceRefactorizeWaveforms) {
  // The bypass and the stamp cache change *how* each Newton solve is
  // carried out, never what it converges to: the 6T write waveforms from
  // the fast and the all-caches-off paths must agree within Newton
  // tolerance everywhere on the pattern.
  const auto fast = sram::run_nominal(write_config(true));
  const auto slow = sram::run_nominal(write_config(false));
  EXPECT_GT(fast.result.stats().bypass_hits, 0u);
  EXPECT_EQ(slow.result.stats().bypass_hits, 0u);
  EXPECT_EQ(slow.result.stats().linear_cache_hits, 0u);
  EXPECT_EQ(slow.result.stats().lu_factorizations,
            slow.result.stats().newton_iterations);

  const double t_end = fast.pattern.t_end;
  for (const std::string& name : {fast.handles.q, fast.handles.qb}) {
    double max_diff = 0.0;
    for (int i = 0; i <= 300; ++i) {
      const double t = t_end * i / 300.0;
      max_diff = std::max(max_diff, std::abs(fast.result.voltage_at(name, t) -
                                             slow.result.voltage_at(name, t)));
    }
    EXPECT_LT(max_diff, 2e-4) << "node " << name;
  }
}

TEST(TransientFastPath, WorkspaceReuseIsAllocationFree) {
  const auto config = write_config(true);
  spice::NewtonWorkspace workspace;
  const auto first = sram::run_nominal(config, workspace);
  // Binding a fresh workspace to the circuit allocates exactly once.
  EXPECT_EQ(first.result.stats().workspace_allocations, 1u);
  // Re-running the same-sized cell through the same workspace must not
  // touch the heap again — the acceptance contract of the fast path.
  const auto second = sram::run_nominal(config, workspace);
  EXPECT_EQ(second.result.stats().workspace_allocations, 0u);
  EXPECT_GT(second.result.stats().steps_accepted, 0u);
}

TEST(TransientFastPath, MethodologySharesWorkspaceAcrossPhases) {
  // run_methodology's RTN-injected re-simulation only adds current
  // sources, so it must reuse every buffer the nominal phase allocated.
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.ops = sram::ops_from_bits({1, 0});
  config.seed = 7;
  const auto result = sram::run_methodology(config);
  EXPECT_EQ(result.nominal.stats().workspace_allocations, 1u);
  EXPECT_EQ(result.with_rtn.stats().workspace_allocations, 0u);
}

TEST(StepController, ExtraBreakpointIsLandedExactly) {
  spice::Circuit circuit;
  const int a = circuit.node("a");
  circuit.add<spice::CurrentSource>("I1", spice::kGround, a,
                                    core::Pwl::constant(1e-3));
  circuit.add<spice::Resistor>("R1", a, spice::kGround, 1e3);
  circuit.add<spice::Capacitor>("C1", a, spice::kGround, 1e-12);
  spice::TransientOptions options;
  options.t_stop = 1e-6;
  options.extra_breakpoints = {3.7e-7};
  const auto result = spice::transient(circuit, options);
  bool found = false;
  for (double t : result.times()) {
    if (std::abs(t - 3.7e-7) < 1e-15) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StepController, LteRejectionRetriesAtQuarterStep) {
  // A fast sine into an RC with a deliberately huge initial step: the
  // predictor/corrector error must reject the early steps (retrying at
  // step/4) and still land on the correct trajectory.
  spice::Circuit coarse_circuit;
  build_rc(coarse_circuit, sine_50mhz);
  spice::TransientOptions coarse;
  coarse.t_stop = 100e-9;
  coarse.dt_initial = 5e-9;  // a quarter of the sine period
  coarse.dt_max = 100e-9;
  const auto result = spice::transient(coarse_circuit, coarse);
  EXPECT_GT(result.stats().steps_rejected, 0u);

  // Reference with a conservative step cap: the rejected-and-retried run
  // must agree with it despite starting 250x coarser.
  spice::Circuit fine_circuit;
  build_rc(fine_circuit, sine_50mhz);
  spice::TransientOptions fine;
  fine.t_stop = 100e-9;
  fine.dt_max = 0.2e-9;
  const auto reference = spice::transient(fine_circuit, fine);
  for (double t = 20e-9; t < 100e-9; t += 7e-9) {
    EXPECT_NEAR(result.voltage_at("a", t), reference.voltage_at("a", t), 2e-2)
        << "t=" << t;
  }
}

TEST(StepController, DtMinUnderflowThrows) {
  // Every Newton solve past t = 0 fails on the NaN source, so every step
  // rejects and quarters, and the controller must throw at the minimum
  // step rather than loop forever. The DC solve (t = 0) still converges.
  spice::Circuit circuit;
  build_rc(circuit, nan_after_start);
  spice::TransientOptions options;
  options.t_stop = 1e-6;
  EXPECT_NE(failure_of([&] { (void)spice::transient(circuit, options); })
                .find("step size underflow"),
            std::string::npos);
}

TEST(Transient, NonFiniteSourceFailsEveryPath) {
  // A NaN residual must fail the Newton iteration on every path (a norm
  // reduced with std::max drops the NaN and would pass the convergence
  // test), so no transient returns NaN samples: the adaptive loop
  // rejects down to its underflow throw, the fixed grid throws its
  // Newton failure, the batch throws it naming the failing lane, and a
  // DC solve reports no convergence.
  spice::Circuit dc;
  build_rc(dc, [](double) { return std::numeric_limits<double>::quiet_NaN(); });
  EXPECT_FALSE(spice::dc_operating_point(dc).converged);

  spice::TransientOptions options;
  options.t_stop = 100e-9;
  spice::Circuit adaptive;
  build_rc(adaptive, nan_after_start);
  EXPECT_NE(failure_of([&] { (void)spice::transient(adaptive, options); })
                .find("step size underflow"),
            std::string::npos);

  options.fixed_grid = true;
  spice::Circuit grid;
  build_rc(grid, nan_after_start);
  EXPECT_NE(failure_of([&] { (void)spice::transient(grid, options); })
                .find("did not converge on the fixed grid"),
            std::string::npos);

  spice::Circuit finite_lane;
  spice::Circuit nan_lane;
  build_rc(finite_lane, sine_50mhz);
  build_rc(nan_lane, nan_after_start);
  const std::vector<spice::Circuit*> lanes = {&finite_lane, &nan_lane};
  const std::string batch = failure_of(
      [&] { (void)spice::transient_batch(lanes, options); });
  EXPECT_NE(batch.find("did not converge on the fixed grid"),
            std::string::npos)
      << batch;
  EXPECT_NE(batch.find("lane 1"), std::string::npos) << batch;
}

TEST(Transient, GoldenHashes) {
  // Every way through the time loop, pinned bit for bit (times, node
  // names, samples and every solver counter): a 90 nm 6T write on the
  // adaptive loop and on the fixed grid, a 4-lane batch of it, and an RC
  // with an on_step hook and extra breakpoints on both step modes.
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.tech.v_dd = 0.9;
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 0, 1});

  BitHash adaptive;
  adaptive.add(sram::run_nominal(config).result);
  EXPECT_EQ(adaptive.value(), 0x9d90b8e97fb31a40ULL);

  sram::MethodologyConfig fixed = config;
  fixed.transient.fixed_grid = true;
  BitHash grid;
  grid.add(sram::run_nominal(fixed).result);
  EXPECT_EQ(grid.value(), 0x3993e2198d8aed9aULL);

  std::vector<sram::MethodologyConfig> lanes(4, config);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    lanes[k].vth_shifts["M5"] = 0.01 * static_cast<double>(k);
    lanes[k].vth_shifts["M1"] = -0.007 * static_cast<double>(k);
  }
  spice::BatchWorkspace workspace;
  BitHash batch;
  for (const auto& result : sram::run_nominal_batch(lanes, workspace).results) {
    batch.add(result);
  }
  EXPECT_EQ(batch.value(), 0x9f605ec1d130acd3ULL);

  BitHash rc;
  for (const bool fixed_grid : {true, false}) {
    spice::Circuit circuit;
    build_rc(circuit, sine_50mhz);
    spice::TransientOptions options;
    options.t_stop = 100e-9;
    options.dt_max = 0.7e-9;
    options.extra_breakpoints = {3.7e-9, 41.3e-9};
    options.fixed_grid = fixed_grid;
    double moment = 0.0;
    options.on_step = [&moment](double t, std::span<const double> x) {
      moment += t * x[0];
    };
    rc.add(spice::transient(circuit, options));
    rc.add(moment);
  }
  EXPECT_EQ(rc.value(), 0x0ffd419c41f668c6ULL);
}

}  // namespace
}  // namespace samurai
