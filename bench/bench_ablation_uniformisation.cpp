// Ablation A: Markov uniformisation (Algorithm 1) vs the naive
// fixed-timestep Bernoulli simulation of the same non-stationary chain.
//
// Accuracy metric: the ensemble fill probability at probe times against
// the RK4 master-equation reference. Cost metric: random draws consumed.
// Uniformisation is exact at any rate; the naive method needs steps far
// below 1/λ to approach the right law.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "baseline/gillespie.hpp"
#include "baseline/tau_leaping.hpp"
#include "core/uniformisation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

double ensemble_error(
    const std::function<core::TrapTrajectory(util::Rng&)>& simulate,
    const core::PropensityFunction& propensity, double t_end, int runs,
    util::Rng& rng) {
  const std::vector<double> probes = {0.25 * t_end, 0.5 * t_end, 0.9 * t_end};
  std::vector<double> grid;
  const auto reference = core::master_equation_fill_probability(
      propensity, 0.0, t_end, 0.0, 4000, &grid);
  std::vector<double> filled(probes.size(), 0.0);
  for (int r = 0; r < runs; ++r) {
    util::Rng run_rng = rng.split(static_cast<std::uint64_t>(r) + 1);
    const auto traj = simulate(run_rng);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (traj.state_at(probes[i]) == physics::TrapState::kFilled) {
        filled[i] += 1.0;
      }
    }
  }
  double worst = 0.0;
  const double h = grid[1] - grid[0];
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto idx = static_cast<std::size_t>(probes[i] / h);
    const double expected = reference[idx];
    worst = std::max(worst, std::abs(filled[i] / runs - expected));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int runs = static_cast<int>(cli.get_count("runs", 3000));
  util::Rng rng(cli.get_seed("seed", 77));

  // A strongly modulated chain: rates swing over a decade within the
  // horizon (an SRAM-like duty cycle).
  const double base = 50.0, amp = 45.0, omega = 120.0;
  auto lambda_c = [=](double t) { return base + amp * std::sin(omega * t); };
  auto lambda_e = [=](double t) { return base - amp * std::sin(omega * t); };
  const core::FunctionalPropensity propensity(lambda_c, lambda_e, base + amp);
  const double t_end = 0.2;

  std::printf("=== Ablation A: uniformisation vs naive time-stepping ===\n");
  std::printf("chain: λc,λe = %.0f ± %.0f sin(%.0f t), horizon %.2f s, "
              "%d-run ensembles\n\n", base, amp, omega, t_end, runs);

  util::Table table({"method", "parameter", "draws per run", "max |P_fill "
                     "error|", "exact?"});

  // Uniformisation.
  {
    util::Rng method_rng = rng.split(1);
    core::UniformisationStats stats;
    double draws = 0.0;
    const double err = ensemble_error(
        [&](util::Rng& r) {
          core::UniformisationStats s;
          auto traj = core::simulate_trap(propensity, 0.0, t_end,
                                          physics::TrapState::kEmpty, r, {}, &s);
          draws += static_cast<double>(s.candidates) * 2.0;  // exp + accept
          return traj;
        },
        propensity, t_end, runs, method_rng);
    (void)stats;
    table.add_row({std::string("uniformisation (Alg. 1)"), std::string("-"),
                   draws / runs, err, std::string("yes")});
  }

  // Windowed re-uniformisation (8 windows).
  {
    util::Rng method_rng = rng.split(2);
    std::vector<double> boundaries;
    for (int w = 1; w < 8; ++w) boundaries.push_back(t_end * w / 8.0);
    double draws = 0.0;
    const double err = ensemble_error(
        [&](util::Rng& r) {
          core::UniformisationStats s;
          auto traj = core::simulate_trap_windowed(
              propensity, 0.0, t_end, physics::TrapState::kEmpty, boundaries,
              r, {}, &s);
          draws += static_cast<double>(s.candidates) * 2.0;
          return traj;
        },
        propensity, t_end, runs, method_rng);
    table.add_row({std::string("windowed re-uniformisation"),
                   std::string("8 windows"), draws / runs, err,
                   std::string("yes")});
  }

  // Naive stepping at several resolutions.
  for (double dt : {0.02, 0.005, 0.001, 0.0002}) {
    util::Rng method_rng = rng.split(100 + static_cast<std::uint64_t>(1.0 / dt));
    double draws = 0.0;
    const double err = ensemble_error(
        [&](util::Rng& r) {
          std::uint64_t steps = 0;
          auto traj = baseline::naive_time_stepped(
              propensity, 0.0, t_end, physics::TrapState::kEmpty, r,
              {dt}, &steps);
          draws += static_cast<double>(steps);
          return traj;
        },
        propensity, t_end, runs, method_rng);
    char label[32];
    std::snprintf(label, sizeof label, "dt=%g (λ·dt=%.2f)", dt,
                  (base + amp) * dt);
    table.add_row({std::string("naive time-stepped"), std::string(label),
                   draws / runs, err, std::string("no (O(dt) bias)")});
  }
  // Tau-leaping at several leap lengths: endpoint-exact per leap, so the
  // occupancy stays right even at coarse tau, but the recorded switch
  // activity (not scored here) degrades — see test_tau_leaping.
  for (double tau : {0.02, 0.002}) {
    util::Rng method_rng = rng.split(200 + static_cast<std::uint64_t>(1.0 / tau));
    double draws = 0.0;
    const double err = ensemble_error(
        [&](util::Rng& r) {
          std::uint64_t leaps = 0;
          auto traj = baseline::tau_leaping(propensity, 0.0, t_end,
                                            physics::TrapState::kEmpty, r,
                                            {tau}, &leaps);
          draws += static_cast<double>(leaps);
          return traj;
        },
        propensity, t_end, runs, method_rng);
    char label[40];
    std::snprintf(label, sizeof label, "tau=%g (midpoint-frozen)", tau);
    table.add_row({std::string("tau-leaping"), std::string(label),
                   draws / runs, err,
                   std::string("endpoint-exact only")});
  }
  table.print(std::cout);

  std::printf("\nExpected shape: uniformisation hits the master-equation\n"
              "reference (error ~ ensemble noise, ~1/sqrt(runs)) at a cost\n"
              "of ~2 draws per candidate event; the naive method needs\n"
              "λ·dt << 1 — orders of magnitude more draws — to approach the\n"
              "same accuracy, and is biased at any finite dt.\n");
  return 0;
}
