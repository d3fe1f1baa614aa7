#include "physics/surface_potential.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "physics/technology.hpp"

namespace samurai::physics {
namespace {

class SurfacePotentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SurfacePotentialTest, PsiIsMonotoneInGateBias) {
  const auto tech = technology(GetParam());
  const SurfacePotentialSolver solver(tech);
  double prev = solver.solve_psi_s(-1.0);
  for (double v = -0.9; v <= 2.0 * tech.v_dd; v += 0.05) {
    const double psi = solver.solve_psi_s(v);
    EXPECT_GE(psi, prev - 1e-9) << "at V=" << v;
    prev = psi;
  }
}

TEST_P(SurfacePotentialTest, StrongInversionPinsNearTwoPhiF) {
  const auto tech = technology(GetParam());
  const SurfacePotentialSolver solver(tech);
  const double psi = solver.solve_psi_s(1.5 * tech.v_dd);
  const double two_phi_f = 2.0 * tech.phi_f();
  // Above threshold ψ_s sits within a handful of φ_t above 2φ_F.
  EXPECT_GT(psi, two_phi_f);
  EXPECT_LT(psi, two_phi_f + 10.0 * tech.phi_t());
}

TEST_P(SurfacePotentialTest, OxideFieldGrowsWithBias) {
  const auto tech = technology(GetParam());
  const SurfacePotentialSolver solver(tech);
  const auto low = solver.solve(0.2);
  const auto high = solver.solve(tech.v_dd);
  EXPECT_GT(high.f_ox, low.f_ox);
  EXPECT_GT(high.f_ox, 0.0);
}

TEST_P(SurfacePotentialTest, FermiAlignmentSweepsThroughZero) {
  const auto tech = technology(GetParam());
  const SurfacePotentialSolver solver(tech);
  // Depleted surface: E_F below E_i; inverted surface: E_F above E_i.
  EXPECT_LT(solver.solve(-0.8).ef_minus_ei, 0.0);
  EXPECT_GT(solver.solve(tech.v_dd).ef_minus_ei, 0.0);
}

// solve_psi_s stops bisecting once the midpoint rounds onto a bracket
// end; that must return the exact bits of the plain fixed-count loop, on
// the 4096-point grid SrhModel tabulates, at four supplies per node.
TEST_P(SurfacePotentialTest, EarlyStopBisectionMatchesFixedIterations) {
  for (double supply_scale : {0.75, 1.0, 1.25, 1.5}) {
    auto tech = technology(GetParam());
    tech.v_dd *= supply_scale;
    const SurfacePotentialSolver solver(tech);
    const auto fixed_iterations = [&](double v_gb) {
      double lo = -1.5;
      double hi = 2.0 * tech.phi_f() + 30.0 * tech.phi_t();
      if (solver.gate_voltage_of_psi(lo) >= v_gb) return lo;
      if (solver.gate_voltage_of_psi(hi) <= v_gb) return hi;
      for (int iter = 0; iter < 80; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (solver.gate_voltage_of_psi(mid) < v_gb) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      return 0.5 * (lo + hi);
    };
    const double lo = -1.0;
    const double step = (2.0 * tech.v_dd + 1.0 - lo) / 4095.0;
    int mismatches = 0;
    for (int i = 0; i < 4096; ++i) {
      const double v = lo + step * static_cast<double>(i);
      if (std::bit_cast<std::uint64_t>(solver.solve_psi_s(v)) !=
          std::bit_cast<std::uint64_t>(fixed_iterations(v))) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "v_dd=" << tech.v_dd;
  }
}

INSTANTIATE_TEST_SUITE_P(AllNodes, SurfacePotentialTest,
                         ::testing::Values("130nm", "90nm", "65nm", "45nm",
                                           "32nm", "22nm"));

TEST(SurfacePotential, SelfConsistencyOfImplicitEquation) {
  // ψ_s(V) must satisfy the implicit equation to solver accuracy: check by
  // re-solving at a perturbed bias and confirming local Lipschitz response.
  const auto tech = technology("90nm");
  const SurfacePotentialSolver solver(tech);
  const double psi1 = solver.solve_psi_s(0.6);
  const double psi2 = solver.solve_psi_s(0.6 + 1e-6);
  EXPECT_NEAR(psi1, psi2, 1e-5);
}

TEST(SurfacePotential, AccumulationClampsAtBracketEdge) {
  const auto tech = technology("90nm");
  const SurfacePotentialSolver solver(tech);
  const double psi = solver.solve_psi_s(-5.0);
  EXPECT_LE(psi, 0.0);  // negative (accumulation side)
}

}  // namespace
}  // namespace samurai::physics
