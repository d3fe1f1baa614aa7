#include "physics/srh_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "physics/constants.hpp"
#include "physics/technology.hpp"

namespace samurai::physics {
namespace {

Trap make_trap(double depth_frac, double e_tr) {
  const auto tech = technology("90nm");
  return Trap{depth_frac * tech.t_ox, e_tr, TrapState::kEmpty};
}

TEST(SrhModel, TotalRateMatchesPaperEq1) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.3, 0.5);
  const double expected =
      1.0 / (tech.tau0 * std::exp(tech.gamma_tunnel * trap.y_tr));
  EXPECT_NEAR(model.total_rate(trap), expected, expected * 1e-12);
}

TEST(SrhModel, TotalRateDecaysExponentiallyWithDepth) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const double r1 = model.total_rate(make_trap(0.2, 0.5));
  const double r2 = model.total_rate(make_trap(0.4, 0.5));
  const double expected_ratio =
      std::exp(tech.gamma_tunnel * (0.4 - 0.2) * tech.t_ox);
  EXPECT_NEAR(r1 / r2, expected_ratio, expected_ratio * 1e-9);
}

TEST(SrhModel, TrapOutsideOxideThrows) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  EXPECT_THROW(model.total_rate(Trap{-1e-10, 0.5}), std::invalid_argument);
  EXPECT_THROW(model.total_rate(Trap{2.0 * tech.t_ox, 0.5}),
               std::invalid_argument);
}

// The paper's Eq. 1 invariant: λ_c(t) + λ_e(t) is constant over bias.
TEST(SrhModel, PropensitySumIsBiasIndependent) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.35, 0.6);
  const double total = model.total_rate(trap);
  for (double v = -0.2; v <= 1.5; v += 0.1) {
    const auto p = model.propensities(trap, v);
    EXPECT_NEAR(p.lambda_c + p.lambda_e, total, total * 1e-9) << "V=" << v;
    EXPECT_GE(p.lambda_c, 0.0);
    EXPECT_GE(p.lambda_e, 0.0);
  }
}

// Eq. 2: β = g exp((E_T - E_F)/kT).
TEST(SrhModel, BetaFollowsBoltzmannFactorOfGap) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.3, 0.55);
  const double kt = kBoltzmannEv * tech.temperature;
  for (double v : {0.1, 0.4, 0.8, 1.2}) {
    const double gap = model.trap_fermi_gap(trap, v);
    const double expected = tech.trap_degeneracy * std::exp(gap / kt);
    EXPECT_NEAR(model.beta(trap, v) / expected, 1.0, 1e-9) << "V=" << v;
  }
}

TEST(SrhModel, BetaDecreasesWithGateBias) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.4, 0.6);
  double prev = model.beta(trap, -0.2);
  for (double v = -0.1; v <= 1.5; v += 0.1) {
    const double b = model.beta(trap, v);
    EXPECT_LE(b, prev * (1.0 + 1e-9)) << "V=" << v;
    prev = b;
  }
}

TEST(SrhModel, DeeperTrapsFeelStrongerFieldLeverArm) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap shallow = make_trap(0.1, 0.6);
  const Trap deep = make_trap(0.8, 0.6);
  const double swing_shallow = model.trap_fermi_gap(shallow, 0.0) -
                               model.trap_fermi_gap(shallow, tech.v_dd);
  const double swing_deep =
      model.trap_fermi_gap(deep, 0.0) - model.trap_fermi_gap(deep, tech.v_dd);
  EXPECT_GT(swing_deep, swing_shallow);
}

TEST(SrhModel, StationaryFillIsOneOverOnePlusBeta) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.25, 0.5);
  for (double v : {0.2, 0.6, 1.0}) {
    const double beta = model.beta(trap, v);
    EXPECT_NEAR(model.stationary_fill(trap, v), 1.0 / (1.0 + beta), 1e-12);
  }
}

TEST(SrhModel, FillProbabilityRisesWithBias) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.3, 0.7);
  EXPECT_LT(model.stationary_fill(trap, 0.0), 0.5);
  EXPECT_GT(model.stationary_fill(trap, 1.5 * tech.v_dd),
            model.stationary_fill(trap, 0.0));
}

TEST(SrhModel, ExtremeGapsDoNotOverflow) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap cold = make_trap(0.9, 1.05);   // far above E_F at V=0
  const auto p_cold = model.propensities(cold, -0.5);
  EXPECT_TRUE(std::isfinite(p_cold.lambda_c));
  EXPECT_TRUE(std::isfinite(p_cold.lambda_e));
  const Trap hot = make_trap(0.9, 0.25);
  const auto p_hot = model.propensities(hot, 2.0);
  EXPECT_TRUE(std::isfinite(p_hot.lambda_c));
  EXPECT_TRUE(std::isfinite(p_hot.lambda_e));
}

// A trap with mid-window energy must pass through resonance (β crossing 1)
// somewhere inside the extended gate swing — the mechanism behind the
// bias-dependent activity of paper Fig. 8 (b),(c).
TEST(SrhModel, MidWindowTrapCrossesResonanceInsideSwing) {
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.4, 0.6);
  const double beta_low = model.beta(trap, 0.0);
  const double beta_high = model.beta(trap, 1.5 * tech.v_dd);
  EXPECT_GT(beta_low, 1.0);
  EXPECT_LT(beta_high, 1.0);
}

TEST(SrhModel, TabulatedSurfaceMatchesDirectSolveOutsideTable) {
  // Biases outside [-1, 2 v_dd + 1] fall back to the direct solver; the
  // gap must remain continuous across the table edge.
  const auto tech = technology("90nm");
  const SrhModel model(tech);
  const Trap trap = make_trap(0.3, 0.6);
  const double inside = model.trap_fermi_gap(trap, -0.999);
  const double outside = model.trap_fermi_gap(trap, -1.001);
  EXPECT_NEAR(inside, outside, 5e-3);
}

// The surface-state table is memoised per technology: every model of one
// technology reads the same table object.
TEST(SrhModelMemo, ModelsOfOneTechnologyShareATable) {
  const auto tech = technology("65nm");
  const SrhModel a(tech);
  const SrhModel b(tech);
  EXPECT_EQ(&a.surface_table(), &b.surface_table());
  // Fields the table does not read leave the key alone.
  auto renamed = tech;
  renamed.name = "65nm-variant";
  renamed.tau0 *= 2.0;
  renamed.trap_degeneracy *= 2.0;
  EXPECT_EQ(&SrhModel(renamed).surface_table(), &a.surface_table());
}

TEST(SrhModelMemo, EachKeyFieldSelectsItsOwnTable) {
  const auto base = technology("45nm");
  const SrhModel reference(base);
  const std::vector<std::function<void(Technology&)>> edits = {
      [](Technology& t) { t.v_fb += 0.05; },
      [](Technology& t) { t.t_ox *= 1.1; },
      [](Technology& t) { t.n_a *= 1.5; },
      [](Technology& t) { t.temperature += 25.0; },
      [](Technology& t) { t.v_dd += 0.1; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    auto tech = base;
    edits[i](tech);
    const SrhModel model(tech);
    EXPECT_NE(&model.surface_table(), &reference.surface_table())
        << "key field " << i;
    EXPECT_NE(model.surface_table().f_ox, reference.surface_table().f_ox)
        << "key field " << i;
  }
}

// Sweeping more distinct supplies than the cap holds the memo at the cap;
// a live model keeps its evicted table, and the evicted key rebuilds the
// same bits.
TEST(SrhModelMemo, CapEvictsLeastRecentlyUsedAndRebuildsIdentically) {
  auto tech = technology("32nm");
  tech.v_dd = 0.517;  // a supply no other test uses
  const SrhModel first(tech);
  const SurfaceTable& kept = first.surface_table();
  for (std::size_t i = 1; i <= SrhModel::kMaxMemoisedTables + 4; ++i) {
    auto other = tech;
    other.v_dd += 0.01 * static_cast<double>(i);
    const SrhModel model(other);
    EXPECT_LE(SrhModel::memoised_tables(), SrhModel::kMaxMemoisedTables);
  }
  EXPECT_EQ(SrhModel::memoised_tables(), SrhModel::kMaxMemoisedTables);

  const SrhModel rebuilt(tech);
  EXPECT_NE(&rebuilt.surface_table(), &kept);  // evicted, so built anew
  EXPECT_EQ(rebuilt.surface_table().lo, kept.lo);
  EXPECT_EQ(rebuilt.surface_table().step, kept.step);
  EXPECT_EQ(rebuilt.surface_table().f_ox, kept.f_ox);
  EXPECT_EQ(rebuilt.surface_table().ef_minus_ei, kept.ef_minus_ei);
  // ...and the next request hits the rebuilt table.
  EXPECT_EQ(&SrhModel(tech).surface_table(), &rebuilt.surface_table());
}

// Eight threads constructing models of one not-yet-memoised technology at
// once: the table is built once and every thread's propensities (inside
// and outside the tabulated range) carry the same bits.
TEST(SrhModelMemo, ConcurrentConstructionIsBitIdentical) {
  auto tech = technology("22nm");
  tech.temperature = 311.5;  // a key no other test uses
  const Trap trap{0.4 * tech.t_ox, 0.6, TrapState::kEmpty};
  const std::vector<double> biases = {-1.4, -1.0, 0.0, 0.37, 0.8,
                                      2.0 * tech.v_dd + 0.99,
                                      2.0 * tech.v_dd + 1.3};
  constexpr std::size_t kThreads = 8;
  std::vector<std::optional<SrhModel>> models(kThreads);
  std::vector<std::vector<Propensities>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      models[t].emplace(tech);
      for (double v : biases) {
        seen[t].push_back(models[t]->propensities(trap, v));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(&models[t]->surface_table(), &models[0]->surface_table());
    for (std::size_t k = 0; k < biases.size(); ++k) {
      EXPECT_EQ(seen[t][k].lambda_c, seen[0][k].lambda_c) << biases[k];
      EXPECT_EQ(seen[t][k].lambda_e, seen[0][k].lambda_e) << biases[k];
    }
  }
}

}  // namespace
}  // namespace samurai::physics
