#include "core/propensity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "physics/technology.hpp"

namespace samurai::core {
namespace {

/// The majorant contract (propensity.hpp): segments cover [t0, t1] and
/// per-state bounds dominate the propensities on a dense grid.
void expect_valid_majorant(const PropensityFunction& prop, double t0,
                           double t1, int samples = 400) {
  const RateMajorant majorant = prop.majorant(t0, t1);
  ASSERT_FALSE(majorant.empty());
  EXPECT_GE(majorant.t_end(), t1 * (1.0 - 1e-12));
  double seg_start = t0;
  for (const auto& seg : majorant.segments()) {
    EXPECT_GT(seg.t_end, seg_start);
    // Candidate times live in the half-open [seg_start, t_end): sample
    // midpoints so a jump exactly at a segment boundary (owned by the
    // next segment) is not charged to this one.
    const double width = std::min(seg.t_end, t1) - seg_start;
    if (!(width > 0.0)) break;
    for (int i = 0; i < samples; ++i) {
      const double t = seg_start + width * (i + 0.5) / samples;
      const auto p = prop.at(t);
      EXPECT_LE(p.lambda_c, seg.bound_c * (1.0 + 1e-9) + 1e-300)
          << "lambda_c escapes its segment bound at t=" << t;
      EXPECT_LE(p.lambda_e, seg.bound_e * (1.0 + 1e-9) + 1e-300)
          << "lambda_e escapes its segment bound at t=" << t;
    }
    seg_start = seg.t_end;
  }
}

TEST(ConstantPropensity, ReturnsRatesAndBound) {
  const ConstantPropensity prop(2.0, 5.0);
  const auto p = prop.at(123.0);
  EXPECT_DOUBLE_EQ(p.lambda_c, 2.0);
  EXPECT_DOUBLE_EQ(p.lambda_e, 5.0);
  EXPECT_DOUBLE_EQ(prop.rate_bound(0.0, 1.0), 5.0);
}

TEST(ConstantPropensity, MajorantIsPerStateExact) {
  const ConstantPropensity prop(2.0, 5.0);
  const RateMajorant majorant = prop.majorant(1.0, 4.0);
  ASSERT_EQ(majorant.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(majorant.segments()[0].t_end, 4.0);
  EXPECT_DOUBLE_EQ(majorant.segments()[0].bound_c, 2.0);
  EXPECT_DOUBLE_EQ(majorant.segments()[0].bound_e, 5.0);
  expect_valid_majorant(prop, 1.0, 4.0);
}

TEST(RateMajorant, RejectsMalformedEnvelopes) {
  // Non-increasing end times.
  EXPECT_THROW(RateMajorant({{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}}),
               std::invalid_argument);
  // Negative bound.
  EXPECT_THROW(RateMajorant({{1.0, -0.5, 1.0}}), std::invalid_argument);
  // Non-finite bound.
  EXPECT_THROW(RateMajorant({{1.0, 1.0, INFINITY}}), std::invalid_argument);
  // Empty is fine (the "no envelope" value).
  EXPECT_TRUE(RateMajorant().empty());
}

TEST(ConstantPropensity, NegativeRatesThrow) {
  EXPECT_THROW(ConstantPropensity(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ConstantPropensity(1.0, -1.0), std::invalid_argument);
}

TEST(FunctionalPropensity, EvaluatesFunctions) {
  const FunctionalPropensity prop([](double t) { return 1.0 + t; },
                                  [](double t) { return 2.0 * t; }, 100.0);
  const auto p = prop.at(3.0);
  EXPECT_DOUBLE_EQ(p.lambda_c, 4.0);
  EXPECT_DOUBLE_EQ(p.lambda_e, 6.0);
  EXPECT_DOUBLE_EQ(prop.rate_bound(0.0, 10.0), 100.0);
}

TEST(FunctionalPropensity, NonPositiveBoundThrows) {
  EXPECT_THROW(FunctionalPropensity([](double) { return 1.0; },
                                    [](double) { return 1.0; }, 0.0),
               std::invalid_argument);
}

TEST(FunctionalPropensity, DefaultMajorantIsSingleGlobalSegment) {
  const FunctionalPropensity prop([](double) { return 1.0; },
                                  [](double) { return 2.0; }, 4.0);
  const RateMajorant majorant = prop.majorant(0.5, 3.5);
  ASSERT_EQ(majorant.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(majorant.segments()[0].t_end, 3.5);
  EXPECT_DOUBLE_EQ(majorant.segments()[0].bound_c, 4.0);
  EXPECT_DOUBLE_EQ(majorant.segments()[0].bound_e, 4.0);
}

TEST(FunctionalPropensity, ExplicitEnvelopeIsClippedToTheWindow) {
  // A square-wave chain with a tight per-phase envelope: λ_c jumps at
  // t = 5, λ_e at t = 10.
  auto lc = [](double t) { return t < 5.0 ? 0.5 : 3.0; };
  auto le = [](double t) { return t < 10.0 ? 1.0 : 0.2; };
  const FunctionalPropensity prop(lc, le, 3.0,
                                  {{5.0, 0.5, 1.0},
                                   {10.0, 3.0, 1.0},
                                   {20.0, 3.0, 0.2}});
  // Window inside the envelope: leading segments are dropped, tight
  // bounds survive, and the envelope reaches past the window end (the
  // walker stops at tf on its own).
  const RateMajorant mid = prop.majorant(4.0, 12.0);
  ASSERT_EQ(mid.segments().size(), 3u);
  EXPECT_DOUBLE_EQ(mid.segments()[0].t_end, 5.0);
  EXPECT_DOUBLE_EQ(mid.segments()[0].bound_c, 0.5);
  EXPECT_GE(mid.t_end(), 12.0);
  expect_valid_majorant(prop, 4.0, 12.0);
  // Window past the envelope: the tail falls back to the global bound.
  const RateMajorant past = prop.majorant(15.0, 30.0);
  EXPECT_DOUBLE_EQ(past.t_end(), 30.0);
  expect_valid_majorant(prop, 15.0, 30.0);
}

class BiasPropensityTest : public ::testing::Test {
 protected:
  physics::Technology tech_ = physics::technology("90nm");
  physics::SrhModel model_{tech_};
  physics::Trap trap_{0.35 * tech_.t_ox, 0.55, physics::TrapState::kEmpty};
};

TEST_F(BiasPropensityTest, ConstantBiasMatchesDirectModel) {
  const Pwl bias = Pwl::constant(0.8);
  const BiasPropensity prop(model_, trap_, bias);
  const auto direct = model_.propensities(trap_, 0.8);
  const auto tabulated = prop.at(5.0);
  EXPECT_NEAR(tabulated.lambda_c, direct.lambda_c,
              1e-9 * std::max(1.0, direct.lambda_c));
  EXPECT_NEAR(tabulated.lambda_e, direct.lambda_e,
              1e-9 * std::max(1.0, direct.lambda_e));
}

TEST_F(BiasPropensityTest, RateBoundIsTheWindowedPointwiseMax) {
  const Pwl bias({0.0, 1e-9, 2e-9}, {0.0, 1.2, 0.0});
  const BiasPropensity prop(model_, trap_, bias);
  const double total = model_.total_rate(trap_);
  EXPECT_DOUBLE_EQ(prop.total_rate(), total);

  // The tightened contract: rate_bound dominates max(λ_c, λ_e) over the
  // window, never exceeds Λ, and is tight (attained on a dense grid).
  const double bound = prop.rate_bound(0.0, 2e-9);
  EXPECT_LE(bound, total * (1.0 + 1e-12));
  for (double t = 0.0; t <= 2e-9; t += 1e-12) {
    const auto p = prop.at(t);
    EXPECT_NEAR(p.lambda_c + p.lambda_e, total, total * 1e-12);
    EXPECT_LE(std::max(p.lambda_c, p.lambda_e), bound * (1.0 + 1e-12));
  }
  // λ_c(t) is piecewise linear, so its windowed extremes sit at the
  // tabulation breakpoints: the bound must be attained there (tightness).
  double table_max = 0.0;
  for (double t : prop.lambda_c_table().times()) {
    if (t < 0.0 || t > 2e-9) continue;
    const auto p = prop.at(t);
    table_max = std::max({table_max, p.lambda_c, p.lambda_e});
  }
  EXPECT_NEAR(bound, table_max, 1e-9 * total);

  // On a sub-window where the bias pins the trap, the bound must be
  // strictly tighter than Λ (this is what the sampler's win comes from):
  // max(λ_c, λ_e) >= Λ/2 always, but < Λ unless one state is frozen.
  const double low_bias_bound = prop.rate_bound(0.0, 1e-10);
  EXPECT_GE(low_bias_bound, total / 2.0 * (1.0 - 1e-12));
  EXPECT_LE(low_bias_bound, total * (1.0 + 1e-12));
}

TEST_F(BiasPropensityTest, MajorantCoversAndDominatesTheTable) {
  const Pwl bias({0.0, 1e-9, 2e-9}, {0.0, 1.2, 0.0});
  const BiasPropensity prop(model_, trap_, bias, 0.01);
  expect_valid_majorant(prop, 0.0, 2e-9);
  expect_valid_majorant(prop, 0.3e-9, 1.7e-9);  // off-breakpoint window

  // The envelope must be genuinely piecewise on a swinging bias, and its
  // per-state integral must undercut the fixed bound's rectangle.
  const RateMajorant majorant = prop.majorant(0.0, 2e-9);
  EXPECT_GT(majorant.segments().size(), 4u);
  const double fixed = prop.rate_bound(0.0, 2e-9) * 2e-9;
  double env_c = 0.0, env_e = 0.0, seg_start = 0.0;
  for (const auto& seg : majorant.segments()) {
    env_c += seg.bound_c * (seg.t_end - seg_start);
    env_e += seg.bound_e * (seg.t_end - seg_start);
    seg_start = seg.t_end;
  }
  EXPECT_LT(std::min(env_c, env_e), fixed);
}

TEST_F(BiasPropensityTest, ConstantBiasMajorantIsPerStateExact) {
  const Pwl bias = Pwl::constant(0.8);
  const BiasPropensity prop(model_, trap_, bias);
  const auto direct = prop.at(0.0);
  const RateMajorant majorant = prop.majorant(0.0, 1e-6);
  ASSERT_EQ(majorant.segments().size(), 1u);
  EXPECT_NEAR(majorant.segments()[0].bound_c, direct.lambda_c,
              1e-9 * prop.total_rate());
  EXPECT_NEAR(majorant.segments()[0].bound_e, direct.lambda_e,
              1e-9 * prop.total_rate());
}

TEST_F(BiasPropensityTest, RefinementTracksFastEdges) {
  // One fast 0 -> 1.2 V edge. The tabulated λ_c(t) must agree with the
  // direct model mid-edge to within a small relative error.
  const Pwl bias({0.0, 1e-9, 1.1e-9, 2e-9}, {0.0, 0.0, 1.2, 1.2});
  const BiasPropensity prop(model_, trap_, bias, 0.005);
  for (double t : {1.02e-9, 1.05e-9, 1.08e-9}) {
    const double v = bias.eval(t);
    const auto direct = model_.propensities(trap_, v);
    const auto tabulated = prop.at(t);
    EXPECT_NEAR(tabulated.lambda_c, direct.lambda_c,
                0.05 * prop.total_rate())
        << "t=" << t;
  }
}

// The tabulated λ_c is the direct model's λ_c, bit for bit, at every
// schedule point: for traps across the energy window and oxide depth, on a
// bias that leaves the surface table on both sides (direct-solve
// fallback), whether the schedule carries a surface column or not.
TEST_F(BiasPropensityTest, TabulationIsBitIdenticalToDirectModel) {
  const double v_hi = 2.0 * tech_.v_dd + 1.0;  // the table's upper edge
  const Pwl bias({0.0, 1e-9, 2e-9, 3e-9}, {-1.3, v_hi + 0.4, 0.3, -1.05});
  const BiasSchedule bare = BiasSchedule::build(bias, 0.01);
  const BiasSchedule with_surface = BiasSchedule::build(model_, bias, 0.01);
  ASSERT_EQ(with_surface.times, bare.times);
  ASSERT_EQ(with_surface.surface.size(), bare.times.size());
  EXPECT_TRUE(bare.surface.empty());

  for (double depth : {0.02, 0.3, 0.65, 0.99}) {
    for (double energy : {tech_.trap_e_min, 0.55, tech_.trap_e_max}) {
      const physics::Trap trap{depth * tech_.t_ox, energy,
                               physics::TrapState::kEmpty};
      const BiasPropensity from_bare(model_, trap, bare);
      const BiasPropensity from_surface(model_, trap, with_surface);
      const BiasPropensity from_waveform(model_, trap, bias, 0.01);
      for (const BiasPropensity* prop :
           {&from_bare, &from_surface, &from_waveform}) {
        const auto& table = prop->lambda_c_table().values();
        ASSERT_EQ(table.size(), bare.bias.size());
        int mismatches = 0;
        for (std::size_t k = 0; k < table.size(); ++k) {
          if (table[k] != model_.propensities(trap, bare.bias[k]).lambda_c) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << "depth " << depth << " E " << energy;
      }
    }
  }
}

TEST_F(BiasPropensityTest, MismatchedSurfaceColumnThrows) {
  BiasSchedule schedule =
      BiasSchedule::build(model_, Pwl({0.0, 1e-9}, {0.0, 0.9}), 0.1);
  schedule.surface.pop_back();
  EXPECT_THROW(BiasPropensity(model_, trap_, schedule), std::invalid_argument);
}

TEST_F(BiasPropensityTest, BadBiasStepThrows) {
  EXPECT_THROW(BiasPropensity(model_, trap_, Pwl::constant(1.0), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace samurai::core
