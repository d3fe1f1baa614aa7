#include "core/propensity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/uniformisation.hpp"
#include "physics/technology.hpp"
#include "util/rng.hpp"

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
  /// Traps across the energy window and the oxide depth.
  std::vector<physics::Trap> trap_grid() const {
    std::vector<physics::Trap> traps;
    for (double depth : {0.02, 0.3, 0.65, 0.99}) {
      for (double energy : {tech_.trap_e_min, 0.55, tech_.trap_e_max}) {
        traps.push_back(
            {depth * tech_.t_ox, energy, physics::TrapState::kEmpty});
      }
    }
    return traps;
  }

  /// A bias that leaves the surface table on both sides (direct-solve
  /// fallback) and swings through it.
  Pwl table_leaving_bias() const {
    const double v_hi = 2.0 * tech_.v_dd + 1.0;  // the table's upper edge
    return Pwl({0.0, 1e-9, 2e-9, 3e-9}, {-1.3, v_hi + 0.4, 0.3, -1.05});
  }

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
  // schedule points: the bound must be attained there (tightness).
  double table_max = 0.0;
  for (double t : BiasSchedule::build(bias, 0.01).times) {
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

// λ_c(t) at every schedule point is the direct model's λ_c, bit for bit:
// for traps across the energy window and oxide depth, on a bias that
// leaves the surface table on both sides (direct-solve fallback), whether
// the schedule carries a surface column or not.
TEST_F(BiasPropensityTest, TabulationIsBitIdenticalToDirectModel) {
  const Pwl bias = table_leaving_bias();
  const BiasSchedule bare = BiasSchedule::build(bias, 0.01);
  const BiasSchedule with_surface = BiasSchedule::build(model_, bias, 0.01);
  ASSERT_EQ(with_surface.times, bare.times);
  ASSERT_EQ(with_surface.surface.size(), bare.times.size());
  EXPECT_TRUE(bare.surface.empty());
  EXPECT_TRUE(bare.chunks.empty());
  ASSERT_EQ(with_surface.chunks.size(), BiasSchedule::kChunks);
  EXPECT_EQ(with_surface.chunks.back().end, bare.times.size() - 1);

  for (const physics::Trap& trap : trap_grid()) {
    const BiasPropensity from_bare(model_, trap, bare);
    const BiasPropensity from_surface(model_, trap, with_surface);
    const BiasPropensity from_waveform(model_, trap, bias, 0.01);
    for (const BiasPropensity* prop :
         {&from_bare, &from_surface, &from_waveform}) {
      int mismatches = 0;
      for (std::size_t k = 0; k < bare.times.size(); ++k) {
        const auto direct = model_.propensities(trap, bare.bias[k]);
        const auto lazy = prop->at(bare.times[k]);
        if (lazy.lambda_c != direct.lambda_c ||
            lazy.lambda_e != direct.lambda_e) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0) << "y " << trap.y_tr << " E " << trap.e_tr;
    }
  }
}

// Between schedule points, `at` and the sampler's cursor are the linear
// interpolation of the direct model's λ_c, bit for bit: the same
// expression Pwl::eval uses, then the same clamp to [0, Λ].
TEST_F(BiasPropensityTest, InteriorTimesMatchTheInterpolatedReference) {
  const Pwl bias = table_leaving_bias();
  const BiasSchedule schedule = BiasSchedule::build(model_, bias, 0.01);
  util::Rng rng(20260917);
  std::vector<double> times(1000);
  for (double& t : times) t = 3e-9 * rng.uniform();
  std::sort(times.begin(), times.end());

  for (const physics::Trap& trap : trap_grid()) {
    std::vector<double> direct;
    for (double v : schedule.bias) {
      direct.push_back(model_.propensities(trap, v).lambda_c);
    }
    const Pwl reference(schedule.times, direct);
    const BiasPropensity prop(model_, trap, schedule);
    const BiasPropensity::Cursor cursor(prop);
    const double total = prop.total_rate();
    int mismatches = 0;
    for (double t : times) {
      const double lc = std::clamp(reference.eval(t), 0.0, total);
      const auto at = prop.at(t);
      const auto walked = cursor(t);
      if (at.lambda_c != lc || at.lambda_e != total - lc ||
          walked.lambda_c != lc || walked.lambda_e != total - lc) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "y " << trap.y_tr << " E " << trap.e_tr;
  }
}

// Each chunk's segment bounds λ_c and λ_e at every schedule point of its
// chunk, both ends included, with no slack.
TEST_F(BiasPropensityTest, ChunkBoundsDominateEveryPointOfTheirChunk) {
  const BiasSchedule schedule =
      BiasSchedule::build(model_, table_leaving_bias(), 0.01);
  const auto& ts = schedule.times;
  for (const physics::Trap& trap : trap_grid()) {
    const BiasPropensity prop(model_, trap, schedule);
    const RateMajorant majorant = prop.majorant(ts.front(), ts.back());
    ASSERT_EQ(majorant.segments().size(), schedule.chunks.size());
    std::size_t start = 0;
    int escapes = 0;
    for (std::size_t j = 0; j < schedule.chunks.size(); ++j) {
      const ScheduleChunk& chunk = schedule.chunks[j];
      const MajorantSegment& seg = majorant.segments()[j];
      EXPECT_EQ(seg.t_end, ts[chunk.end]);
      for (std::size_t k = start; k <= chunk.end; ++k) {
        const auto p = prop.at(ts[k]);
        if (p.lambda_c > seg.bound_c || p.lambda_e > seg.bound_e) ++escapes;
      }
      start = chunk.end;
    }
    EXPECT_EQ(escapes, 0) << "y " << trap.y_tr << " E " << trap.e_tr;
  }
}

/// Two propensities built three ways must agree bit for bit.
void expect_same_majorant(const RateMajorant& a, const RateMajorant& b) {
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t j = 0; j < a.segments().size(); ++j) {
    EXPECT_EQ(a.segments()[j].t_end, b.segments()[j].t_end);
    EXPECT_EQ(a.segments()[j].bound_c, b.segments()[j].bound_c);
    EXPECT_EQ(a.segments()[j].bound_e, b.segments()[j].bound_e);
  }
}

// A column-less schedule gets its own column and chunks from the same
// routine, and the waveform constructor owns its schedule: all three
// constructions (and copies and moves that outlive the original) give
// the same majorant, trajectories and sampler stats.
TEST_F(BiasPropensityTest, BareColumnAndWaveformConstructionsAreBitIdentical) {
  const Pwl bias = table_leaving_bias();
  const BiasSchedule bare = BiasSchedule::build(bias, 0.01);
  const BiasSchedule with_surface = BiasSchedule::build(model_, bias, 0.01);
  for (const physics::Trap& trap : trap_grid()) {
    SCOPED_TRACE(testing::Message() << "y " << trap.y_tr << " E "
                                    << trap.e_tr);
    std::optional<BiasPropensity> original(std::in_place, model_, trap, bias,
                                           0.01);
    const BiasPropensity copy = *original;
    const BiasPropensity moved = std::move(*original);
    original.reset();
    const BiasPropensity from_bare(model_, trap, bare);
    const BiasPropensity from_surface(model_, trap, with_surface);
    const std::vector<const BiasPropensity*> props = {&from_surface, &copy,
                                                      &moved};
    const RateMajorant expected = from_bare.majorant(0.0, 3e-9);
    for (const BiasPropensity* prop : props) {
      expect_same_majorant(expected, prop->majorant(0.0, 3e-9));
      expect_same_majorant(from_bare.majorant(0.7e-9, 2.2e-9),
                           prop->majorant(0.7e-9, 2.2e-9));
    }
    UniformisationStats expected_stats;
    util::Rng rng_expected(41);
    const TrapTrajectory expected_traj =
        simulate_trap(from_bare, 0.0, 3e-9, trap.init_state, rng_expected,
                      {}, &expected_stats);
    for (const BiasPropensity* prop : props) {
      UniformisationStats stats;
      util::Rng rng(41);
      const TrapTrajectory traj =
          simulate_trap(*prop, 0.0, 3e-9, trap.init_state, rng, {}, &stats);
      EXPECT_EQ(traj.switch_times(), expected_traj.switch_times());
      EXPECT_EQ(stats.candidates, expected_stats.candidates);
      EXPECT_EQ(stats.accepted, expected_stats.accepted);
      EXPECT_EQ(stats.segments, expected_stats.segments);
      EXPECT_EQ(stats.rng_refills, expected_stats.rng_refills);
      EXPECT_EQ(stats.envelope_integral, expected_stats.envelope_integral);
      EXPECT_EQ(stats.fixed_bound_integral,
                expected_stats.fixed_bound_integral);
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
