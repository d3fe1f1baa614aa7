// Chain-level law gate for Algorithm 1 on the real Fig. 8 chain.
//
// The bit-identity tests pin one realisation; this test pins the law. It
// runs one 90 nm methodology sample (perfbench's `methodology`
// configuration), takes the sampled traps of all six transistors under
// their extracted V_gs(t), and holds the sampler to the master equation
// of the same interpolated λ_c(t):
//
//  * P(filled at t_j) at 8 probe times against the master-equation
//    solution p(t_j) (exact binomial two-sided tail), and
//  * the mean transition count against ∫(λ_c(1 - p) + λ_e p) dt
//    (normal approximation of the sample mean).
//
// Two-sample mode: every trap is simulated on both the piecewise-majorant
// path and the fixed-bound path, so a change to either sampler (or to how
// it bounds or evaluates λ_c) that keeps the law passes, and one that
// biases it fails. Seeds are fixed, and the family-wise false-alarm rate
// of all checks together is kFamilyAlpha (Bonferroni).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/propensity.hpp"
#include "core/uniformisation.hpp"
#include "physics/srh_model.hpp"
#include "physics/technology.hpp"
#include "sram/methodology.hpp"
#include "sram/pattern.hpp"
#include "util/rng.hpp"

namespace samurai::core {
namespace {

constexpr std::size_t kRealisations = 4000;
constexpr std::size_t kProbes = 8;
constexpr std::size_t kTrapsPerDevice = 3;
constexpr double kFamilyAlpha = 1e-3;
/// Trap selection: enough switching to test, not so much that the
/// master equation and the fixed-bound path get expensive.
constexpr double kMinTransitions = 0.5;
constexpr double kMaxTransitions = 40.0;
constexpr double kMinVariance = 0.05;  ///< max_t p(1 - p)
constexpr double kMaxRateHorizon = 200.0;  ///< Λ·T pre-screen

/// perfbench's `methodology` sample 1 at workload seed 1.
sram::MethodologyConfig methodology_config() {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.tech.v_dd = 0.9;
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 1, 0, 1, 0, 1, 0, 0, 1});
  config.rtn_scale = 30.0;
  config.seed = util::Rng(1).split(2).next_u64();
  return config;
}

/// Two-sided p-value of observing `k` of `n` under Binomial(n, p).
double binomial_two_sided(std::size_t k, std::size_t n, double p) {
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double lp = std::log(p);
  const double lq = std::log1p(-p);
  const double ln_n = std::lgamma(static_cast<double>(n) + 1.0);
  auto pmf = [&](std::size_t j) {
    const double x = static_cast<double>(j);
    return std::exp(ln_n - std::lgamma(x + 1.0) -
                    std::lgamma(static_cast<double>(n) - x + 1.0) + x * lp +
                    (static_cast<double>(n) - x) * lq);
  };
  double lower = 0.0;  // P(X <= k)
  for (std::size_t j = 0; j <= k; ++j) lower += pmf(j);
  double upper = 0.0;  // P(X >= k)
  for (std::size_t j = k; j <= n; ++j) upper += pmf(j);
  return std::min(1.0, 2.0 * std::min(lower, upper));
}

/// |z| with two-sided normal tail `p`: erfc(|z|/√2) = p, by bisection.
double z_of_p(double p) {
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid / std::sqrt(2.0)) > p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// One selected trap under its device's bias, with the master-equation
/// reference: p(t) on `grid` and the expected transition count.
struct LawTrap {
  std::size_t device = 0;
  physics::Trap trap;
  const Pwl* v_gs = nullptr;
  std::vector<double> grid;
  std::vector<double> p_filled;
  double mean_transitions = 0.0;
};

class RtnLaw : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sram::MethodologyConfig(methodology_config());
    result_ = new sram::MethodologyResult(sram::run_methodology(*config_));
    model_ = new physics::SrhModel(config_->tech);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete result_;
    delete config_;
  }

  static inline sram::MethodologyConfig* config_ = nullptr;
  static inline sram::MethodologyResult* result_ = nullptr;
  static inline physics::SrhModel* model_ = nullptr;
};

/// Up to kTrapsPerDevice traps per device, in profile order, that switch
/// often enough and spend enough time undecided to test.
std::vector<LawTrap> select_traps(const sram::MethodologyResult& result,
                                  const physics::SrhModel& model) {
  const double horizon = result.pattern.t_end;
  std::vector<LawTrap> selected;
  for (std::size_t d = 0; d < result.rtn.size(); ++d) {
    const auto& device = result.rtn[d];
    std::size_t taken = 0;
    for (const physics::Trap& trap : device.traps) {
      if (taken == kTrapsPerDevice) break;
      // E[transitions] <= ∫max(λ_c, λ_e)dt <= Λ·T: a cheap first cut
      // before solving the master equation.
      const double rate_horizon = model.total_rate(trap) * horizon;
      if (rate_horizon < kMinTransitions || rate_horizon > kMaxRateHorizon) {
        continue;
      }
      LawTrap law;
      law.device = d;
      law.trap = trap;
      law.v_gs = &device.v_gs;
      const BiasPropensity propensity(model, trap, device.v_gs, 0.01);
      // A multiple of kProbes + 1 grid steps puts every probe on the grid;
      // ≥ 8 steps per 1/Λ keeps RK4 far below the statistical error.
      const auto steps = static_cast<std::size_t>(
          (kProbes + 1) *
          std::ceil(std::max(2000.0, 8.0 * rate_horizon) / (kProbes + 1)));
      const double p0 =
          trap.init_state == physics::TrapState::kFilled ? 1.0 : 0.0;
      law.p_filled = master_equation_fill_probability(
          propensity, 0.0, horizon, p0, steps, &law.grid);
      double max_variance = 0.0;
      double previous_rate = 0.0;
      for (std::size_t i = 0; i < law.grid.size(); ++i) {
        const double p = law.p_filled[i];
        const physics::Propensities rates = propensity.at(law.grid[i]);
        const double rate = rates.lambda_c * (1.0 - p) + rates.lambda_e * p;
        if (i > 0) {
          law.mean_transitions += 0.5 * (rate + previous_rate) *
                                  (law.grid[i] - law.grid[i - 1]);
        }
        previous_rate = rate;
        max_variance = std::max(max_variance, p * (1.0 - p));
      }
      if (law.mean_transitions < kMinTransitions ||
          law.mean_transitions > kMaxTransitions ||
          max_variance < kMinVariance) {
        continue;
      }
      selected.push_back(std::move(law));
      ++taken;
    }
  }
  return selected;
}

/// The outcome of one sampler path on one trap: filled counts at the
/// probe grid indices and the transition-count mean and variance.
struct PathSample {
  std::vector<std::size_t> filled;
  double mean = 0.0;
  double variance = 0.0;
};

PathSample sample_path(const LawTrap& law, const PropensityFunction& propensity,
                       const std::vector<std::size_t>& probes,
                       const UniformisationOptions& options, util::Rng rng) {
  PathSample out;
  out.filled.assign(probes.size(), 0);
  const double horizon = law.grid.back();
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t r = 0; r < kRealisations; ++r) {
    const TrapTrajectory trajectory = simulate_trap(
        propensity, 0.0, horizon, law.trap.init_state, rng, options);
    for (std::size_t j = 0; j < probes.size(); ++j) {
      if (trajectory.state_at(law.grid[probes[j]]) ==
          physics::TrapState::kFilled) {
        ++out.filled[j];
      }
    }
    const auto n = static_cast<double>(trajectory.num_switches());
    sum += n;
    sum_sq += n * n;
  }
  const auto count = static_cast<double>(kRealisations);
  out.mean = sum / count;
  out.variance = (sum_sq - sum * out.mean) / (count - 1.0);
  return out;
}

TEST_F(RtnLaw, SamplersMatchTheMasterEquationOnTheFig8Chain) {
  ASSERT_EQ(result_->rtn.size(), 6u);
  const std::vector<LawTrap> traps = select_traps(*result_, *model_);
  // Guard against a vacuous gate: the sample carries ~700 traps.
  ASSERT_GE(traps.size(), 12u);

  struct Check {
    std::size_t trap;
    const char* path;
    int probe;  ///< -1: the transition-count mean
    double p_value;
  };
  std::vector<Check> checks;
  const util::Rng master(0x1A3E'57A7u);
  for (std::size_t i = 0; i < traps.size(); ++i) {
    const LawTrap& law = traps[i];
    const BiasPropensity propensity(*model_, law.trap, *law.v_gs, 0.01);
    std::vector<std::size_t> probes;
    const std::size_t steps = law.grid.size() - 1;
    for (std::size_t j = 1; j <= kProbes; ++j) {
      probes.push_back(steps * j / (kProbes + 1));
    }
    UniformisationOptions majorant;
    // The fixed-bound path with its bound computed once per trap: the same
    // single window and bound rate_bound(0, T) as use_majorant = false,
    // without rescanning the schedule on every realisation.
    UniformisationOptions fixed;
    fixed.rate_bound = propensity.rate_bound(0.0, law.grid.back());
    const struct {
      const char* name;
      const UniformisationOptions* options;
    } paths[] = {{"majorant", &majorant}, {"fixed", &fixed}};
    for (std::size_t k = 0; k < 2; ++k) {
      const PathSample sample = sample_path(law, propensity, probes,
                                            *paths[k].options,
                                            master.split(2 * i + k + 1));
      for (std::size_t j = 0; j < probes.size(); ++j) {
        checks.push_back({i, paths[k].name, static_cast<int>(j),
                          binomial_two_sided(sample.filled[j], kRealisations,
                                             law.p_filled[probes[j]])});
      }
      const double se =
          std::sqrt(sample.variance / static_cast<double>(kRealisations));
      const double z = se > 0.0
                           ? (sample.mean - law.mean_transitions) / se
                           : (sample.mean == law.mean_transitions ? 0.0 : 1e9);
      checks.push_back({i, paths[k].name, -1,
                        std::erfc(std::abs(z) / std::sqrt(2.0))});
    }
  }

  const double per_check = kFamilyAlpha / static_cast<double>(checks.size());
  std::printf("[law] %zu traps, %zu checks, per-check alpha %.3g "
              "(|z| > %.2f)\n",
              traps.size(), checks.size(), per_check, z_of_p(per_check));
  for (const char* path : {"majorant", "fixed"}) {
    double worst = 1.0;
    for (const Check& check : checks) {
      if (std::string(check.path) == path) {
        worst = std::min(worst, check.p_value);
      }
    }
    std::printf("[law] %s path: worst p %.3g (|z| %.2f)\n", path, worst,
                z_of_p(worst));
  }
  for (const Check& check : checks) {
    const LawTrap& law = traps[check.trap];
    EXPECT_GE(check.p_value, per_check)
        << "device M" << law.device + 1 << " trap (y " << law.trap.y_tr
        << ", E " << law.trap.e_tr << ") " << check.path << " path, "
        << (check.probe < 0 ? "transition-count mean"
                            : "P(filled) at probe " +
                                  std::to_string(check.probe));
  }
}

}  // namespace
}  // namespace samurai::core
