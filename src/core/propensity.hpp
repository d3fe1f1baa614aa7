// Propensity functions for two-state time-inhomogeneous Markov chains.
//
// A `PropensityFunction` exposes λ_c(t), λ_e(t) plus two kinds of certified
// upper bounds — the ingredients Algorithm 1 (and its piecewise-majorant
// refinement, DESIGN.md §11) needs:
//
//  * `rate_bound(t0, t1)`  — one scalar λ* dominating *both* propensities
//    over the whole window. The classic fixed-bound thinning rate.
//  * `majorant(t0, t1)`    — a piecewise-constant upper envelope with
//    *separate* per-state bounds per segment. The uniformisation walker
//    draws candidates at the current state's segment bound, so the expected
//    candidate count is ∫λ*_{s(t)}(t)dt instead of max·T; cold segments
//    (a trap pinned by its bias) draw almost nothing.
//
// Bound contract (relied on by the thinning sampler; violations are
// detected at run time and abort the simulation as biased):
//
//  * rate_bound(t0, t1) >= max(λ_c(t), λ_e(t)) for all t in [t0, t1],
//    strictly positive whenever either propensity can be non-zero, and as
//    *tight* as cheaply possible — a bound of Λ = λ_c + λ_e is always
//    valid but draws up to 2x the necessary candidates; prefer the
//    pointwise max (`ConstantPropensity` and `BiasPropensity` return the
//    exact windowed max).
//  * Every `majorant` segment [a, b) must satisfy bound_c >= λ_c(t) and
//    bound_e >= λ_e(t) on the segment; segments are contiguous and must
//    cover the queried window. Zero bounds certify a frozen propensity.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/waveform.hpp"
#include "physics/srh_model.hpp"
#include "physics/trap.hpp"

namespace samurai::core {

/// One segment of a piecewise-constant majorant. The segment spans from
/// the previous segment's `t_end` (or the envelope's query start) up to
/// `t_end`; `bound_c` / `bound_e` dominate λ_c / λ_e on it.
struct MajorantSegment {
  double t_end = 0.0;
  double bound_c = 0.0;
  double bound_e = 0.0;
};

/// Piecewise-constant upper envelope of both propensities over a window.
/// Validated on construction: segment end times strictly increase and all
/// bounds are finite and non-negative.
class RateMajorant {
 public:
  RateMajorant() = default;
  explicit RateMajorant(std::vector<MajorantSegment> segments);

  /// The single-segment envelope [.., t_end) with the given bounds.
  static RateMajorant single(double t_end, double bound_c, double bound_e);

  const std::vector<MajorantSegment>& segments() const noexcept {
    return segments_;
  }
  bool empty() const noexcept { return segments_.empty(); }

  /// Last covered time (callers must not simulate past it).
  double t_end() const noexcept {
    return segments_.empty() ? 0.0 : segments_.back().t_end;
  }

 private:
  std::vector<MajorantSegment> segments_;
};

class PropensityFunction {
 public:
  virtual ~PropensityFunction() = default;

  /// λ_c(t) and λ_e(t).
  virtual physics::Propensities at(double t) const = 0;

  /// A value λ* with λ* >= max(λ_c(t), λ_e(t)) for all t in [t0, t1].
  /// Must be strictly positive when either propensity can be non-zero.
  virtual double rate_bound(double t0, double t1) const = 0;

  /// Piecewise-constant upper envelope covering [t0, t1]. The default is
  /// the single-segment envelope at `rate_bound` for both states;
  /// implementations with temporal structure should override it with
  /// per-segment (and per-state) tight bounds.
  virtual RateMajorant majorant(double t0, double t1) const;
};

/// Time-invariant propensities: the stationary RTS of the validation
/// experiments (paper §IV-A). `majorant` is per-state exact, so thinning
/// accepts every candidate and the sampler devolves to the classic SSA.
class ConstantPropensity final : public PropensityFunction {
 public:
  ConstantPropensity(double lambda_c, double lambda_e);
  physics::Propensities at(double t) const override;
  double rate_bound(double t0, double t1) const override;
  RateMajorant majorant(double t0, double t1) const override;

 private:
  physics::Propensities p_;
};

/// Propensities driven by arbitrary user functions plus an explicit bound;
/// used by tests (e.g. sinusoidally modulated chains with known master-
/// equation solutions). An optional piecewise envelope (validated against
/// the same contract at run time) exercises the majorant walker; windows
/// past the envelope's last segment fall back to the global bound.
class FunctionalPropensity final : public PropensityFunction {
 public:
  FunctionalPropensity(std::function<double(double)> lambda_c,
                       std::function<double(double)> lambda_e,
                       double global_bound);
  FunctionalPropensity(std::function<double(double)> lambda_c,
                       std::function<double(double)> lambda_e,
                       double global_bound,
                       std::vector<MajorantSegment> envelope);
  physics::Propensities at(double t) const override;
  double rate_bound(double t0, double t1) const override;
  RateMajorant majorant(double t0, double t1) const override;

 private:
  std::function<double(double)> lc_;
  std::function<double(double)> le_;
  double bound_;
  std::vector<MajorantSegment> envelope_;  ///< optional; empty = fallback
};

/// Refined per-device bias schedule: the tabulation time grid (bias
/// breakpoints subdivided so no segment's voltage change exceeds
/// `max_bias_step`) together with the bias value at each point and,
/// when built with a model, the surface state (F_ox, E_F - E_i) there.
/// None of it depends on the trap, so a device's traps share one schedule
/// and each pays only one exponential per point for its own λ_c;
/// BiasPropensity built from a schedule is bit-identical to one built from
/// the waveform directly.
struct BiasSchedule {
  std::vector<double> times;
  std::vector<double> bias;  ///< v_gs.eval(times[i])
  /// model.surface_state(bias[i]) when built with a model, else empty.
  std::vector<physics::SurfaceState> surface;

  /// The time grid and bias only; BiasPropensity then evaluates the
  /// surface state per trap.
  static BiasSchedule build(const Pwl& v_gs, double max_bias_step);

  /// The time grid, bias and the model's surface state at every point.
  static BiasSchedule build(const physics::SrhModel& model, const Pwl& v_gs,
                            double max_bias_step);
};

/// SRH trap propensities under a time-varying gate bias V_gs(t).
///
/// Evaluating the surface-potential solve per candidate event would be
/// wasteful (uniformisation of a shallow trap draws millions of
/// candidates), so the propensities are precomputed at the bias
/// breakpoints — refined so no segment's bias change exceeds
/// `max_bias_step` — and linearly interpolated in time. λ_c + λ_e = Λ is
/// constant (paper Eq. 1), so per tabulation segment λ_c is linear and
/// λ_e = Λ - λ_c: both `rate_bound` (windowed max of max(λ_c, λ_e)) and
/// the per-segment `majorant` are exact for the tabulated propensities.
///
/// The coalesced envelope over the full tabulation span is built once at
/// construction (riding the pass that tabulates λ_c anyway); `majorant`
/// clips it, so a simulate call costs O(envelope segments), not another
/// walk over every tabulation point.
class BiasPropensity final : public PropensityFunction {
 public:
  BiasPropensity(const physics::SrhModel& model, const physics::Trap& trap,
                 const Pwl& v_gs, double max_bias_step = 0.01);

  /// Tabulate from a prebuilt schedule (one exponential per schedule
  /// point). Equivalent to the waveform constructor with the (v_gs,
  /// max_bias_step) the schedule was built from — devices with many traps
  /// build the schedule once and amortise the waveform refinement and the
  /// surface-state lookups. A schedule without a surface column gets one
  /// evaluated here, for this trap only.
  BiasPropensity(const physics::SrhModel& model, const physics::Trap& trap,
                 const BiasSchedule& schedule);

  physics::Propensities at(double t) const override;
  double rate_bound(double t0, double t1) const override;
  RateMajorant majorant(double t0, double t1) const override;

  /// The trap's constant total rate Λ (paper Eq. 1).
  double total_rate() const noexcept { return total_rate_; }

  /// The tabulated λ_c(t) table backing `at` — the uniformisation kernel's
  /// devirtualised fast path interpolates it with a monotone cursor
  /// instead of paying a virtual call + binary search per candidate.
  const Pwl& lambda_c_table() const noexcept { return lambda_c_of_t_; }

 private:
  void build_envelope();

  double total_rate_;
  Pwl lambda_c_of_t_;  ///< interpolated λ_c(t); λ_e = Λ - λ_c
  /// Precomputed coalesced envelope over [times.front(), times.back()];
  /// empty when the tabulation is constant.
  std::vector<MajorantSegment> envelope_;
};

}  // namespace samurai::core
