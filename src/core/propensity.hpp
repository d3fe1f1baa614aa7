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

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// One run of consecutive schedule intervals: the index of its last point
/// and the componentwise extremes of the surface state over its points,
/// both ends included. Only F_ox and E_F - E_i are meaningful in `hi` and
/// `lo`; they need not be the state at any one point.
struct ScheduleChunk {
  std::size_t end = 0;
  physics::SurfaceState hi{};  ///< {max F_ox, max E_F - E_i}
  physics::SurfaceState lo{};  ///< {min F_ox, min E_F - E_i}
};

/// Refined per-device bias schedule: the time grid (bias breakpoints
/// subdivided so no segment's voltage change exceeds `max_bias_step`)
/// together with the bias value at each point and, when built with a
/// model, the surface state (F_ox, E_F - E_i) there plus per-chunk
/// extremes of it. None of it depends on the trap, so a device's traps
/// share one schedule; BiasPropensity built from a schedule is
/// bit-identical to one built from the waveform directly.
struct BiasSchedule {
  std::vector<double> times;
  std::vector<double> bias;  ///< v_gs.eval(times[i])
  /// model.surface_state(bias[i]) when built with a model, else empty.
  std::vector<physics::SurfaceState> surface;
  /// With a surface column: the n - 1 intervals split into kChunks runs
  /// of equal interval count, and further around every interval that
  /// spans at least 1/kChunks of the schedule (so at most 3·kChunks
  /// chunks), neighbours sharing their boundary point, in time order.
  /// Empty without a column or with one point.
  std::vector<ScheduleChunk> chunks;

  /// Equal-count chunks per schedule. More chunks draw fewer thinning
  /// candidates but cost every trap two exponentials each; on perfbench's
  /// 90 nm methodology sample 16 chunks draw ~880 candidates per sample
  /// (DESIGN.md §11).
  static constexpr std::size_t kChunks = 16;

  /// The time grid and bias only; BiasPropensity then evaluates the
  /// surface column and chunks for itself.
  static BiasSchedule build(const Pwl& v_gs, double max_bias_step);

  /// The time grid, bias, the model's surface state at every point and
  /// the chunk extremes.
  static BiasSchedule build(const physics::SrhModel& model, const Pwl& v_gs,
                            double max_bias_step);
};

/// SRH trap propensities under a time-varying gate bias V_gs(t).
///
/// λ_c(t) is the linear interpolation in time of λ_c at the schedule
/// points, and λ_e = Λ - λ_c (paper Eq. 1). Nothing is tabulated per trap:
/// λ_c(t) = Λ/(1 + β) is monotone in the surface state (F_ox, E_F - E_i)
/// for y_tr >= 0 (paper Eq. 2), so λ_c at a chunk's `hi` state bounds λ_c
/// over the chunk and λ_c at its `lo` state bounds λ_e. Construction
/// costs two exponentials per chunk for that majorant; λ_c itself is
/// evaluated on demand, at the two schedule points around each query.
///
/// The model and the schedule passed in must outlive the propensity (the
/// waveform constructor, and a schedule without a surface column, give
/// the propensity its own schedule, shared by its copies).
class BiasPropensity final : public PropensityFunction {
 public:
  BiasPropensity(const physics::SrhModel& model, const physics::Trap& trap,
                 const Pwl& v_gs, double max_bias_step = 0.01);

  /// From a prebuilt schedule: equivalent to the waveform constructor with
  /// the (v_gs, max_bias_step) the schedule was built from. Devices with
  /// many traps build the schedule once and amortise the waveform
  /// refinement and the surface-state lookups. A schedule without a
  /// surface column is copied and given one, for this trap only.
  BiasPropensity(const physics::SrhModel& model, const physics::Trap& trap,
                 const BiasSchedule& schedule);

  // The propensity reads the model and the schedule after construction.
  BiasPropensity(physics::SrhModel&&, const physics::Trap&, const Pwl&,
                 double = 0.01) = delete;
  BiasPropensity(physics::SrhModel&&, const physics::Trap&,
                 const BiasSchedule&) = delete;
  BiasPropensity(const physics::SrhModel&, const physics::Trap&,
                 BiasSchedule&&) = delete;

  physics::Propensities at(double t) const override;
  /// The exact windowed max, evaluating λ_c at every schedule point in
  /// the window: the fixed-bound path's cost, not the majorant's.
  double rate_bound(double t0, double t1) const override;
  RateMajorant majorant(double t0, double t1) const override;

  /// The trap's constant total rate Λ (paper Eq. 1).
  double total_rate() const noexcept { return total_rate_; }

  /// `at` along nondecreasing times, for the uniformisation kernel: a
  /// monotone cursor over the schedule that caches λ_c at the last two
  /// schedule points it evaluated, so a thinning candidate costs at most
  /// two exponentials and no virtual call. Same value as `at` except
  /// exactly at a schedule point, where the cursor may interpolate from
  /// the interval on its left (alpha = 1).
  class Cursor {
   public:
    explicit Cursor(const BiasPropensity& propensity)
        : p_(&propensity) {}
    physics::Propensities operator()(double t) const;

   private:
    double capture(std::size_t k) const;

    const BiasPropensity* p_;
    mutable std::size_t interval_ = 0;
    mutable std::size_t cached_[2] = {SIZE_MAX, SIZE_MAX};
    mutable double values_[2] = {0.0, 0.0};
  };

 private:
  BiasPropensity(const physics::SrhModel& model, const physics::Trap& trap,
                 std::shared_ptr<const BiasSchedule> owned,
                 const BiasSchedule* schedule);

  /// λ_c at schedule point k (unclamped).
  double capture(std::size_t k) const {
    return model_->capture_rate(trap_, total_rate_, schedule_->surface[k]);
  }
  physics::Propensities clamped(double lambda_c) const {
    const double lc = std::clamp(lambda_c, 0.0, total_rate_);
    return {lc, total_rate_ - lc};
  }

  const physics::SrhModel* model_;
  physics::Trap trap_;
  double total_rate_;
  std::shared_ptr<const BiasSchedule> owned_;  ///< set when built here
  const BiasSchedule* schedule_;  ///< owned_ or the caller's schedule
  /// One segment per schedule chunk, over [times.front(), times.back()];
  /// empty for a one-point schedule.
  std::vector<MajorantSegment> envelope_;
};

}  // namespace samurai::core
