#include "core/propensity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace samurai::core {

RateMajorant::RateMajorant(std::vector<MajorantSegment> segments)
    : segments_(std::move(segments)) {
  double prev = -std::numeric_limits<double>::infinity();
  for (const auto& seg : segments_) {
    if (!(seg.t_end > prev)) {
      throw std::invalid_argument(
          "RateMajorant: segment end times must strictly increase");
    }
    if (!(seg.bound_c >= 0.0) || !(seg.bound_e >= 0.0) ||
        !std::isfinite(seg.bound_c) || !std::isfinite(seg.bound_e)) {
      throw std::invalid_argument("RateMajorant: bounds must be finite and >= 0");
    }
    prev = seg.t_end;
  }
}

RateMajorant RateMajorant::single(double t_end, double bound_c,
                                  double bound_e) {
  return RateMajorant({MajorantSegment{t_end, bound_c, bound_e}});
}

RateMajorant PropensityFunction::majorant(double t0, double t1) const {
  const double bound = rate_bound(t0, t1);
  (void)t0;
  return RateMajorant::single(t1, bound, bound);
}

ConstantPropensity::ConstantPropensity(double lambda_c, double lambda_e)
    : p_{lambda_c, lambda_e} {
  if (lambda_c < 0.0 || lambda_e < 0.0) {
    throw std::invalid_argument("ConstantPropensity: negative rate");
  }
}

physics::Propensities ConstantPropensity::at(double) const { return p_; }

double ConstantPropensity::rate_bound(double, double) const {
  return std::max(p_.lambda_c, p_.lambda_e);
}

RateMajorant ConstantPropensity::majorant(double, double t1) const {
  return RateMajorant::single(t1, p_.lambda_c, p_.lambda_e);
}

FunctionalPropensity::FunctionalPropensity(std::function<double(double)> lambda_c,
                                           std::function<double(double)> lambda_e,
                                           double global_bound)
    : FunctionalPropensity(std::move(lambda_c), std::move(lambda_e),
                           global_bound, {}) {}

FunctionalPropensity::FunctionalPropensity(std::function<double(double)> lambda_c,
                                           std::function<double(double)> lambda_e,
                                           double global_bound,
                                           std::vector<MajorantSegment> envelope)
    : lc_(std::move(lambda_c)),
      le_(std::move(lambda_e)),
      bound_(global_bound),
      envelope_(std::move(envelope)) {
  if (!(bound_ > 0.0)) {
    throw std::invalid_argument("FunctionalPropensity: bound must be positive");
  }
  (void)RateMajorant(envelope_);  // validate ordering and bound ranges
}

physics::Propensities FunctionalPropensity::at(double t) const {
  return {lc_(t), le_(t)};
}

double FunctionalPropensity::rate_bound(double, double) const { return bound_; }

RateMajorant FunctionalPropensity::majorant(double t0, double t1) const {
  if (envelope_.empty()) return RateMajorant::single(t1, bound_, bound_);
  std::vector<MajorantSegment> clipped;
  for (const auto& seg : envelope_) {
    if (seg.t_end <= t0) continue;
    clipped.push_back(seg);
    if (seg.t_end >= t1) break;
  }
  // Any tail the stored envelope does not reach is covered by the global
  // bound (valid everywhere by the rate_bound contract).
  if (clipped.empty() || clipped.back().t_end < t1) {
    clipped.push_back(MajorantSegment{t1, bound_, bound_});
  }
  return RateMajorant(std::move(clipped));
}

namespace {

/// The model's surface state at every bias point: the one routine behind
/// both a schedule's surface column and a column-less schedule's per-trap
/// pass.
std::vector<physics::SurfaceState> surface_states(
    const physics::SrhModel& model, const std::vector<double>& bias) {
  std::vector<physics::SurfaceState> surface;
  surface.reserve(bias.size());
  for (double v : bias) surface.push_back(model.surface_state(v));
  return surface;
}

}  // namespace

BiasSchedule BiasSchedule::build(const Pwl& v_gs, double max_bias_step) {
  if (!(max_bias_step > 0.0)) {
    throw std::invalid_argument("BiasSchedule: max_bias_step must be > 0");
  }
  // Refine the bias breakpoints so each segment's voltage change is below
  // max_bias_step.
  BiasSchedule schedule;
  std::vector<double>& times = schedule.times;
  if (v_gs.is_constant() || v_gs.times().size() < 2) {
    times.push_back(v_gs.times().empty() ? 0.0 : v_gs.times().front());
  } else {
    const auto& ts = v_gs.times();
    const auto& vs = v_gs.values();
    times.push_back(ts.front());
    for (std::size_t i = 1; i < ts.size(); ++i) {
      const double dv = std::abs(vs[i] - vs[i - 1]);
      const auto pieces = static_cast<std::size_t>(
          std::max(1.0, std::ceil(dv / max_bias_step)));
      for (std::size_t k = 1; k <= pieces; ++k) {
        const double t = ts[i - 1] + (ts[i] - ts[i - 1]) *
                                         static_cast<double>(k) /
                                         static_cast<double>(pieces);
        if (t > times.back()) times.push_back(t);
      }
    }
  }
  schedule.bias.reserve(times.size());
  for (double t : times) schedule.bias.push_back(v_gs.eval(t));
  return schedule;
}

BiasSchedule BiasSchedule::build(const physics::SrhModel& model,
                                 const Pwl& v_gs, double max_bias_step) {
  BiasSchedule schedule = build(v_gs, max_bias_step);
  schedule.surface = surface_states(model, schedule.bias);
  return schedule;
}

BiasPropensity::BiasPropensity(const physics::SrhModel& model,
                               const physics::Trap& trap, const Pwl& v_gs,
                               double max_bias_step)
    : BiasPropensity(model, trap,
                     BiasSchedule::build(model, v_gs, max_bias_step)) {}

BiasPropensity::BiasPropensity(const physics::SrhModel& model,
                               const physics::Trap& trap,
                               const BiasSchedule& schedule) {
  const std::size_t n = schedule.times.size();
  if (n == 0 || schedule.bias.size() != n ||
      (!schedule.surface.empty() && schedule.surface.size() != n)) {
    throw std::invalid_argument("BiasPropensity: malformed schedule");
  }
  const std::vector<physics::SurfaceState> own_surface =
      schedule.surface.empty() ? surface_states(model, schedule.bias)
                               : std::vector<physics::SurfaceState>{};
  const auto& surface =
      schedule.surface.empty() ? own_surface : schedule.surface;

  // Tabulate λ_c at every schedule point: the only per-trap cost, one
  // exponential per point with Λ hoisted out of the loop.
  total_rate_ = model.total_rate(trap);
  std::vector<double> lc;
  lc.reserve(n);
  for (const physics::SurfaceState& s : surface) {
    lc.push_back(model.capture_rate(trap, total_rate_, s));
  }
  lambda_c_of_t_ = Pwl(schedule.times, std::move(lc));
  build_envelope();
}

void BiasPropensity::build_envelope() {
  const auto& ts = lambda_c_of_t_.times();
  const auto& vs = lambda_c_of_t_.values();
  if (ts.size() < 2) return;  // constant tabulation: majorant() is exact
  const double t0 = ts.front();
  const double t1 = ts.back();

  // Per tabulation interval λ_c is linear, so [min, max] over the interval
  // is attained at its endpoints: bound_c = max, bound_e = Λ - min are
  // exact. Greedy coalescing then merges neighbours while the merged
  // envelope integral stays within kCoalesceSlack of the exact one, so
  // flat bias regions collapse to one segment and fast edges keep only the
  // resolution they pay for. Each emitted segment also costs the sampler a
  // fixed walk overhead, which for slow traps dwarfs the candidates a
  // tighter envelope saves — so runs shorter than 1/kMaxSegments of the
  // span are merged even past the slack, bounding the segment count.
  constexpr double kCoalesceSlack = 1.1;
  constexpr double kMaxSegments = 12.0;
  const double min_span = (t1 - t0) / kMaxSegments;

  double run_start = t0;   // current run's start time
  double run_exact = 0.0;  // ∫(bound_c + bound_e)dt of the exact run
  MajorantSegment run{t0, 0.0, 0.0};
  bool have_run = false;

  double prev_v = std::clamp(vs.front(), 0.0, total_rate_);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    const double prev_t = ts[i - 1];
    const double next_t = ts[i];
    const double next_v = std::clamp(vs[i], 0.0, total_rate_);
    if (next_t > prev_t) {
      const double bc = std::max(prev_v, next_v);
      const double be = total_rate_ - std::min(prev_v, next_v);
      const double exact = (bc + be) * (next_t - prev_t);
      if (!have_run) {
        run = MajorantSegment{next_t, bc, be};
        run_start = prev_t;
        run_exact = exact;
        have_run = true;
      } else {
        const double merged_bc = std::max(run.bound_c, bc);
        const double merged_be = std::max(run.bound_e, be);
        const double merged_integral =
            (merged_bc + merged_be) * (next_t - run_start);
        if (next_t - run_start < min_span ||
            merged_integral <= kCoalesceSlack * (run_exact + exact)) {
          run.t_end = next_t;
          run.bound_c = merged_bc;
          run.bound_e = merged_be;
          run_exact += exact;
        } else {
          envelope_.push_back(run);
          run = MajorantSegment{next_t, bc, be};
          run_start = prev_t;
          run_exact = exact;
        }
      }
    }
    prev_v = next_v;
  }
  if (have_run) envelope_.push_back(run);
}

physics::Propensities BiasPropensity::at(double t) const {
  const double lc = std::clamp(lambda_c_of_t_.eval(t), 0.0, total_rate_);
  return {lc, total_rate_ - lc};
}

double BiasPropensity::rate_bound(double t0, double t1) const {
  // λ_c is piecewise linear, so its range over [t0, t1] is spanned by the
  // clipped endpoint values plus the interior breakpoints; λ_e = Λ - λ_c
  // turns the range [lo, hi] into the exact bound max(hi, Λ - lo).
  const auto& ts = lambda_c_of_t_.times();
  const auto& vs = lambda_c_of_t_.values();
  double lo = std::clamp(lambda_c_of_t_.eval(t0), 0.0, total_rate_);
  double hi = lo;
  const double end = std::clamp(lambda_c_of_t_.eval(t1), 0.0, total_rate_);
  lo = std::min(lo, end);
  hi = std::max(hi, end);
  const auto first = std::upper_bound(ts.begin(), ts.end(), t0);
  const auto last = std::lower_bound(ts.begin(), ts.end(), t1);
  for (auto it = first; it != last; ++it) {
    const double v =
        std::clamp(vs[static_cast<std::size_t>(it - ts.begin())], 0.0,
                   total_rate_);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return std::max(hi, total_rate_ - lo);
}

RateMajorant BiasPropensity::majorant(double t0, double t1) const {
  const auto& ts = lambda_c_of_t_.times();
  if (envelope_.empty() || t1 <= ts.front() || t0 >= ts.back()) {
    // Constant tabulation (or the window misses it entirely): one segment
    // with the exact per-state rates.
    const double lc = std::clamp(lambda_c_of_t_.eval(t0), 0.0, total_rate_);
    return RateMajorant::single(t1, lc, total_rate_ - lc);
  }

  // Clip the precomputed envelope. The first overlapping segment's bounds
  // dominate [t0, its end] even when t0 predates the tabulation (λ_c is
  // constant there at its front value, which that segment already covers);
  // any tail past the tabulation is constant at the back value.
  std::vector<MajorantSegment> clipped;
  for (const auto& seg : envelope_) {
    if (seg.t_end <= t0) continue;
    clipped.push_back(seg);
    if (seg.t_end >= t1) {
      clipped.back().t_end = t1;
      break;
    }
  }
  if (clipped.empty() || clipped.back().t_end < t1) {
    const double lc =
        std::clamp(lambda_c_of_t_.values().back(), 0.0, total_rate_);
    clipped.push_back(MajorantSegment{t1, lc, total_rate_ - lc});
  }
  return RateMajorant(std::move(clipped));
}

}  // namespace samurai::core
