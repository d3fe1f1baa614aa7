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

/// The model's surface state at every point and the chunk extremes: the
/// one routine behind both a schedule built with a model and the column
/// a propensity adds to a column-less schedule.
void add_surface(const physics::SrhModel& model, BiasSchedule& schedule) {
  auto& surface = schedule.surface;
  surface.clear();
  surface.reserve(schedule.bias.size());
  for (double v : schedule.bias) surface.push_back(model.surface_state(v));

  schedule.chunks.clear();
  if (surface.size() < 2) return;
  // Chunk ends: every intervals/kChunks intervals, and both ends of any
  // interval spanning at least 1/kChunks of the schedule. The refinement
  // leaves a flat stretch of bias as one long interval; on its own it is
  // bounded exactly, instead of by the extreme of the edge next to it.
  const auto& ts = schedule.times;
  const std::size_t intervals = surface.size() - 1;
  const double long_span =
      (ts.back() - ts.front()) / static_cast<double>(BiasSchedule::kChunks);
  std::vector<std::size_t> ends;
  for (std::size_t j = 1; j <= BiasSchedule::kChunks; ++j) {
    ends.push_back(intervals * j / BiasSchedule::kChunks);
  }
  for (std::size_t k = 0; k < intervals; ++k) {
    if (ts[k + 1] - ts[k] >= long_span) {
      ends.push_back(k);
      ends.push_back(k + 1);
    }
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  std::size_t start = 0;
  for (std::size_t end : ends) {
    if (end == 0) continue;
    ScheduleChunk chunk{end, surface[start], surface[start]};
    for (std::size_t k = start + 1; k <= end; ++k) {
      const physics::SurfaceState& s = surface[k];
      chunk.hi.f_ox = std::max(chunk.hi.f_ox, s.f_ox);
      chunk.hi.ef_minus_ei = std::max(chunk.hi.ef_minus_ei, s.ef_minus_ei);
      chunk.lo.f_ox = std::min(chunk.lo.f_ox, s.f_ox);
      chunk.lo.ef_minus_ei = std::min(chunk.lo.ef_minus_ei, s.ef_minus_ei);
    }
    schedule.chunks.push_back(chunk);
    start = end;
  }
}

/// A copy of a column-less schedule with the column and chunks added, or
/// null when `schedule` already carries a column (or is malformed).
std::shared_ptr<const BiasSchedule> with_own_surface(
    const physics::SrhModel& model, const BiasSchedule& schedule) {
  if (!schedule.surface.empty() || schedule.times.empty() ||
      schedule.bias.size() != schedule.times.size()) {
    return nullptr;
  }
  auto own = std::make_shared<BiasSchedule>(schedule);
  add_surface(model, *own);
  return own;
}

/// λ_c on schedule interval [t_a, t_b] with end values a, b: the one
/// interpolation formula of `at` and the cursor, that of Pwl::eval.
double interpolate(double t, double t_a, double t_b, double a, double b) {
  const double alpha = (t - t_a) / (t_b - t_a);
  return a + alpha * (b - a);
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
  add_surface(model, schedule);
  return schedule;
}

BiasPropensity::BiasPropensity(const physics::SrhModel& model,
                               const physics::Trap& trap, const Pwl& v_gs,
                               double max_bias_step)
    : BiasPropensity(model, trap,
                     std::make_shared<const BiasSchedule>(
                         BiasSchedule::build(model, v_gs, max_bias_step)),
                     nullptr) {}

BiasPropensity::BiasPropensity(const physics::SrhModel& model,
                               const physics::Trap& trap,
                               const BiasSchedule& schedule)
    : BiasPropensity(model, trap, with_own_surface(model, schedule),
                     &schedule) {}

BiasPropensity::BiasPropensity(const physics::SrhModel& model,
                               const physics::Trap& trap,
                               std::shared_ptr<const BiasSchedule> owned,
                               const BiasSchedule* schedule)
    : model_(&model),
      trap_(trap),
      total_rate_(model.total_rate(trap)),
      owned_(std::move(owned)),
      schedule_(owned_ ? owned_.get() : schedule) {
  const std::size_t n = schedule_->times.size();
  const auto& chunks = schedule_->chunks;
  bool chunks_ok = n >= 2 ? !chunks.empty() && chunks.back().end == n - 1
                          : chunks.empty();
  for (std::size_t j = 1; chunks_ok && j < chunks.size(); ++j) {
    chunks_ok = chunks[j].end > chunks[j - 1].end;
  }
  if (n == 0 || schedule_->bias.size() != n ||
      schedule_->surface.size() != n || !chunks_ok) {
    throw std::invalid_argument("BiasPropensity: malformed schedule");
  }
  // Per chunk, λ_c at the extreme surface states bounds λ_c and λ_e over
  // it: every IEEE step of capture_rate is monotone in (F_ox, E_F - E_i)
  // for y_tr >= 0, and so is the clamp. The sampler's run-time bound
  // check is the backstop for exp's last ulp.
  envelope_.reserve(chunks.size());
  for (const ScheduleChunk& chunk : chunks) {
    const double hi = std::clamp(
        model.capture_rate(trap, total_rate_, chunk.hi), 0.0, total_rate_);
    const double lo = std::clamp(
        model.capture_rate(trap, total_rate_, chunk.lo), 0.0, total_rate_);
    envelope_.push_back(MajorantSegment{schedule_->times[chunk.end], hi,
                                        total_rate_ - lo});
  }
}

physics::Propensities BiasPropensity::at(double t) const {
  const auto& ts = schedule_->times;
  const std::size_t n = ts.size();
  if (n < 2 || t <= ts.front()) return clamped(capture(0));
  if (t >= ts.back()) return clamped(capture(n - 1));
  const auto k = static_cast<std::size_t>(
      std::upper_bound(ts.begin(), ts.end(), t) - ts.begin() - 1);
  return clamped(
      interpolate(t, ts[k], ts[k + 1], capture(k), capture(k + 1)));
}

double BiasPropensity::rate_bound(double t0, double t1) const {
  // λ_c is piecewise linear, so its range over [t0, t1] is spanned by the
  // endpoint values plus the interior schedule points; λ_e = Λ - λ_c
  // turns the range [lo, hi] into the exact bound max(hi, Λ - lo).
  const auto& ts = schedule_->times;
  double lo = at(t0).lambda_c;
  double hi = lo;
  const double end = at(t1).lambda_c;
  lo = std::min(lo, end);
  hi = std::max(hi, end);
  const auto first = std::upper_bound(ts.begin(), ts.end(), t0);
  const auto last = std::lower_bound(ts.begin(), ts.end(), t1);
  for (auto it = first; it < last; ++it) {
    const double v =
        clamped(capture(static_cast<std::size_t>(it - ts.begin()))).lambda_c;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return std::max(hi, total_rate_ - lo);
}

RateMajorant BiasPropensity::majorant(double t0, double t1) const {
  const auto& ts = schedule_->times;
  if (envelope_.empty() || t1 <= ts.front() || t0 >= ts.back()) {
    // A one-point schedule (or the window misses it entirely): one segment
    // with the exact per-state rates.
    const physics::Propensities p = at(t0);
    return RateMajorant::single(t1, p.lambda_c, p.lambda_e);
  }

  // Clip the chunk envelope. The first overlapping segment's bounds
  // dominate [t0, its end] even when t0 predates the schedule (λ_c is
  // constant there at its front value, which that chunk already covers);
  // any tail past the schedule is constant at the back value.
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
    const physics::Propensities p = clamped(capture(ts.size() - 1));
    clipped.push_back(MajorantSegment{t1, p.lambda_c, p.lambda_e});
  }
  return RateMajorant(std::move(clipped));
}

double BiasPropensity::Cursor::capture(std::size_t k) const {
  if (cached_[0] == k) return values_[0];
  if (cached_[1] == k) return values_[1];
  const double v = p_->capture(k);
  cached_[0] = cached_[1];
  values_[0] = values_[1];
  cached_[1] = k;
  values_[1] = v;
  return v;
}

physics::Propensities BiasPropensity::Cursor::operator()(double t) const {
  const double* ts = p_->schedule_->times.data();
  const std::size_t n = p_->schedule_->times.size();
  if (n < 2 || t <= ts[0]) return p_->clamped(capture(0));
  if (t >= ts[n - 1]) return p_->clamped(capture(n - 1));
  // Candidate times are nondecreasing within a simulate call, so the
  // interval only moves forward: to the first k with t <= ts[k + 1]. A
  // time behind the interval (a fresh window; never on one candidate
  // stream) searches from the start.
  if (t > ts[interval_ + 1] || t < ts[interval_]) {
    const std::size_t from = t < ts[interval_] ? 1 : interval_ + 1;
    interval_ = static_cast<std::size_t>(
        std::lower_bound(ts + from, ts + n - 1, t) - ts - 1);
  }
  const std::size_t k = interval_;
  // Both ends through the cache: moving one interval on reuses the left
  // end as the right end of the last interval.
  const double a = capture(k);
  const double b = capture(k + 1);
  return p_->clamped(interpolate(t, ts[k], ts[k + 1], a, b));
}

}  // namespace samurai::core
