#include "core/uniformisation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace samurai::core {

// ------------------------------------------------------------------ stats

double UniformisationStats::envelope_efficiency() const {
  if (!(envelope_integral > 0.0)) return 1.0;
  return fixed_bound_integral / envelope_integral;
}

void UniformisationStats::merge(const UniformisationStats& other) {
  util::add_counters(kUniformisationCounts, *this, other);
  util::add_counters(kUniformisationSums, *this, other);
}

UniformisationStats UniformisationStats::since(
    const UniformisationStats& other) const {
  UniformisationStats delta = *this;
  util::subtract_counters(kUniformisationCounts, delta, other);
  util::subtract_counters(kUniformisationSums, delta, other);
  return delta;
}

namespace {
constinit util::CounterRegistry<std::uint64_t, kUniformisationCounts.size()>
    g_counts;
constinit util::CounterRegistry<double, kUniformisationSums.size()> g_sums;
}  // namespace

UniformisationStats uniformisation_stats_snapshot() {
  UniformisationStats stats;
  util::load_counters(kUniformisationCounts, g_counts, stats);
  util::load_counters(kUniformisationSums, g_sums, stats);
  return stats;
}

namespace detail {
void uniformisation_stats_accumulate(const UniformisationStats& stats) {
  util::publish_counters(kUniformisationCounts, g_counts, stats);
  util::publish_counters(kUniformisationSums, g_sums, stats);
}
}  // namespace detail

// ----------------------------------------------------------------- kernel

namespace {

/// Per-segment refilled blocks of (unit-exponential, uniform) pairs. One
/// pair per candidate keeps the inner loop branch-light: the only refill
/// branch is a single counter compare. The refill is sized to the
/// expected number of candidates left in the current segment so frozen or
/// short segments do not waste stream.
class RngBlock {
 public:
  struct Pair {
    double exp1;
    double uniform;
  };

  Pair draw(util::Rng& rng, double bound, double remaining,
            std::uint64_t& refills) noexcept {
    if (next_ == size_) refill(rng, bound, remaining, refills);
    const Pair pair{exp_[next_], uni_[next_]};
    ++next_;
    return pair;
  }

 private:
  void refill(util::Rng& rng, double bound, double remaining,
              std::uint64_t& refills) noexcept {
    // Size by the expected candidates left in this segment, but never
    // below twice the previous block: a simulate call that keeps draining
    // small blocks (many short majorant segments, each expecting < 1
    // candidate) grows geometrically to the cap instead of paying one
    // fill-call pair per handful of draws.
    const double expected = std::min(bound * remaining, 4096.0);
    const std::size_t n = std::min(
        kCapacity,
        std::max(static_cast<std::size_t>(expected) + 4, 2 * size_));
    rng.fill_exponential_unit(exp_.data(), n);
    rng.fill_uniform(uni_.data(), n);
    size_ = n;
    next_ = 0;
    ++refills;
  }

  static constexpr std::size_t kCapacity = 256;
  std::array<double, kCapacity> exp_;
  std::array<double, kCapacity> uni_;
  std::size_t size_ = 0;
  std::size_t next_ = 0;
};

/// Generic evaluator: one virtual call per candidate.
struct VirtualEval {
  const PropensityFunction* propensity;
  physics::Propensities operator()(double t) const {
    return propensity->at(t);
  }
};

/// Devirtualised BiasPropensity evaluator: interpolates the tabulated
/// λ_c(t) directly with a monotone segment cursor. Candidate times are
/// nondecreasing within a simulate call, so the containing segment is
/// found by walking forward — no virtual dispatch, no binary search, no
/// shared atomic hint.
class BiasTableEval {
 public:
  explicit BiasTableEval(const BiasPropensity& propensity)
      : times_(propensity.lambda_c_table().times().data()),
        values_(propensity.lambda_c_table().values().data()),
        n_(propensity.lambda_c_table().times().size()),
        total_(propensity.total_rate()) {}

  physics::Propensities operator()(double t) const noexcept {
    double lc;
    if (n_ < 2 || t <= times_[0]) {
      lc = n_ == 0 ? 0.0 : values_[0];
    } else if (t >= times_[n_ - 1]) {
      lc = values_[n_ - 1];
    } else {
      while (t > times_[cursor_ + 1]) ++cursor_;  // t < times_[n_-1]
      if (t < times_[cursor_]) {
        // A fresh window behind the cursor (never happens on the
        // nondecreasing candidate stream, but keep eval total).
        cursor_ = 0;
        while (t > times_[cursor_ + 1]) ++cursor_;
      }
      const double span = times_[cursor_ + 1] - times_[cursor_];
      const double alpha = (t - times_[cursor_]) / span;
      lc = values_[cursor_] + alpha * (values_[cursor_ + 1] - values_[cursor_]);
    }
    lc = std::clamp(lc, 0.0, total_);
    return {lc, total_ - lc};
  }

 private:
  const double* times_;
  const double* values_;
  std::size_t n_;
  double total_;
  mutable std::size_t cursor_ = 0;
};

/// Walk one window's envelope (Lewis–Shedler / Ogata thinning with a
/// piecewise-constant, per-state majorant), appending accepted switch
/// times. The fixed-bound path is the single-segment special case.
/// Returns the state at `tf`.
template <class Eval>
physics::TrapState run_envelope(const Eval& eval, const RateMajorant& majorant,
                                double t0, double tf, physics::TrapState state,
                                double bound_safety, util::Rng& rng,
                                RngBlock& block,
                                const UniformisationOptions& options,
                                std::uint64_t& candidates_total,
                                UniformisationStats& local,
                                std::vector<double>& switches) {
  const auto& segments = majorant.segments();
  double t = t0;
  std::size_t si = 0;
  while (si < segments.size() && segments[si].t_end <= t0) ++si;
  // One unit-exponential budget is carried across segments and bound
  // changes: candidates form a Poisson process with the envelope's
  // piecewise-constant intensity, so by time-rescaling the integrated
  // envelope mass between candidates is Exp(1). A segment therefore costs
  // RNG only when it actually produces a candidate — crossing many short
  // majorant segments of a slow trap consumes budget, not stream.
  bool have_draw = false;
  double budget = 0.0;    // remaining Exp(1) mass until the next candidate
  double accept_u = 0.0;  // the uniform paired with that candidate
  while (t < tf) {
    if (si >= segments.size()) {
      throw std::invalid_argument(
          "uniformisation: majorant does not cover the window");
    }
    const MajorantSegment& seg = segments[si];
    const double seg_end = std::min(seg.t_end, tf);
    ++local.segments;
    double bound = (state == physics::TrapState::kEmpty ? seg.bound_c
                                                        : seg.bound_e) *
                   bound_safety;
    double mark = t;  // envelope-integral accounting anchor
    for (;;) {
      if (!(bound > 0.0)) {
        // Frozen for the current state on this segment: certified no
        // events (zero intensity mass), so skip to the segment end with
        // the budget untouched.
        t = seg_end;
        break;
      }
      if (!have_draw) {
        const auto pair =
            block.draw(rng, bound, seg_end - t, local.rng_refills);
        budget = pair.exp1;
        accept_u = pair.uniform;
        have_draw = true;
      }
      const double capacity = bound * (seg_end - t);
      if (budget >= capacity) {  // candidate past the segment (line 9)
        budget -= capacity;
        local.envelope_integral += bound * (seg_end - mark);
        t = seg_end;
        break;
      }
      t += budget / bound;
      have_draw = false;
      ++local.candidates;
      if (++candidates_total > options.max_candidates) {
        local.envelope_integral += bound * (t - mark);
        throw std::runtime_error("uniformisation: candidate budget exceeded "
                                 "(bad bound or horizon?)");
      }
      const physics::Propensities p = eval(t);
      const double lambda_next = state == physics::TrapState::kFilled
                                     ? p.lambda_e   // line 11
                                     : p.lambda_c;  // line 13
      if (lambda_next > bound * (1.0 + 1e-9)) {
        local.envelope_integral += bound * (t - mark);
        throw std::runtime_error("uniformisation: propensity exceeds bound "
                                 "— thinning would be biased");
      }
      if (accept_u * bound < lambda_next) {  // line 15
        switches.push_back(t);
        state = toggled(state);
        ++local.accepted;
        local.envelope_integral += bound * (t - mark);
        mark = t;
        bound = (state == physics::TrapState::kEmpty ? seg.bound_c
                                                     : seg.bound_e) *
                bound_safety;
      }
    }
    ++si;
  }
  return state;
}

/// Merge the per-call counters into the caller's stats and the process
/// registry on *every* exit — including the budget and bound-violation
/// throws — so diagnostics reflect the work actually done before an abort.
struct FlushStats {
  UniformisationStats* stats;
  const UniformisationStats* local;
  ~FlushStats() {
    if (stats) stats->merge(*local);
    detail::uniformisation_stats_accumulate(*local);
  }
};

template <class Eval>
TrapTrajectory simulate_windows(const PropensityFunction& propensity,
                                const Eval& eval, double t0, double tf,
                                physics::TrapState init_state,
                                const std::vector<double>& window_boundaries,
                                util::Rng& rng,
                                const UniformisationOptions& options,
                                UniformisationStats* stats) {
  UniformisationStats local;
  FlushStats flush{stats, &local};
  std::vector<double> switches;
  physics::TrapState state = init_state;
  std::uint64_t candidates_total = 0;
  RngBlock block;
  // An explicit scalar bound is a fixed-bound request: it cannot certify a
  // per-state envelope, so it disables the majorant walk for the call.
  const bool fixed = !options.use_majorant || options.rate_bound.has_value();
  double start = t0;
  auto run_to = [&](double end) {
    if (!(end > start)) return;
    RateMajorant majorant;
    double window_bound;
    if (fixed) {
      window_bound = options.rate_bound ? *options.rate_bound
                                        : propensity.rate_bound(start, end);
      if (!(window_bound >= 0.0) || !std::isfinite(window_bound)) {
        throw std::invalid_argument("uniformisation: invalid rate bound");
      }
      majorant = RateMajorant::single(end, window_bound, window_bound);
    } else {
      majorant = propensity.majorant(start, end);
      // The fixed-bound comparison integral, read off the envelope instead
      // of a second rate_bound() scan: segment bounds are maxima of exact
      // per-interval bounds, so their maximum is the windowed rate bound.
      window_bound = 0.0;
      for (const auto& seg : majorant.segments()) {
        window_bound = std::max({window_bound, seg.bound_c, seg.bound_e});
      }
    }
    local.fixed_bound_integral +=
        window_bound * options.bound_safety * (end - start);
    state = run_envelope(eval, majorant, start, end, state,
                         options.bound_safety, rng, block, options,
                         candidates_total, local, switches);
    start = end;
  };
  for (double boundary : window_boundaries) {
    if (boundary <= t0) continue;
    if (boundary >= tf) break;
    if (!(boundary > start)) {
      throw std::invalid_argument(
          "simulate_trap_windowed: boundaries must be strictly increasing");
    }
    run_to(boundary);
  }
  run_to(tf);
  return TrapTrajectory(t0, tf, init_state, std::move(switches));
}

template <class... Args>
TrapTrajectory dispatch_simulate(const PropensityFunction& propensity,
                                 Args&&... args) {
  // One dynamic_cast per simulate call buys a virtual-free, search-free
  // inner loop for the dominant (BiasPropensity) workload.
  if (const auto* bias = dynamic_cast<const BiasPropensity*>(&propensity)) {
    return simulate_windows(propensity, BiasTableEval(*bias),
                            std::forward<Args>(args)...);
  }
  return simulate_windows(propensity, VirtualEval{&propensity},
                          std::forward<Args>(args)...);
}

}  // namespace

TrapTrajectory simulate_trap(const PropensityFunction& propensity, double t0,
                             double tf, physics::TrapState init_state,
                             util::Rng& rng,
                             const UniformisationOptions& options,
                             UniformisationStats* stats) {
  if (!(tf >= t0)) throw std::invalid_argument("simulate_trap: tf < t0");
  return dispatch_simulate(propensity, t0, tf, init_state,
                           std::vector<double>{}, rng, options, stats);
}

TrapTrajectory simulate_trap_windowed(const PropensityFunction& propensity,
                                      double t0, double tf,
                                      physics::TrapState init_state,
                                      const std::vector<double>& window_boundaries,
                                      util::Rng& rng,
                                      const UniformisationOptions& options,
                                      UniformisationStats* stats) {
  if (!(tf >= t0)) throw std::invalid_argument("simulate_trap_windowed: tf < t0");
  return dispatch_simulate(propensity, t0, tf, init_state, window_boundaries,
                           rng, options, stats);
}

std::vector<double> master_equation_fill_probability(
    const PropensityFunction& propensity, double t0, double tf,
    double p_filled_0, std::size_t steps, std::vector<double>* grid) {
  if (steps == 0) throw std::invalid_argument("master equation: steps == 0");
  const double h = (tf - t0) / static_cast<double>(steps);
  auto rhs = [&](double t, double p) {
    const physics::Propensities pr = propensity.at(t);
    return pr.lambda_c * (1.0 - p) - pr.lambda_e * p;
  };
  std::vector<double> out;
  out.reserve(steps + 1);
  if (grid) {
    grid->clear();
    grid->reserve(steps + 1);
  }
  double p = p_filled_0;
  double t = t0;
  out.push_back(p);
  if (grid) grid->push_back(t);
  for (std::size_t i = 0; i < steps; ++i) {
    const double k1 = rhs(t, p);
    const double k2 = rhs(t + 0.5 * h, p + 0.5 * h * k1);
    const double k3 = rhs(t + 0.5 * h, p + 0.5 * h * k2);
    const double k4 = rhs(t + h, p + h * k3);
    p += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t = t0 + static_cast<double>(i + 1) * h;
    out.push_back(p);
    if (grid) grid->push_back(t);
  }
  return out;
}

}  // namespace samurai::core
