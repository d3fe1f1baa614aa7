// Markov uniformisation — the SAMURAI core (paper §III, Algorithm 1).
//
// A two-state time-inhomogeneous Markov chain with propensities
// λ_c(t), λ_e(t) is simulated *exactly* by:
//   1. generating candidate events from a homogeneous Poisson process of
//      rate λ* >= max_t max(λ_c, λ_e)   (the "uniformised" chain), then
//   2. accepting each candidate with probability λ_next(t)/λ*, where
//      λ_next is the propensity out of the current state at the candidate
//      time (thinning).
// The accepted events are distributed exactly as the original chain's
// transitions (Heidelberger & Nicol 1993; Shanthikumar 1986).
//
// The default sampler refines this with a Lewis–Shedler-style
// *piecewise-constant majorant* (DESIGN.md §11): the propensity supplies a
// per-segment, per-state upper envelope (`PropensityFunction::majorant`),
// and candidates are drawn at the *current state's* segment bound. Between
// accepted events the next transition has hazard λ_s(t), so thinning
// against any dominating piecewise-constant rate is exact (Ogata's
// modified thinning); the expected candidate count drops from max·T to
// ∫λ*_{s(t)}(t)dt — cold segments (a trap pinned by its bias) draw almost
// nothing. The classic fixed-bound path is retained behind
// `UniformisationOptions::use_majorant = false` (or an explicit
// `rate_bound` override) as the regression oracle.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/propensity.hpp"
#include "core/trajectory.hpp"
#include "physics/trap.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace samurai::core {

struct UniformisationOptions {
  /// Optional override of the propensity's own bound (must still be
  /// valid). Setting it forces the fixed-bound path: an explicit scalar
  /// bound and a piecewise envelope are mutually exclusive requests.
  std::optional<double> rate_bound;
  /// Hard cap on candidate events, *total across all windows* of one
  /// simulate call; exceeding it throws (guards against a mis-specified
  /// bound or horizon even when a caller splits the horizon into many
  /// windows).
  std::uint64_t max_candidates = 500'000'000;
  /// Walk the propensity's piecewise-constant majorant (default). false =
  /// one global bound per window, the pre-majorant behaviour.
  bool use_majorant = true;
};

/// Sampler work counters. Merged into a process-wide atomic registry on
/// every simulate call (uniformisation_stats_snapshot) so the campaign
/// runtime can attribute per-shard RTN-generation work without threading
/// state through every sample type — same scheme as spice::SolverStats.
/// A new counter is a field here plus a row in kUniformisationCounts or
/// kUniformisationSums (DESIGN.md §18).
struct UniformisationStats {
  std::uint64_t candidates = 0;   ///< thinning candidates drawn
  std::uint64_t accepted = 0;     ///< candidates that became transitions
  std::uint64_t segments = 0;     ///< majorant segments walked
  std::uint64_t rng_refills = 0;  ///< RNG block refills
  /// ∫λ*(t)dt of the envelope actually walked (the expected candidate
  /// count; per-state bound of the realised trajectory's current state).
  double envelope_integral = 0.0;
  /// What the fixed-bound path would have walked: Σ rate_bound(window) ·
  /// window length.
  double fixed_bound_integral = 0.0;

  /// Expected candidate-reduction factor of the walked envelope over the
  /// fixed bound: fixed_bound_integral / envelope_integral (1.0 when no
  /// envelope work was recorded; the fixed-bound path reports ~1.0).
  double envelope_efficiency() const;

  void merge(const UniformisationStats& other);
  /// Counter-wise `this - other` (for before/after snapshot deltas).
  UniformisationStats since(const UniformisationStats& other) const;
};

/// The integer UniformisationStats fields, in field order, under their
/// ledger keys.
inline constexpr auto kUniformisationCounts =
    std::to_array<util::Counter<UniformisationStats, std::uint64_t>>({
        {"rtn_candidates", &UniformisationStats::candidates},
        {"rtn_accepted", &UniformisationStats::accepted},
        {"rtn_segments", &UniformisationStats::segments},
        {"rtn_rng_refills", &UniformisationStats::rng_refills},
    });
/// The floating-point UniformisationStats fields (integrals), likewise.
inline constexpr auto kUniformisationSums =
    std::to_array<util::Counter<UniformisationStats, double>>({
        {"rtn_envelope_integral", &UniformisationStats::envelope_integral},
        {"rtn_fixed_bound_integral",
         &UniformisationStats::fixed_bound_integral},
    });
static_assert(sizeof(UniformisationStats) ==
                  kUniformisationCounts.size() * sizeof(std::uint64_t) +
                      kUniformisationSums.size() * sizeof(double),
              "every UniformisationStats field needs a table row");

/// Process-wide aggregate of every simulate call so far (atomic,
/// thread-safe). Snapshot before/after a work region and diff with
/// UniformisationStats::since to attribute sampler work to that region.
/// The integrals are kept in fixed point with 2^-20 resolution per call,
/// so the aggregate is the same whatever order the calls finish in.
UniformisationStats uniformisation_stats_snapshot();

namespace detail {
void uniformisation_stats_accumulate(const UniformisationStats& stats);
}  // namespace detail

/// Algorithm 1: simulate one trap over [t0, tf]. Faithful to the paper:
/// exponential inter-candidate times at the (segment) bound, thinning by
/// λ_next/λ*. Candidate times are nondecreasing, which lets the
/// BiasPropensity fast path advance a monotone schedule cursor
/// (BiasPropensity::Cursor) and evaluate λ_c only around each candidate.
TrapTrajectory simulate_trap(const PropensityFunction& propensity, double t0,
                             double tf, physics::TrapState init_state,
                             util::Rng& rng,
                             const UniformisationOptions& options = {},
                             UniformisationStats* stats = nullptr);

/// Windowed re-uniformisation: split [t0, tf] at `window_boundaries`
/// (strictly increasing, interior points only) and run Algorithm 1 per
/// window with that window's bound (or majorant). Exactness is preserved
/// because the thinned process restarted at a deterministic time is still
/// the same inhomogeneous chain. The candidate budget spans all windows.
TrapTrajectory simulate_trap_windowed(const PropensityFunction& propensity,
                                      double t0, double tf,
                                      physics::TrapState init_state,
                                      const std::vector<double>& window_boundaries,
                                      util::Rng& rng,
                                      const UniformisationOptions& options = {},
                                      UniformisationStats* stats = nullptr);

/// Reference solution of the chain's master equation
///   dp_filled/dt = λ_c(t) (1 - p_filled) - λ_e(t) p_filled
/// by classic RK4 on `steps` sub-intervals. Used to validate the sampler.
std::vector<double> master_equation_fill_probability(
    const PropensityFunction& propensity, double t0, double tf,
    double p_filled_0, std::size_t steps, std::vector<double>* grid = nullptr);

}  // namespace samurai::core
