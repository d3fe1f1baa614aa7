#include "core/rtn_generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "physics/constants.hpp"
#include "util/grid.hpp"
#include "util/thread_pool.hpp"

namespace samurai::core {

double rtn_amplitude(const physics::MosDevice& device, double v_gs, double i_d) {
  const double carriers = device.carrier_count(v_gs);
  // Eq. 3's ΔI = I_d/(W·L·N) diverges when the charge-sheet carrier count
  // collapses (subthreshold, switching edges) while I_d is still finite.
  // Writing I_d = W Q_inv v shows ΔI = q·v/L, which is bounded by the
  // saturation velocity: cap ΔI at q·v_sat/L (~0.2 uA at 90 nm).
  constexpr double kSaturationVelocity = 1.0e5;  // m/s
  const double cap = physics::kElementaryCharge * kSaturationVelocity /
                     device.geometry().length;
  return std::min(std::abs(i_d) / std::max(carriers, 1.0), cap);
}

std::vector<double> build_rtn_grid(double t0, double tf,
                                   std::size_t envelope_samples,
                                   const std::vector<double>& switch_times) {
  const std::size_t env_n = std::max<std::size_t>(envelope_samples, 2);
  std::vector<double> grid = util::linspace(t0, tf, env_n);
  for (double t_switch : switch_times) {
    if (t_switch <= t0 || t_switch >= tf) continue;
    // The twin is the closest representable time before the switch, so it
    // can never land at or before an earlier grid/switch point (closer
    // switches are not representable); a twin that still fails to be
    // interior — a switch adjacent to t0 — is dropped.
    const double twin = std::nextafter(t_switch, t0);
    if (twin > t0) grid.push_back(twin);
    grid.push_back(t_switch);
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

DeviceRtnResult generate_device_rtn(const physics::SrhModel& model,
                                    const physics::MosDevice& device,
                                    const std::vector<physics::Trap>& traps,
                                    const Pwl& v_gs, const Pwl& i_d,
                                    util::Rng& rng,
                                    const RtnGeneratorOptions& options) {
  if (!(options.tf > options.t0)) {
    throw std::invalid_argument("generate_device_rtn: tf <= t0");
  }
  // The schedule and its surface state depend only on the waveform: build
  // them once and let each trap pay only its own λ_c exponentials.
  const BiasSchedule schedule =
      BiasSchedule::build(model, v_gs, options.max_bias_step);

  // Trap i draws only from rng.split(i + 1) and writes only slot i, so the
  // result is bit-identical for any thread count; the sampler stats are
  // reduced in index order.
  DeviceRtnResult result;
  result.trajectories.resize(traps.size());
  std::vector<UniformisationStats> trap_stats(traps.size());
  util::parallel_for_indexed(
      traps.size(),
      [&](std::size_t i) {
        util::Rng trap_rng = rng.split(i + 1);
        const BiasPropensity propensity(model, traps[i], schedule);
        result.trajectories[i] = simulate_trap(
            propensity, options.t0, options.tf, traps[i].init_state,
            trap_rng, options.uniformisation, &trap_stats[i]);
      },
      options.threads);
  for (const auto& stats : trap_stats) result.stats.merge(stats);

  // Render Eq. 3 as a PWL waveform: the smooth envelope sampled on a
  // uniform grid with every occupancy switch inserted exactly (plus a twin
  // point just before it so the step survives PWL interpolation). The
  // grid is sorted, so the occupancy is advanced with a monotone cursor
  // instead of a binary search per point (same semantics as
  // StepTrace::eval: value at the last switch time <= t).
  result.n_filled = aggregate_filled_count(result.trajectories);
  const auto& switch_times = result.n_filled.times();
  const auto& counts = result.n_filled.values();
  const std::vector<double> grid = build_rtn_grid(
      options.t0, options.tf, options.envelope_samples, switch_times);
  std::size_t cursor = 0;
  double occupancy = result.n_filled.initial_value();
  Pwl trace;
  double prev_t = options.t0 - 1.0;
  for (double t : grid) {
    if (!(t > prev_t)) continue;
    while (cursor < switch_times.size() && switch_times[cursor] <= t) {
      occupancy = counts[cursor++];
    }
    trace.append(t, options.amplitude_scale *
                        rtn_amplitude(device, v_gs.eval(t), i_d.eval(t)) *
                        occupancy);
    prev_t = t;
  }
  result.i_rtn = std::move(trace);
  return result;
}

}  // namespace samurai::core
