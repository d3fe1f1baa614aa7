// Device-level RTN generation: run Algorithm 1 for every trap in a device
// and convert the occupancy function to an I_RTN(t) trace via paper Eq. 3:
//
//   I_RTN(t) = I_d(t) / (W · L · N(t)) · N_filled(t)
//
// where N(t) is the inversion-carrier areal density at the instantaneous
// gate bias and N_filled(t) the number of filled traps.
#pragma once

#include <cstdint>
#include <vector>

#include "core/propensity.hpp"
#include "core/trajectory.hpp"
#include "core/uniformisation.hpp"
#include "core/waveform.hpp"
#include "physics/mos_device.hpp"
#include "physics/srh_model.hpp"
#include "physics/trap.hpp"
#include "util/rng.hpp"

namespace samurai::core {

struct RtnGeneratorOptions {
  /// Trace start / end (seconds).
  double t0 = 0.0;
  double tf = 1e-6;
  /// Bias tabulation resolution passed to BiasPropensity.
  double max_bias_step = 0.01;
  /// Number of uniform samples of the smooth envelope I_d/(W L N) used
  /// when rendering I_RTN as a PWL waveform (switch times are always
  /// included exactly).
  std::size_t envelope_samples = 512;
  /// Artificial amplitude scaling (the paper scales by 30 in Fig. 8(e) to
  /// make the rare write error observable).
  double amplitude_scale = 1.0;
  UniformisationOptions uniformisation;
  /// Worker threads for the per-trap fan-out. Each trap draws from its own
  /// `rng.split(i + 1)` stream, so any thread count is bit-identical to
  /// the serial run.
  std::size_t threads = 1;
};

struct DeviceRtnResult {
  std::vector<TrapTrajectory> trajectories;  ///< one per trap
  StepTrace n_filled;                        ///< occupancy count N_filled(t)
  Pwl i_rtn;                                 ///< Eq. 3 trace, amps
  UniformisationStats stats;                 ///< aggregate sampler statistics
};

/// Generate the full RTN trace for one device under bias waveforms
/// V_gs(t) and I_d(t). Each trap gets an independent RNG stream derived
/// from `rng`, so the result is invariant to trap simulation order. The
/// bias schedule (waveform refinement and surface state) is built once and
/// shared by every trap; each trap pays one exponential per schedule point.
DeviceRtnResult generate_device_rtn(const physics::SrhModel& model,
                                    const physics::MosDevice& device,
                                    const std::vector<physics::Trap>& traps,
                                    const Pwl& v_gs, const Pwl& i_d,
                                    util::Rng& rng,
                                    const RtnGeneratorOptions& options = {});

/// Prebuilt per-device RTN workload: the per-trap λ_c tabulations (one
/// exponential per trap and schedule point, most of generate_device_rtn's
/// setup cost) plus a tabulated Eq. 3 amplitude envelope, built once and
/// reused across generate() calls. Repeated-generation drivers
/// (Monte-Carlo campaigns, the RTN benchmark) construct the workload
/// outside their hot loop so each pass pays only Algorithm 1 plus the
/// render walk.
///
/// generate() draws trap i from `rng.split(i + 1)` exactly like
/// generate_device_rtn, so trajectories and sampler statistics are
/// bit-identical to the one-shot call with the same (traps, v_gs,
/// max_bias_step). The rendered i_rtn differs only in the amplitude
/// factor: the envelope is linearly interpolated from its tabulation grid
/// (the bias schedule merged with I_d's breakpoints) instead of re-solving
/// the surface potential at every render point.
class DeviceRtnWorkload {
 public:
  DeviceRtnWorkload(const physics::SrhModel& model,
                    const physics::MosDevice& device,
                    std::vector<physics::Trap> traps, Pwl v_gs, Pwl i_d,
                    double max_bias_step = 0.01);

  /// Run Algorithm 1 for every trap and render Eq. 3.
  /// `options.max_bias_step` is ignored (baked in at construction).
  DeviceRtnResult generate(util::Rng& rng,
                           const RtnGeneratorOptions& options) const;

  std::size_t num_traps() const noexcept { return traps_.size(); }
  /// The tabulated amplitude envelope ΔI(t) (exposed for testing).
  const Pwl& amplitude_envelope() const noexcept { return amplitude_; }

 private:
  std::vector<physics::Trap> traps_;
  std::vector<BiasPropensity> propensities_;  ///< one per trap
  Pwl amplitude_;  ///< rtn_amplitude(device, v_gs(t), i_d(t)) tabulated
};

/// The smooth per-trap amplitude envelope ΔI(t) = I_d(t)/(W·L·N(t)), amps.
double rtn_amplitude(const physics::MosDevice& device, double v_gs, double i_d);

/// The strictly increasing sample grid used to render I_RTN: a uniform
/// envelope grid over [t0, tf] plus, for every interior switch time, the
/// switch itself and a twin at `std::nextafter(t_switch, t0)` so the
/// occupancy step survives PWL interpolation even when switches are
/// arbitrarily close together. Exposed for testing.
std::vector<double> build_rtn_grid(double t0, double tf,
                                   std::size_t envelope_samples,
                                   const std::vector<double>& switch_times);

}  // namespace samurai::core
