// Reproduces the paper's §I-B observation 1 (after ref. [1]): RTN and
// NBTI are positively correlated because they share a root cause — oxide
// traps.
//
// For a population of sampled devices at fixed stress bias we compute,
// from the same trap population,
//   * an NBTI proxy: the mean threshold shift from the stationary filled
//     charge, ΔV_th = Σ p_fill · q/(C_ox W L), and
//   * the RTN magnitude: the RMS current noise Σ ΔI² p(1-p) from the
//     active traps,
// and report the cross-device Pearson correlation. Device-to-device
// oxide-quality variation (nitridation, thickness, interface roughness)
// makes the trap *density* itself vary between devices — modelled as a
// lognormal factor on the expected trap count — and since both effects
// grow with the same trap population, the correlation is strongly
// positive. That is why the combined design margin is smaller than the
// sum of the individual margins (the paper's design-choice argument).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "physics/constants.hpp"
#include "physics/mos_device.hpp"
#include "physics/srh_model.hpp"
#include "physics/trap_profile.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto devices = static_cast<std::size_t>(cli.get_count("devices", 200));
  const double density_sigma = cli.get_double("density-sigma", 0.5);
  util::Rng rng(cli.get_seed("seed", 21));

  std::printf("=== RTN-NBTI correlation from the common trap origin "
              "(paper §I-B) ===\n\n");

  util::Table table({"node", "devices", "mean NBTI dVth (mV)",
                     "mean RTN sigma (uA)", "Pearson r"});
  for (const char* node : {"90nm", "45nm", "22nm"}) {
    const auto tech = physics::technology(node);
    const physics::SrhModel srh(tech);
    const physics::MosGeometry geom{tech.w_min, tech.l_min};
    const physics::MosDevice device(tech, physics::MosType::kNmos, geom);
    const double v_stress = tech.v_dd;
    const double q_step = physics::kElementaryCharge /
                          (tech.c_ox() * geom.width * geom.length);
    const auto op = device.evaluate(v_stress, 0.5 * tech.v_dd);
    const double delta_i = std::min(
        std::abs(op.i_d) / std::max(device.carrier_count(v_stress), 1.0),
        physics::kElementaryCharge * 1.0e5 / geom.length);

    std::vector<double> nbti, rtn;
    nbti.reserve(devices);
    rtn.reserve(devices);
    for (std::size_t d = 0; d < devices; ++d) {
      util::Rng device_rng = rng.split(d + 1);
      // Lognormal oxide-quality factor on the device's trap density.
      physics::TrapProfileOptions profile;
      const double quality = std::exp(device_rng.normal(0.0, density_sigma));
      profile.fixed_count = static_cast<std::size_t>(device_rng.poisson(
          quality * physics::expected_trap_count(tech, geom)));
      const auto traps =
          physics::sample_trap_profile(tech, geom, device_rng, profile);
      double shift = 0.0;
      double noise_power = 0.0;
      for (const auto& trap : traps) {
        const double p_fill = srh.stationary_fill(trap, v_stress);
        shift += p_fill * q_step;
        noise_power += delta_i * delta_i * p_fill * (1.0 - p_fill);
      }
      nbti.push_back(shift);
      rtn.push_back(std::sqrt(noise_power));
    }

    // Pearson correlation.
    double mx = 0.0, my = 0.0;
    for (std::size_t d = 0; d < devices; ++d) {
      mx += nbti[d];
      my += rtn[d];
    }
    mx /= static_cast<double>(devices);
    my /= static_cast<double>(devices);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t d = 0; d < devices; ++d) {
      sxy += (nbti[d] - mx) * (rtn[d] - my);
      sxx += (nbti[d] - mx) * (nbti[d] - mx);
      syy += (rtn[d] - my) * (rtn[d] - my);
    }
    const double r = sxy / std::sqrt(sxx * syy);
    table.add_row({std::string(node), static_cast<long long>(devices),
                   mx * 1e3, my * 1e6, r});
  }
  table.print(std::cout);

  std::printf("\nExpected shape (paper §I-B / ref. [1]): strongly positive\n"
              "correlation at every node — devices with more (and more\n"
              "occupied) traps suffer more of *both* effects, so the joint\n"
              "RTN+NBTI design margin is smaller than the sum of the\n"
              "individual margins.\n");
  return 0;
}
