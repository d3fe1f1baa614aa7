// Ring-oscillator RTN analysis (paper future-work #4): measure the period
// statistics of a CMOS ring with and without SAMURAI RTN injected into
// every transistor.
//
//   ./ring_jitter [--node 90nm] [--stages 5] [--scale 50] [--seed 5]
#include <cstdio>

#include "osc/ring.hpp"
#include "util/cli.hpp"

using namespace samurai;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  osc::RingConfig config;
  config.tech = physics::technology(cli.get_string("node", "90nm"));
  config.stages = static_cast<std::size_t>(cli.get_u64("stages", 5));
  const double scale = cli.get_double("scale", 50.0);
  const auto seed = cli.get_seed("seed", 5);

  std::printf("Ring-oscillator RTN analysis — %s, %zu stages, RTN x%.0f\n\n",
              config.tech.name.c_str(), config.stages, scale);

  const auto result = osc::ring_rtn_analysis(config, seed, scale);
  if (result.nominal.cycles == 0 || result.with_rtn.cycles == 0) {
    std::printf("ring failed to produce enough cycles — increase t_stop\n");
    return 1;
  }
  std::printf("nominal : %zu cycles, period %.4g ps, jitter (1 sigma) %.3g ps\n",
              result.nominal.cycles, result.nominal.mean * 1e12,
              result.nominal.stddev * 1e12);
  std::printf("with RTN: %zu cycles, period %.4g ps, jitter (1 sigma) %.3g ps\n",
              result.with_rtn.cycles, result.with_rtn.mean * 1e12,
              result.with_rtn.stddev * 1e12);
  std::printf("frequency shift: %.1f ppm, injected RTN transitions: %llu\n",
              result.frequency_shift_ppm,
              static_cast<unsigned long long>(result.rtn_switches));
  std::printf("\nRTN adds low-frequency period modulation on top of the\n"
              "numerical jitter floor — the mechanism behind RTN-induced\n"
              "clock jitter the paper's conclusion points to.\n");
  return 0;
}
