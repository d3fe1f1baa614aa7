// Ring-oscillator RTN analysis (paper future-work direction #4: "RTN is
// also known to impact ring oscillators").
//
// Builds an odd-stage CMOS inverter ring, runs a transient, extracts the
// oscillation period from threshold crossings, and measures how injected
// RTN currents modulate the period (period jitter / frequency shift).
#pragma once

#include <cstdint>
#include <vector>

#include "core/waveform.hpp"
#include "physics/technology.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"

namespace samurai::osc {

/// Inverter widths of every stage, × w_min. Each stage output also
/// carries a load of 2 C_ox·w_min·l_min.
inline constexpr double kRingWidthMultN = 2.0;
inline constexpr double kRingWidthMultP = 4.0;

struct RingConfig {
  physics::Technology tech;
  std::size_t stages = 5;     ///< odd, 3..10001
  double t_stop = 0.0;        ///< 0 = auto (enough for ~40 periods)
};

struct RingBuild {
  std::vector<std::string> stage_nodes;  ///< output node of each stage
  std::string vdd_node;
};

/// Build the ring into `circuit` (supply source included). A stage count
/// that is even, below 3 or above 10001 throws std::invalid_argument.
RingBuild build_ring(spice::Circuit& circuit, const RingConfig& config);

struct PeriodStats {
  std::size_t cycles = 0;
  double mean = 0.0;    ///< s
  double stddev = 0.0;  ///< s
  std::vector<double> periods;
};

/// Rising-edge crossing times of `waveform` through `threshold`.
std::vector<double> rising_crossings(const core::Pwl& waveform,
                                     double threshold);

/// Period statistics from successive rising crossings, discarding the
/// first `skip_cycles` (startup).
PeriodStats period_statistics(const std::vector<double>& crossings,
                              std::size_t skip_cycles = 4);

struct RingRtnResult {
  PeriodStats nominal;
  PeriodStats with_rtn;
  double frequency_shift_ppm = 0.0;
  std::uint64_t rtn_switches = 0;
};

/// Run the ring twice — without RTN and with SAMURAI traces injected into
/// every transistor (amplitude-scaled by `rtn_scale`) — and compare
/// period statistics. The stage count is checked as in build_ring before
/// anything is allocated.
RingRtnResult ring_rtn_analysis(const RingConfig& config, std::uint64_t seed,
                                double rtn_scale);

}  // namespace samurai::osc
