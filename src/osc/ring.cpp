#include "osc/ring.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "spice/devices.hpp"
#include "spice/rtn_integration.hpp"

namespace samurai::osc {

namespace {

/// Largest stage count a ring may have. Every stage brings a nodeset
/// entry, three devices and two RTN requests, all allocated before the
/// first solve, so a wrapped count such as a CLI's -1 must fail here
/// rather than allocate until memory runs out.
constexpr std::size_t kMaxStages = 10001;

/// The transient window holds this many dt_max steps.
constexpr std::size_t kStepsPerWindow = 4000;

std::string stage_node(std::size_t stage) { return "n" + std::to_string(stage); }

void check_stages(const RingConfig& config) {
  if (config.stages < 3 || config.stages % 2 == 0 ||
      config.stages > kMaxStages) {
    throw std::invalid_argument("ring: stages must be odd, >= 3 and <= " +
                                std::to_string(kMaxStages) + " (got " +
                                std::to_string(config.stages) + ")");
  }
}

spice::TransientOptions ring_transient_options(const RingConfig& config) {
  spice::TransientOptions options;
  options.t_start = 0.0;
  options.t_stop = config.t_stop > 0.0
                       ? config.t_stop
                       : 50.0 * static_cast<double>(config.stages) * 2.0e-10;
  options.dt_max = options.t_stop / static_cast<double>(kStepsPerWindow);
  // Kick the ring out of its metastable DC point: alternate the stage
  // nodesets; with an odd stage count one edge is frustrated and the ring
  // starts oscillating.
  for (std::size_t s = 0; s < config.stages; ++s) {
    options.dc.nodeset[stage_node(s)] = (s % 2 == 0) ? 0.0 : config.tech.v_dd;
  }
  return options;
}

}  // namespace

RingBuild build_ring(spice::Circuit& circuit, const RingConfig& config) {
  check_stages(config);
  RingBuild build;
  build.vdd_node = "vdd";
  const int vdd = circuit.node(build.vdd_node);
  spice::VoltageSource::dc(circuit, "Vdd", vdd, spice::kGround,
                           config.tech.v_dd);

  build.stage_nodes.reserve(config.stages);
  for (std::size_t s = 0; s < config.stages; ++s) {
    build.stage_nodes.push_back(stage_node(s));
  }
  const double load =
      2.0 * config.tech.c_ox() * config.tech.w_min * config.tech.l_min;
  for (std::size_t s = 0; s < config.stages; ++s) {
    const int in = circuit.node(build.stage_nodes[(s + config.stages - 1) %
                                                  config.stages]);
    const int out = circuit.node(build.stage_nodes[s]);
    physics::MosDevice nmos(
        config.tech, physics::MosType::kNmos,
        {kRingWidthMultN * config.tech.w_min, config.tech.l_min});
    physics::MosDevice pmos(
        config.tech, physics::MosType::kPmos,
        {kRingWidthMultP * config.tech.w_min, config.tech.l_min});
    circuit.add<spice::Mosfet>("MN" + std::to_string(s), out, in,
                               spice::kGround, spice::kGround, std::move(nmos));
    circuit.add<spice::Mosfet>("MP" + std::to_string(s), out, in, vdd, vdd,
                               std::move(pmos));
    circuit.add<spice::Capacitor>("CL" + std::to_string(s), out,
                                  spice::kGround, load);
  }
  // Symmetry-breaking kick: without it the DC solve can settle on the
  // metastable all-stages-at-midrail point and the noiseless transient
  // would sit there forever. A brief current pulse into stage 0 starts
  // the oscillation deterministically.
  core::Pwl kick;
  kick.append(0.0, 0.0);
  kick.append(10e-12, 50e-6);
  kick.append(150e-12, 50e-6);
  kick.append(160e-12, 0.0);
  circuit
      .add<spice::CurrentSource>("Ikick", spice::kGround,
                                 circuit.node(build.stage_nodes[0]), kick)
      .set_emit_breakpoints(true);
  return build;
}

std::vector<double> rising_crossings(const core::Pwl& waveform,
                                     double threshold) {
  std::vector<double> crossings;
  const auto& ts = waveform.times();
  const auto& vs = waveform.values();
  for (std::size_t i = 1; i < ts.size(); ++i) {
    if (vs[i - 1] < threshold && vs[i] >= threshold) {
      const double alpha = (threshold - vs[i - 1]) / (vs[i] - vs[i - 1]);
      crossings.push_back(ts[i - 1] + alpha * (ts[i] - ts[i - 1]));
    }
  }
  return crossings;
}

PeriodStats period_statistics(const std::vector<double>& crossings,
                              std::size_t skip_cycles) {
  PeriodStats stats;
  if (crossings.size() < skip_cycles + 2) return stats;
  for (std::size_t i = skip_cycles + 1; i < crossings.size(); ++i) {
    stats.periods.push_back(crossings[i] - crossings[i - 1]);
  }
  stats.cycles = stats.periods.size();
  double sum = 0.0;
  for (double p : stats.periods) sum += p;
  stats.mean = sum / static_cast<double>(stats.cycles);
  double ss = 0.0;
  for (double p : stats.periods) {
    const double d = p - stats.mean;
    ss += d * d;
  }
  stats.stddev = stats.cycles > 1
                     ? std::sqrt(ss / static_cast<double>(stats.cycles - 1))
                     : 0.0;
  return stats;
}

RingRtnResult ring_rtn_analysis(const RingConfig& config, std::uint64_t seed,
                                double rtn_scale) {
  check_stages(config);
  // Every transistor of every stage, MN0, MP0, MN1, ..., the k-th (from 1)
  // on Rng(seed).split(k·101) for its traps and split(k·977 + 13) for
  // Algorithm 1.
  std::vector<spice::RtnRequest> requests;
  for (std::size_t s = 0; s < config.stages; ++s) {
    for (const char* prefix : {"MN", "MP"}) {
      const std::uint64_t k = requests.size() + 1;
      spice::RtnRequest request;
      request.device = prefix + std::to_string(s);
      request.scale = rtn_scale;
      request.seed = seed;
      request.profile_stream = k * 101;
      request.trap_stream = k * 977 + 13;
      requests.push_back(std::move(request));
    }
  }
  // One envelope sample per dt_max step. The injection is grid-sampled, so
  // this costs no solver steps; a coarser render (256 samples, 47 ps apart
  // at 12 ns) aliases the ~150 ps period and reads as period jitter.
  spice::RtnPipelineOptions pipeline;
  pipeline.generator.envelope_samples = kStepsPerWindow + 1;

  RingBuild build;  // node names, identical for both factory calls
  const auto run = spice::run_rtn_transient(
      [&] {
        auto circuit = std::make_unique<spice::Circuit>();
        build = build_ring(*circuit, config);
        return circuit;
      },
      ring_transient_options(config), requests, pipeline);

  RingRtnResult result;
  const double threshold = 0.5 * config.tech.v_dd;
  result.nominal = period_statistics(
      rising_crossings(run.nominal.voltage(build.stage_nodes[0]), threshold));
  result.with_rtn = period_statistics(
      rising_crossings(run.with_rtn.voltage(build.stage_nodes[0]), threshold));
  for (const auto& trace : run.traces) result.rtn_switches += trace.stats.accepted;
  if (result.nominal.mean > 0.0 && result.with_rtn.mean > 0.0) {
    result.frequency_shift_ppm =
        (1.0 / result.with_rtn.mean - 1.0 / result.nominal.mean) /
        (1.0 / result.nominal.mean) * 1e6;
  }
  return result;
}

}  // namespace samurai::osc
