#include "pipeline.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/propensity.hpp"
#include "core/trajectory.hpp"
#include "core/uniformisation.hpp"
#include "physics/trap_profile.hpp"
#include "spice/devices.hpp"
#include "sram/cell.hpp"
#include "sram/detector.hpp"
#include "sram/pattern.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace samurai;

namespace {

/// The Eq. 3 render of core::generate_device_rtn: occupancy aggregated
/// over the trajectories, the amplitude envelope sampled on
/// build_rtn_grid's grid with a monotone occupancy cursor.
void render(core::DeviceRtnResult& result,
            const core::RtnGeneratorOptions& options,
            const physics::MosDevice& device, const core::Pwl& v_gs,
            const core::Pwl& i_d) {
  result.n_filled = core::aggregate_filled_count(result.trajectories);
  const auto& switch_times = result.n_filled.times();
  const auto& counts = result.n_filled.values();
  const std::vector<double> grid = core::build_rtn_grid(
      options.t0, options.tf, options.envelope_samples, switch_times);
  std::size_t cursor = 0;
  double occupancy = result.n_filled.initial_value();
  core::Pwl trace;
  double prev_t = options.t0 - 1.0;
  for (double t : grid) {
    if (!(t > prev_t)) continue;
    while (cursor < switch_times.size() && switch_times[cursor] <= t) {
      occupancy = counts[cursor++];
    }
    trace.append(t, options.amplitude_scale *
                        core::rtn_amplitude(device, v_gs.eval(t), i_d.eval(t)) *
                        occupancy);
    prev_t = t;
  }
  result.i_rtn = std::move(trace);
}

/// Pattern sources and supply, wired as run_methodology wires them.
void attach_sources(spice::Circuit& circuit, const sram::SramCellHandles& handles,
                    const sram::PatternWaveforms& pattern, double v_dd) {
  circuit.add<spice::VoltageSource>(circuit, "Vdd", circuit.find_node(handles.vdd),
                                    spice::kGround, core::Pwl::constant(v_dd));
  circuit.add<spice::VoltageSource>(circuit, "Vwl", circuit.find_node(handles.wl),
                                    spice::kGround, pattern.wl);
  circuit.add<spice::VoltageSource>(circuit, "Vbl", circuit.find_node(handles.bl),
                                    spice::kGround, pattern.bl);
  circuit.add<spice::VoltageSource>(circuit, "Vblb",
                                    circuit.find_node(handles.blb),
                                    spice::kGround, pattern.blb);
}

/// run_methodology's transient options: the pattern window, a period/40
/// step cap and nodesets placing the cell in its Q = 0 basin.
spice::TransientOptions transient_options(const sram::MethodologyConfig& config,
                                          const sram::PatternWaveforms& pattern,
                                          const sram::SramCellHandles& handles) {
  spice::TransientOptions options = config.transient;
  options.t_start = 0.0;
  options.t_stop = pattern.t_end;
  if (options.dt_max <= 0.0) options.dt_max = config.timing.period / 40.0;
  options.dc.nodeset[handles.q] = 0.0;
  options.dc.nodeset[handles.qb] = config.tech.v_dd;
  options.dc.nodeset[handles.vdd] = config.tech.v_dd;
  options.dc.nodeset[handles.bl] = config.tech.v_dd;
  options.dc.nodeset[handles.blb] = config.tech.v_dd;
  return options;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

template <typename T>
bool same_object(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

core::DeviceRtnResult traced_device_rtn(const physics::SrhModel& model,
                                        const physics::MosDevice& device,
                                        const std::vector<physics::Trap>& traps,
                                        const core::Pwl& v_gs,
                                        const core::Pwl& i_d, util::Rng& rng,
                                        const core::RtnGeneratorOptions& options,
                                        PipelineCounts& counts) {
  if (!(options.tf > options.t0)) {
    throw std::invalid_argument("traced_device_rtn: tf <= t0");
  }
  core::BiasSchedule schedule;
  {
    const Scope span("core.bias_schedule");
    schedule = core::BiasSchedule::build(v_gs, options.max_bias_step);
  }
  counts.schedule_points += schedule.times.size();
  counts.srh_evals += traps.size() * schedule.times.size();

  core::DeviceRtnResult result;
  result.trajectories.resize(traps.size());
  std::vector<core::UniformisationStats> trap_stats(traps.size());
  for (std::size_t i = 0; i < traps.size(); ++i) {
    std::optional<core::BiasPropensity> propensity;
    {
      const Scope span("core.tabulation");
      propensity.emplace(model, traps[i], schedule);
    }
    const Scope span("core.sampling");
    util::Rng trap_rng = rng.split(i + 1);
    result.trajectories[i] = core::simulate_trap(
        *propensity, options.t0, options.tf, traps[i].init_state, trap_rng,
        options.uniformisation, &trap_stats[i]);
  }
  for (const auto& stats : trap_stats) result.stats.merge(stats);

  const Scope span("core.render");
  render(result, options, device, v_gs, i_d);
  return result;
}

sram::MethodologyResult traced_methodology(const sram::MethodologyConfig& config,
                                           PipelineCounts& counts) {
  if (config.ops.empty()) {
    throw std::invalid_argument("traced_methodology: empty op pattern");
  }
  sram::MethodologyResult result;
  spice::NewtonWorkspace workspace;

  // Phase 1: nominal transient on a circuit this function owns, so bias
  // extraction below reads live devices.
  spice::Circuit nominal_circuit;
  sram::SramCellHandles handles;
  spice::TransientOptions options;
  {
    const Scope span("sram.build");
    result.pattern =
        sram::build_pattern(config.ops, config.tech.v_dd, config.timing);
    handles = sram::build_6t_cell(nominal_circuit, config.tech, config.sizing,
                                  "", config.vth_shifts);
    attach_sources(nominal_circuit, handles, result.pattern, config.tech.v_dd);
    options = transient_options(config, result.pattern, handles);
  }
  {
    const Scope span("spice.nominal_transient");
    result.nominal = spice::transient(nominal_circuit, options, workspace);
  }
  result.q_node = handles.q;
  result.qb_node = handles.qb;
  sram::DetectorOptions detector = config.detector;
  detector.v_dd = config.tech.v_dd;
  {
    const Scope span("sram.detect");
    result.nominal_report = sram::check_pattern(
        result.nominal.voltage(handles.q), result.pattern, detector);
  }

  // Phase 2: SAMURAI per transistor.
  std::optional<physics::SrhModel> srh;
  {
    const Scope span("physics.srh_setup");
    srh.emplace(config.tech);
  }
  ++counts.srh_setups;
  const util::Rng rng(config.seed);
  result.rtn.reserve(6);
  for (int m = 1; m <= 6; ++m) {
    sram::TransistorRtn entry;
    entry.name = "M" + std::to_string(m);
    const spice::Mosfet* mosfet = handles.mosfet(m);
    {
      const Scope span("physics.trap_profile");
      util::Rng profile_rng = rng.split(static_cast<std::uint64_t>(m) * 101);
      entry.traps = physics::sample_trap_profile(
          config.tech, sram::transistor_geometry(config.tech, config.sizing, m),
          profile_rng, config.profile);
    }
    counts.traps_drawn += entry.traps.size();
    {
      const Scope span("sram.bias_extract");
      sram::extract_bias(result.nominal, nominal_circuit, *mosfet, entry.v_gs,
                         entry.i_d);
    }
    const physics::MosDevice equivalent(config.tech, physics::MosType::kNmos,
                                        mosfet->model().geometry());
    core::RtnGeneratorOptions gen;
    gen.t0 = 0.0;
    gen.tf = result.pattern.t_end;
    gen.amplitude_scale = config.rtn_scale;
    gen.uniformisation = config.uniformisation;
    util::Rng trap_rng = rng.split(static_cast<std::uint64_t>(m) * 977 + 13);
    auto device_rtn = traced_device_rtn(*srh, equivalent, entry.traps,
                                        entry.v_gs, entry.i_d, trap_rng, gen,
                                        counts);
    entry.n_filled = std::move(device_rtn.n_filled);
    entry.i_rtn = std::move(device_rtn.i_rtn);
    entry.stats = device_rtn.stats;
    result.rtn.push_back(std::move(entry));
  }

  // Phase 3: re-simulate with every I_RTN injected opposing its channel.
  spice::Circuit rtn_circuit;
  sram::SramCellHandles rtn_handles;
  {
    const Scope span("sram.build");
    rtn_handles = sram::build_6t_cell(rtn_circuit, config.tech, config.sizing,
                                      "", config.vth_shifts);
    attach_sources(rtn_circuit, rtn_handles, result.pattern, config.tech.v_dd);
    for (int m = 1; m <= 6; ++m) {
      const auto& entry = result.rtn[static_cast<std::size_t>(m - 1)];
      if (!config.rtn_devices.empty() &&
          config.rtn_devices.count(entry.name) == 0) {
        continue;
      }
      const spice::Mosfet* mosfet = rtn_handles.mosfet(m);
      rtn_circuit.add<spice::CurrentSource>("Irtn_" + entry.name,
                                            mosfet->drain(), mosfet->source(),
                                            entry.i_rtn.scaled(-1.0));
    }
  }
  {
    const Scope span("spice.injected_transient");
    result.with_rtn = spice::transient(rtn_circuit, options, workspace);
  }
  {
    const Scope span("sram.detect");
    result.rtn_report = sram::check_pattern(
        result.with_rtn.voltage(rtn_handles.q), result.pattern, detector);
  }
  return result;
}

bool same_double(double a, double b) { return same_object(a, b); }

bool same_transient(const spice::TransientResult& a,
                    const spice::TransientResult& b) {
  if (a.node_names() != b.node_names() || !same_bits(a.times(), b.times()) ||
      !same_stats(a.stats(), b.stats())) {
    return false;
  }
  for (const auto& node : a.node_names()) {
    if (!same_bits(a.voltage_samples(node), b.voltage_samples(node))) {
      return false;
    }
  }
  return true;
}

bool same_pwl(const core::Pwl& a, const core::Pwl& b) {
  return same_bits(a.times(), b.times()) && same_bits(a.values(), b.values());
}

bool same_step(const core::StepTrace& a, const core::StepTrace& b) {
  const double ia = a.initial_value();
  const double ib = b.initial_value();
  return same_object(ia, ib) && same_bits(a.times(), b.times()) &&
         same_bits(a.values(), b.values());
}

bool same_traps(const std::vector<physics::Trap>& a,
                const std::vector<physics::Trap>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_object(a[i].y_tr, b[i].y_tr) ||
        !same_object(a[i].e_tr, b[i].e_tr) ||
        a[i].init_state != b[i].init_state) {
      return false;
    }
  }
  return true;
}

bool same_stats(const core::UniformisationStats& a,
                const core::UniformisationStats& b) {
  return a.candidates == b.candidates && a.accepted == b.accepted &&
         a.segments == b.segments && a.rng_refills == b.rng_refills &&
         same_object(a.envelope_integral, b.envelope_integral) &&
         same_object(a.fixed_bound_integral, b.fixed_bound_integral);
}

bool same_stats(const spice::SolverStats& a, const spice::SolverStats& b) {
  return same_object(a, b);
}

bool same_device_rtn(const core::DeviceRtnResult& a,
                     const core::DeviceRtnResult& b) {
  if (a.trajectories.size() != b.trajectories.size()) return false;
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    const auto& ta = a.trajectories[i];
    const auto& tb = b.trajectories[i];
    if (ta.initial_state() != tb.initial_state() ||
        !same_bits(ta.switch_times(), tb.switch_times())) {
      return false;
    }
  }
  return same_step(a.n_filled, b.n_filled) && same_pwl(a.i_rtn, b.i_rtn) &&
         same_stats(a.stats, b.stats);
}

bool same_report(const sram::PatternReport& a, const sram::PatternReport& b) {
  if (a.any_error != b.any_error || a.any_slow != b.any_slow ||
      a.ops.size() != b.ops.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.ops.size(); ++k) {
    const auto& x = a.ops[k];
    const auto& y = b.ops[k];
    if (x.op != y.op || x.expected_bit != y.expected_bit ||
        x.outcome != y.outcome || !same_object(x.q_at_slot_end, y.q_at_slot_end) ||
        x.settle_after_wl.has_value() != y.settle_after_wl.has_value() ||
        (x.settle_after_wl &&
         !same_object(*x.settle_after_wl, *y.settle_after_wl))) {
      return false;
    }
  }
  return true;
}

bool same_methodology(const sram::MethodologyResult& a,
                      const sram::MethodologyResult& b) {
  if (!same_transient(a.nominal, b.nominal) ||
      !same_transient(a.with_rtn, b.with_rtn) ||
      !same_report(a.nominal_report, b.nominal_report) ||
      !same_report(a.rtn_report, b.rtn_report) || a.q_node != b.q_node ||
      a.rtn.size() != b.rtn.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.rtn.size(); ++m) {
    const auto& x = a.rtn[m];
    const auto& y = b.rtn[m];
    if (x.name != y.name || !same_traps(x.traps, y.traps) ||
        !same_pwl(x.v_gs, y.v_gs) || !same_pwl(x.i_d, y.i_d) ||
        !same_step(x.n_filled, y.n_filled) || !same_pwl(x.i_rtn, y.i_rtn) ||
        !same_stats(x.stats, y.stats)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
