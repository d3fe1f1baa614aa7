#include "sram/coupled.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/rtn_generator.hpp"
#include "physics/srh_model.hpp"
#include "util/rng.hpp"

namespace samurai::sram {

namespace {

/// Live state of one trap during the coupled run.
struct LiveTrap {
  physics::Trap trap;
  physics::TrapState state = physics::TrapState::kEmpty;
  util::Rng rng{0};
  std::vector<double> switch_times;
};

/// Live state of one transistor: its traps, terminal node ids and the
/// current injection value read by the callback source.
struct LiveTransistor {
  std::string name;
  const spice::Mosfet* mosfet = nullptr;
  std::vector<LiveTrap> traps;
  double injection = 0.0;  ///< amps, already sign-flipped to oppose I_d
};

double node_voltage(std::span<const double> x, int id) {
  return id < 0 ? 0.0 : x[static_cast<std::size_t>(id)];
}

/// Advance one trap over [t0, t1] under constant propensities (the bias
/// held over the step): exact two-state simulation via dwell sampling.
void advance_trap(LiveTrap& live, const physics::Propensities& p, double t0,
                  double t1) {
  double t = t0;
  for (;;) {
    const double rate =
        live.state == physics::TrapState::kEmpty ? p.lambda_c : p.lambda_e;
    if (!(rate > 0.0)) return;
    t += live.rng.exponential(rate);
    if (t > t1) return;
    live.switch_times.push_back(t);
    live.state = toggled(live.state);
  }
}

}  // namespace

CoupledResult run_coupled(const MethodologyConfig& config) {
  CoupledResult result;
  result.pattern = build_pattern(config.ops, config.tech.v_dd, config.timing);

  spice::Circuit circuit;
  SramCellHandles handles =
      build_6t_cell(circuit, config.tech, config.sizing, "", config.vth_shifts);
  circuit.add<spice::VoltageSource>(circuit, "Vdd",
                                    circuit.find_node(handles.vdd),
                                    spice::kGround,
                                    core::Pwl::constant(config.tech.v_dd));
  circuit.add<spice::VoltageSource>(circuit, "Vwl", circuit.find_node(handles.wl),
                                    spice::kGround, result.pattern.wl);
  circuit.add<spice::VoltageSource>(circuit, "Vbl", circuit.find_node(handles.bl),
                                    spice::kGround, result.pattern.bl);
  circuit.add<spice::VoltageSource>(circuit, "Vblb",
                                    circuit.find_node(handles.blb),
                                    spice::kGround, result.pattern.blb);
  result.q_node = handles.q;
  result.qb_node = handles.qb;

  const physics::SrhModel srh(config.tech);
  util::Rng rng(config.seed);

  // Live transistors share ownership with the callback sources, which may
  // be invoked during the transient after this function's locals would
  // normally be gone — keep them on the heap for clarity.
  auto live = std::make_shared<std::vector<LiveTransistor>>();
  live->reserve(6);
  for (int m = 1; m <= 6; ++m) {
    LiveTransistor transistor;
    transistor.name = "M" + std::to_string(m);
    transistor.mosfet = handles.mosfet(m);
    util::Rng profile_rng = rng.split(static_cast<std::uint64_t>(m) * 101);
    const auto traps = physics::sample_trap_profile(
        config.tech, transistor_geometry(config.tech, config.sizing, m),
        profile_rng, config.profile);
    transistor.traps.reserve(traps.size());
    for (std::size_t i = 0; i < traps.size(); ++i) {
      LiveTrap live_trap;
      live_trap.trap = traps[i];
      live_trap.state = traps[i].init_state;
      live_trap.rng =
          rng.split(static_cast<std::uint64_t>(m) * 977 + 13).split(i + 1);
      transistor.traps.push_back(std::move(live_trap));
    }
    live->push_back(std::move(transistor));
  }

  // Callback sources read the per-transistor injection value.
  for (std::size_t i = 0; i < live->size(); ++i) {
    auto& transistor = (*live)[i];
    circuit.add<spice::CallbackCurrentSource>(
        "Irtn_" + transistor.name, transistor.mosfet->drain(),
        transistor.mosfet->source(),
        [live, i](double) { return (*live)[i].injection; });
  }

  spice::TransientOptions options = config.transient;
  options.t_start = 0.0;
  options.t_stop = result.pattern.t_end;
  if (options.dt_max <= 0.0) options.dt_max = config.timing.period / 100.0;
  options.dc.nodeset[handles.q] = 0.0;
  options.dc.nodeset[handles.qb] = config.tech.v_dd;
  options.dc.nodeset[handles.vdd] = config.tech.v_dd;
  options.dc.nodeset[handles.bl] = config.tech.v_dd;
  options.dc.nodeset[handles.blb] = config.tech.v_dd;

  double prev_t = 0.0;
  options.on_step = [&, live](double t, std::span<const double> x) {
    for (auto& transistor : *live) {
      const auto* fet = transistor.mosfet;
      const double vd = node_voltage(x, fet->drain());
      const double vg = node_voltage(x, fet->gate());
      const double vs = node_voltage(x, fet->source());
      const bool nmos = fet->model().type() == physics::MosType::kNmos;
      const double v_eff = nmos ? vg - std::min(vd, vs) : std::max(vd, vs) - vg;
      std::size_t filled = 0;
      for (auto& live_trap : transistor.traps) {
        const auto p = srh.propensities(live_trap.trap, v_eff);
        advance_trap(live_trap, p, prev_t, t);
        if (live_trap.state == physics::TrapState::kFilled) ++filled;
      }
      const double i_d = fet->model().evaluate(vg - vs, vd - vs).i_d;
      const physics::MosDevice equivalent(config.tech, physics::MosType::kNmos,
                                          fet->model().geometry());
      const double amp = core::rtn_amplitude(equivalent, v_eff, i_d);
      // Oppose the nominal current direction.
      const double sign = i_d >= 0.0 ? 1.0 : -1.0;
      transistor.injection = -config.rtn_scale * sign * amp *
                             static_cast<double>(filled);
    }
    prev_t = t;
  };

  result.transient = spice::transient(circuit, options);

  DetectorOptions detector = config.detector;
  detector.v_dd = config.tech.v_dd;
  result.report = check_pattern(result.transient.voltage(handles.q),
                                result.pattern, detector);

  for (const auto& transistor : *live) {
    result.transistor_names.push_back(transistor.name);
    std::vector<core::TrapTrajectory> trajectories;
    std::vector<physics::Trap> traps;
    trajectories.reserve(transistor.traps.size());
    for (const auto& live_trap : transistor.traps) {
      trajectories.emplace_back(0.0, result.pattern.t_end,
                                live_trap.trap.init_state,
                                live_trap.switch_times);
      traps.push_back(live_trap.trap);
    }
    result.n_filled.push_back(core::aggregate_filled_count(trajectories));
    result.traps.push_back(std::move(traps));
  }
  return result;
}

CoupledColumnResult run_coupled_column(
    const ColumnConfig& config, std::uint64_t seed, double rtn_scale,
    const physics::TrapProfileOptions& profile) {
  CoupledColumnResult result;

  spice::Circuit circuit;
  const ColumnBuild build = build_column(circuit, config);

  const physics::SrhModel srh(config.tech);
  util::Rng rng(seed);

  // One live transistor per cell device, 6 N total, streams split per
  // (cell, transistor) so adding cells never perturbs existing streams.
  auto live = std::make_shared<std::vector<LiveTransistor>>();
  live->reserve(6 * config.num_cells);
  for (std::size_t cell = 0; cell < config.num_cells; ++cell) {
    for (int m = 1; m <= 6; ++m) {
      LiveTransistor transistor;
      transistor.name =
          column_cell_prefix(cell) + "M" + std::to_string(m);
      transistor.mosfet = build.cells[cell].mosfet(m);
      util::Rng profile_rng =
          rng.split(cell * 6007 + static_cast<std::uint64_t>(m) * 101);
      const auto traps = physics::sample_trap_profile(
          config.tech, transistor_geometry(config.tech, config.sizing, m),
          profile_rng, profile);
      transistor.traps.reserve(traps.size());
      for (std::size_t i = 0; i < traps.size(); ++i) {
        LiveTrap live_trap;
        live_trap.trap = traps[i];
        live_trap.state = traps[i].init_state;
        live_trap.rng = rng.split(cell * 6007 +
                                  static_cast<std::uint64_t>(m) * 977 + 13)
                            .split(i + 1);
        transistor.traps.push_back(std::move(live_trap));
      }
      result.num_traps += transistor.traps.size();
      live->push_back(std::move(transistor));
    }
  }

  for (std::size_t i = 0; i < live->size(); ++i) {
    auto& transistor = (*live)[i];
    circuit.add<spice::CallbackCurrentSource>(
        "Irtn_" + transistor.name, transistor.mosfet->drain(),
        transistor.mosfet->source(),
        [live, i](double) { return (*live)[i].injection; });
  }

  spice::TransientOptions options = column_transient_options(config);

  double prev_t = 0.0;
  options.on_step = [&, live](double t, std::span<const double> x) {
    for (auto& transistor : *live) {
      const auto* fet = transistor.mosfet;
      const double vd = node_voltage(x, fet->drain());
      const double vg = node_voltage(x, fet->gate());
      const double vs = node_voltage(x, fet->source());
      const bool nmos = fet->model().type() == physics::MosType::kNmos;
      const double v_eff = nmos ? vg - std::min(vd, vs) : std::max(vd, vs) - vg;
      std::size_t filled = 0;
      for (auto& live_trap : transistor.traps) {
        const auto p = srh.propensities(live_trap.trap, v_eff);
        advance_trap(live_trap, p, prev_t, t);
        if (live_trap.state == physics::TrapState::kFilled) ++filled;
      }
      const double i_d = fet->model().evaluate(vg - vs, vd - vs).i_d;
      const physics::MosDevice equivalent(config.tech, physics::MosType::kNmos,
                                          fet->model().geometry());
      const double amp = core::rtn_amplitude(equivalent, v_eff, i_d);
      const double sign = i_d >= 0.0 ? 1.0 : -1.0;
      transistor.injection = -rtn_scale * sign * amp *
                             static_cast<double>(filled);
    }
    prev_t = t;
  };

  result.transient = spice::transient(circuit, options);
  result.report = check_column(result.transient, config, build);
  for (const auto& transistor : *live) {
    for (const auto& live_trap : transistor.traps) {
      result.switch_events += live_trap.switch_times.size();
    }
  }
  return result;
}

}  // namespace samurai::sram
