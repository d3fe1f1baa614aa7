#include "sram/coupled.hpp"

#include <memory>

#include "core/rtn_generator.hpp"
#include "physics/srh_model.hpp"
#include "spice/rtn_integration.hpp"

namespace samurai::sram {

namespace {

/// Live state of one trap during the coupled run.
struct LiveTrap {
  physics::Trap trap;
  physics::TrapState state = physics::TrapState::kEmpty;
  util::Rng rng{0};
  std::vector<double> switch_times;
};

/// Live state of one requested device: its traps, the models its step
/// evaluates and the injection value read by its callback source.
struct LiveDevice {
  const spice::Mosfet* mosfet = nullptr;
  double scale = 1.0;  ///< the request's amplitude scale
  physics::SrhModel srh;
  physics::MosDevice equivalent;  ///< NMOS-equivalent device of Eq. 3
  std::vector<LiveTrap> traps;
  double injection = 0.0;  ///< amps, already sign-flipped to oppose I_d
};

using LiveDevices = std::vector<LiveDevice>;

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

/// The coupled engine. Draws each request's traps and chain streams as
/// run_rtn_transient does, adds one Irtn_<device> callback source per
/// injected request (in request order), runs `circuit` advancing every
/// device's chains after each accepted step at its instantaneous bias, and
/// returns the live devices. Each step's injection opposes the device's
/// signed channel current. The callback sources share the devices, which
/// stay alive as long as `circuit` does.
std::shared_ptr<LiveDevices> run_live(
    spice::Circuit& circuit, spice::TransientOptions options,
    const std::vector<spice::RtnRequest>& requests,
    const physics::TrapProfileOptions& profile,
    spice::TransientResult& transient) {
  const auto mosfets = spice::find_mosfets(circuit, requests);
  auto live = std::make_shared<LiveDevices>();
  live->reserve(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    auto [traps, chain_rng] =
        spice::sample_request_traps(requests[k], *mosfets[k], profile);
    std::vector<LiveTrap> live_traps;
    live_traps.reserve(traps.size());
    for (std::size_t i = 0; i < traps.size(); ++i) {
      live_traps.push_back(
          {traps[i], traps[i].init_state, chain_rng.split(i + 1), {}});
    }
    const auto& model = mosfets[k]->model();
    live->push_back({mosfets[k], requests[k].scale,
                     physics::SrhModel(model.tech()),
                     physics::MosDevice(model.tech(), physics::MosType::kNmos,
                                        model.geometry()),
                     std::move(live_traps)});
  }

  for (std::size_t k = 0; k < live->size(); ++k) {
    if (!requests[k].inject) continue;
    circuit.add<spice::CallbackCurrentSource>(
        "Irtn_" + requests[k].device, mosfets[k]->drain(),
        mosfets[k]->source(),
        [live, k](double) { return (*live)[k].injection; });
  }

  double prev_t = options.t_start;
  options.on_step = [&prev_t, live](double t, std::span<const double> x) {
    for (auto& device : *live) {
      const auto* fet = device.mosfet;
      const spice::ChannelBias bias = spice::channel_bias(
          *fet, node_voltage(x, fet->drain()), node_voltage(x, fet->gate()),
          node_voltage(x, fet->source()));
      std::size_t filled = 0;
      for (auto& live_trap : device.traps) {
        const auto p = device.srh.propensities(live_trap.trap, bias.v_gs);
        advance_trap(live_trap, p, prev_t, t);
        if (live_trap.state == physics::TrapState::kFilled) ++filled;
      }
      const double amp =
          core::rtn_amplitude(device.equivalent, bias.v_gs, bias.i_d);
      // Oppose the signed channel current.
      const double sign = bias.i_d >= 0.0 ? 1.0 : -1.0;
      device.injection = -device.scale * sign * amp *
                         static_cast<double>(filled);
    }
    prev_t = t;
  };
  transient = spice::transient(circuit, options);
  return live;
}

}  // namespace

CoupledResult run_coupled(const MethodologyConfig& config) {
  CoupledResult result;
  result.pattern = build_pattern(config.ops, config.tech.v_dd, config.timing);

  spice::Circuit circuit;
  const SramCellHandles handles =
      build_6t_cell(circuit, config.tech, config.sizing, "", config.vth_shifts);
  attach_sources(circuit, handles, result.pattern, config.tech.v_dd, "");
  result.q_node = handles.q;
  result.qb_node = handles.qb;

  auto options = make_transient_options(config, result.pattern, "");
  if (config.transient.dt_max <= 0.0) {
    options.dt_max = config.timing.period / 100.0;
  }
  const auto requests =
      cell_rtn_requests(config.seed, config.rtn_scale, config.rtn_devices);
  const auto live =
      run_live(circuit, options, requests, config.profile, result.transient);

  DetectorOptions detector = config.detector;
  detector.v_dd = config.tech.v_dd;
  result.report = check_pattern(result.transient.voltage(handles.q),
                                result.pattern, detector);

  for (std::size_t k = 0; k < live->size(); ++k) {
    const LiveDevice& device = (*live)[k];
    result.transistor_names.push_back(requests[k].device);
    std::vector<core::TrapTrajectory> trajectories;
    std::vector<physics::Trap> traps;
    trajectories.reserve(device.traps.size());
    for (const auto& live_trap : device.traps) {
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

  // Cell i's six requests run on streams offset by i·6007, so adding
  // cells never perturbs existing streams.
  std::vector<spice::RtnRequest> requests;
  requests.reserve(6 * config.num_cells);
  for (std::size_t cell = 0; cell < config.num_cells; ++cell) {
    for (auto& request : cell_rtn_requests(seed, rtn_scale, {},
                                           column_cell_prefix(cell),
                                           cell * 6007)) {
      requests.push_back(std::move(request));
    }
  }
  const auto live = run_live(circuit, column_transient_options(config),
                             requests, profile, result.transient);

  result.report = check_column(result.transient, config, build);
  for (const auto& device : *live) {
    result.num_traps += device.traps.size();
    for (const auto& live_trap : device.traps) {
      result.switch_events += live_trap.switch_times.size();
    }
  }
  return result;
}

}  // namespace samurai::sram
