#include "sram/methodology.hpp"

#include <memory>
#include <stdexcept>

namespace samurai::sram {

void attach_sources(spice::Circuit& circuit, const SramCellHandles& handles,
                    const PatternWaveforms& pattern, double v_dd,
                    const std::string& prefix) {
  circuit.add<spice::VoltageSource>(circuit, prefix + "Vdd",
                                    circuit.find_node(handles.vdd),
                                    spice::kGround, core::Pwl::constant(v_dd));
  circuit.add<spice::VoltageSource>(circuit, prefix + "Vwl",
                                    circuit.find_node(handles.wl),
                                    spice::kGround, pattern.wl);
  circuit.add<spice::VoltageSource>(circuit, prefix + "Vbl",
                                    circuit.find_node(handles.bl),
                                    spice::kGround, pattern.bl);
  circuit.add<spice::VoltageSource>(circuit, prefix + "Vblb",
                                    circuit.find_node(handles.blb),
                                    spice::kGround, pattern.blb);
}

spice::TransientOptions make_transient_options(const MethodologyConfig& config,
                                               const PatternWaveforms& pattern,
                                               const std::string& prefix) {
  spice::TransientOptions options = config.transient;
  options.t_start = 0.0;
  options.t_stop = pattern.t_end;
  if (options.dt_max <= 0.0) options.dt_max = config.timing.period / 40.0;
  options.dc.nodeset[prefix + "q"] = 0.0;
  options.dc.nodeset[prefix + "qb"] = config.tech.v_dd;
  options.dc.nodeset[prefix + "vdd"] = config.tech.v_dd;
  options.dc.nodeset[prefix + "bl"] = config.tech.v_dd;
  options.dc.nodeset[prefix + "blb"] = config.tech.v_dd;
  return options;
}

std::vector<spice::RtnRequest> cell_rtn_requests(
    std::uint64_t seed, double scale, const std::set<std::string>& injected,
    const std::string& prefix, std::uint64_t stream_offset) {
  std::vector<spice::RtnRequest> requests(6);
  for (int m = 1; m <= 6; ++m) {
    auto& request = requests[static_cast<std::size_t>(m - 1)];
    const std::string name = "M" + std::to_string(m);
    request.device = prefix + name;
    request.scale = scale;
    request.seed = seed;
    request.profile_stream =
        stream_offset + static_cast<std::uint64_t>(m) * 101;
    request.trap_stream =
        stream_offset + static_cast<std::uint64_t>(m) * 977 + 13;
    request.inject = injected.empty() || injected.count(name) != 0;
  }
  return requests;
}

void extract_bias(const spice::TransientResult& result,
                  const spice::Circuit& circuit, const spice::Mosfet& mosfet,
                  core::Pwl& v_gs, core::Pwl& i_d) {
  spice::extract_device_bias(result, circuit, mosfet, v_gs, i_d);
}

NominalRun run_nominal(const MethodologyConfig& config,
                       const std::string& prefix) {
  spice::NewtonWorkspace workspace;
  return run_nominal(config, workspace, prefix);
}

NominalRun run_nominal(const MethodologyConfig& config,
                       spice::NewtonWorkspace& workspace,
                       const std::string& prefix) {
  if (config.ops.empty()) {
    throw std::invalid_argument("run_methodology: empty op pattern");
  }
  NominalRun run;
  run.pattern = build_pattern(config.ops, config.tech.v_dd, config.timing);
  spice::Circuit circuit;
  run.handles = build_6t_cell(circuit, config.tech, config.sizing, prefix,
                              config.vth_shifts);
  attach_sources(circuit, run.handles, run.pattern, config.tech.v_dd, prefix);
  const auto options = make_transient_options(config, run.pattern, prefix);
  run.result = spice::transient(circuit, options, workspace);
  return run;
}

NominalBatchRun run_nominal_batch(std::span<const MethodologyConfig> configs,
                                  spice::BatchWorkspace& workspace) {
  if (configs.empty()) {
    throw std::invalid_argument("run_nominal_batch: no configs");
  }
  if (configs[0].ops.empty()) {
    throw std::invalid_argument("run_nominal_batch: empty op pattern");
  }
  NominalBatchRun run;
  const MethodologyConfig& head = configs[0];
  run.pattern = build_pattern(head.ops, head.tech.v_dd, head.timing);

  // One circuit per lane. The lanes share pattern/tech/sizing, so every
  // cell gets identical wiring and waveforms; only the vth_shifts (and so
  // the MOSFET models) differ — exactly what the batch engine vectorises.
  std::vector<spice::Circuit> circuits(configs.size());
  std::vector<spice::Circuit*> lanes(configs.size());
  SramCellHandles handles;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    handles = build_6t_cell(circuits[k], configs[k].tech, configs[k].sizing,
                            "", configs[k].vth_shifts);
    attach_sources(circuits[k], handles, run.pattern, configs[k].tech.v_dd,
                   "");
    lanes[k] = &circuits[k];
  }
  run.q_node = handles.q;
  run.qb_node = handles.qb;

  auto options = make_transient_options(head, run.pattern, "");
  options.fixed_grid = true;
  run.results = spice::transient_batch(lanes, options, workspace);
  return run;
}

MethodologyResult run_methodology(const MethodologyConfig& config) {
  MethodologyResult result;
  result.pattern = build_pattern(config.ops, config.tech.v_dd, config.timing);
  SramCellHandles handles;
  const auto build = [&] {
    auto circuit = std::make_unique<spice::Circuit>();
    handles = build_6t_cell(*circuit, config.tech, config.sizing, "",
                            config.vth_shifts);
    attach_sources(*circuit, handles, result.pattern, config.tech.v_dd, "");
    return circuit;
  };

  spice::RtnPipelineOptions pipeline;
  pipeline.generator.uniformisation = config.uniformisation;
  pipeline.profile = config.profile;
  pipeline.keep_bias = true;

  auto run = spice::run_rtn_transient(
      build, make_transient_options(config, result.pattern, ""),
      cell_rtn_requests(config.seed, config.rtn_scale, config.rtn_devices),
      pipeline);
  result.nominal = std::move(run.nominal);
  result.with_rtn = std::move(run.with_rtn);
  result.rtn.reserve(run.traces.size());
  for (auto& trace : run.traces) {
    result.rtn.push_back({std::move(trace.device), std::move(trace.traps),
                          std::move(trace.v_gs), std::move(trace.i_d),
                          std::move(trace.n_filled), std::move(trace.i_rtn),
                          trace.stats});
  }
  result.q_node = handles.q;
  result.qb_node = handles.qb;

  DetectorOptions detector = config.detector;
  detector.v_dd = config.tech.v_dd;
  result.nominal_report =
      check_pattern(result.nominal.voltage(handles.q), result.pattern, detector);
  result.rtn_report =
      check_pattern(result.with_rtn.voltage(handles.q), result.pattern, detector);
  return result;
}

}  // namespace samurai::sram
