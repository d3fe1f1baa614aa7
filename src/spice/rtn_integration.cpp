#include "spice/rtn_integration.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "physics/srh_model.hpp"
#include "physics/trap_profile.hpp"
#include "spice/parser.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace samurai::spice {

ChannelBias channel_bias(const Mosfet& mosfet, double d, double g,
                         double s) {
  const bool nmos = mosfet.model().type() == physics::MosType::kNmos;
  return {nmos ? g - std::min(d, s) : std::max(d, s) - g,
          mosfet.model().evaluate(g - s, d - s).i_d};
}

RequestTraps sample_request_traps(const RtnRequest& request,
                                  const Mosfet& mosfet,
                                  const physics::TrapProfileOptions& profile) {
  const util::Rng rng(request.seed);
  util::Rng profile_rng = rng.split(request.profile_stream);
  return {physics::sample_trap_profile(mosfet.model().tech(),
                                       mosfet.model().geometry(), profile_rng,
                                       profile),
          rng.split(request.trap_stream)};
}

std::vector<const Mosfet*> find_mosfets(
    const Circuit& circuit, const std::vector<RtnRequest>& requests) {
  std::unordered_map<std::string_view, const Device*> by_name;
  by_name.reserve(circuit.devices().size());
  for (const auto& device : circuit.devices()) {
    by_name.emplace(device->name(), device.get());
  }
  std::vector<const Mosfet*> mosfets;
  for (const auto& request : requests) {
    const auto it = by_name.find(request.device);
    const auto* mosfet =
        it == by_name.end() ? nullptr : dynamic_cast<const Mosfet*>(it->second);
    if (mosfet == nullptr) {
      throw std::invalid_argument("RTN requested for unknown MOSFET '" +
                                  request.device + "'");
    }
    mosfets.push_back(mosfet);
  }
  return mosfets;
}

void extract_device_bias(const TransientResult& result, const Circuit& circuit,
                         const Mosfet& mosfet, core::Pwl& v_gs,
                         core::Pwl& i_d) {
  auto samples_of = [&](int node) -> const std::vector<double>* {
    if (node < 0) return nullptr;
    return &result.voltage_samples(circuit.node_name(node));
  };
  const auto* vd = samples_of(mosfet.drain());
  const auto* vg = samples_of(mosfet.gate());
  const auto* vs = samples_of(mosfet.source());
  const auto& times = result.times();

  std::vector<double> vgs_values(times.size());
  std::vector<double> id_values(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const ChannelBias bias = channel_bias(mosfet, vd ? (*vd)[i] : 0.0,
                                          vg ? (*vg)[i] : 0.0,
                                          vs ? (*vs)[i] : 0.0);
    vgs_values[i] = bias.v_gs;
    id_values[i] = bias.i_d;
  }
  v_gs = core::Pwl(times, std::move(vgs_values));
  i_d = core::Pwl(times, std::move(id_values));
}

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The per-device step: trap profile, bias, Algorithm 1 and Eq. 3.
DeviceRtnTrace generate_trace(const RtnRequest& request, const Mosfet& mosfet,
                              const TransientResult& nominal,
                              const Circuit& circuit,
                              const TransientOptions& options,
                              const RtnPipelineOptions& pipeline) {
  DeviceRtnTrace trace;
  trace.device = request.device;

  const auto& tech = mosfet.model().tech();
  const physics::SrhModel srh(tech);
  auto [traps, chain_rng] =
      sample_request_traps(request, mosfet, pipeline.profile);
  trace.traps = std::move(traps);

  core::Pwl v_gs, i_d;
  extract_device_bias(nominal, circuit, mosfet, v_gs, i_d);
  // Trap statistics and Eq. 3 use an NMOS-equivalent device so the
  // extracted (positive-when-on) bias feeds both consistently.
  const physics::MosDevice equivalent(tech, physics::MosType::kNmos,
                                      mosfet.model().geometry());
  core::RtnGeneratorOptions gen = pipeline.generator;
  gen.t0 = options.t_start;
  gen.tf = options.t_stop;
  gen.amplitude_scale = request.scale;
  auto device_rtn = core::generate_device_rtn(srh, equivalent, trace.traps,
                                              v_gs, i_d, chain_rng, gen);
  trace.n_filled = std::move(device_rtn.n_filled);
  trace.i_rtn = std::move(device_rtn.i_rtn);
  trace.stats = device_rtn.stats;
  if (pipeline.keep_bias) {
    trace.v_gs = std::move(v_gs);
    trace.i_d = std::move(i_d);
  }
  return trace;
}

}  // namespace

RtnTransientResult run_rtn_transient(
    const std::function<std::unique_ptr<Circuit>()>& build,
    const TransientOptions& options, const std::vector<RtnRequest>& requests,
    const RtnPipelineOptions& pipeline) {
  std::unordered_set<std::string_view> seen;
  for (const auto& request : requests) {
    if (!seen.insert(request.device).second) {
      throw std::invalid_argument("RTN requested twice for device '" +
                                  request.device + "'");
    }
  }
  RtnTransientResult result;

  // One workspace for both passes: the injected circuit adds only current
  // sources (no Jacobian stamps), so its sparse pattern matches the
  // nominal one and the symbolic LU analysis from pass 1 is reused — and
  // on either engine the pass-2 attach reallocates nothing.
  NewtonWorkspace workspace;

  // Pass 1: nominal run.
  double t0 = now_seconds();
  auto nominal_circuit = build();
  const auto nominal_fets = find_mosfets(*nominal_circuit, requests);
  result.nominal = transient(*nominal_circuit, options, workspace);
  result.nominal_seconds = now_seconds() - t0;

  // SAMURAI per requested device. Each device draws only from its own
  // streams and writes only its own slot, and the nominal run is
  // read-only, so the devices fan out over the pool, one thread per CPU
  // the process may use (serial inside a pool job, and on one CPU without
  // starting the pool); bit-identical for any thread count.
  t0 = now_seconds();
  result.traces.resize(requests.size());
  util::parallel_for_indexed(
      requests.size(),
      [&](std::size_t k) {
        result.traces[k] =
            generate_trace(requests[k], *nominal_fets[k], result.nominal,
                           *nominal_circuit, options, pipeline);
      },
      util::fan_out_threads());
  result.generation_seconds = now_seconds() - t0;

  // Pass 2: injected run on a fresh circuit.
  t0 = now_seconds();
  auto rtn_circuit = build();
  const auto rtn_fets = find_mosfets(*rtn_circuit, requests);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (!requests[k].inject) continue;
    const Mosfet* mosfet = rtn_fets[k];
    // Inject opposing the nominal channel current (paper Fig. 4 right):
    // the trace is signed like I_d, so the negated source always bucks it.
    // The source is grid-sampled, so the injected pass steps like the
    // nominal one (DESIGN.md §19).
    const auto& trace = result.traces[k];
    rtn_circuit->add<CurrentSource>("Irtn_" + trace.device, mosfet->drain(),
                                    mosfet->source(), trace.i_rtn.scaled(-1.0));
  }
  result.with_rtn = transient(*rtn_circuit, options, workspace);
  result.injected_seconds = now_seconds() - t0;
  return result;
}

RtnTransientResult run_netlist_rtn(const std::string& netlist_text) {
  // Parse once for the analysis spec and request list.
  auto probe = parse_netlist(netlist_text);
  if (!probe.has_tran) {
    throw std::invalid_argument("run_netlist_rtn: netlist needs .tran");
  }
  if (probe.rtn_requests.empty()) {
    throw std::invalid_argument("run_netlist_rtn: netlist has no .rtn cards");
  }
  return run_rtn_transient(
      [&netlist_text] { return parse_netlist(netlist_text).circuit; },
      probe.tran, probe.rtn_requests);
}

}  // namespace samurai::spice
