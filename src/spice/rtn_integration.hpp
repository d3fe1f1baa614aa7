// The SAMURAI <-> SPICE pipeline of paper Fig. 8 (left), shared by every
// caller that injects generated RTN into a circuit: the SRAM methodology,
// the column and R×C array runs, the ring oscillator and any parsed
// netlist carrying `.rtn` cards:
//
//   .rtn M1 scale=30 seed=7
//
// Flow: run the nominal transient, extract each requested device's
// time-varying bias, sample a trap profile, run Algorithm 1, and re-run
// the transient with the I_RTN traces injected opposing each channel
// current. What differs between callers is plain data — the requests and
// RtnPipelineOptions (DESIGN.md §17). The coupled engine (sram/coupled.cpp)
// runs the same requests through the per-request pieces declared here:
// device lookup, trap sampling and channel bias.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rtn_generator.hpp"
#include "core/waveform.hpp"
#include "physics/trap.hpp"
#include "physics/trap_profile.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "util/rng.hpp"

namespace samurai::spice {

/// One RTN request: a device and its random streams. The trap profile
/// draws from Rng(seed).split(profile_stream) and Algorithm 1 from
/// Rng(seed).split(trap_stream); the defaults are the `.rtn` card's
/// streams.
struct RtnRequest {
  std::string device;      ///< Mosfet name in the circuit
  double scale = 1.0;      ///< amplitude scaling (paper's x30)
  std::uint64_t seed = 1;  ///< trap population + trajectory seed
  std::uint64_t profile_stream = 101;
  std::uint64_t trap_stream = 977;
  /// false: generate the trace but leave it out of the injected run.
  bool inject = true;
};

/// The settings one caller applies to all of its requests.
struct RtnPipelineOptions {
  /// Generator template; t0/tf are taken from the transient window and
  /// amplitude_scale from each request.
  core::RtnGeneratorOptions generator;
  physics::TrapProfileOptions profile;
  /// Keep each device's extracted V_gs(t)/I_d(t) in its trace.
  bool keep_bias = false;
};

/// A MOSFET's bias as its traps see it, at drain, gate and source
/// voltages d, g, s.
struct ChannelBias {
  /// NMOS-equivalent gate bias referenced to the conducting source side:
  /// g − min(d, s) for an NMOS, max(d, s) − g for a PMOS, positive when
  /// the channel conducts.
  double v_gs = 0.0;
  double i_d = 0.0;  ///< signed channel current from the device's model
};
ChannelBias channel_bias(const Mosfet& mosfet, double d, double g, double s);

/// A request's traps on `mosfet` and the root of their chain streams: the
/// profile draws from Rng(seed).split(profile_stream), and trap i's chain
/// from chain_rng.split(i + 1), chain_rng = Rng(seed).split(trap_stream).
struct RequestTraps {
  std::vector<physics::Trap> traps;
  util::Rng chain_rng;
};
RequestTraps sample_request_traps(const RtnRequest& request,
                                  const Mosfet& mosfet,
                                  const physics::TrapProfileOptions& profile);

/// Each request's MOSFET in `circuit`, resolved through one name index
/// (Circuit::find is a linear scan). The first device of a name wins, as
/// in Circuit::find; a name that is no MOSFET throws
/// std::invalid_argument.
std::vector<const Mosfet*> find_mosfets(
    const Circuit& circuit, const std::vector<RtnRequest>& requests);

/// Extract a MOSFET's channel_bias V_gs(t) and I_d(t) from a transient
/// solution: the bias step of run_rtn_transient.
void extract_device_bias(const TransientResult& result, const Circuit& circuit,
                         const Mosfet& mosfet, core::Pwl& v_gs, core::Pwl& i_d);

struct DeviceRtnTrace {
  std::string device;
  std::vector<physics::Trap> traps;
  core::Pwl v_gs, i_d;  ///< extracted bias; empty unless keep_bias
  core::StepTrace n_filled;
  core::Pwl i_rtn;
  core::UniformisationStats stats;
};

struct RtnTransientResult {
  TransientResult nominal;
  TransientResult with_rtn;
  std::vector<DeviceRtnTrace> traces;  ///< one per request, in order
  /// Wall-clock phase split: nominal build + transient, per-device
  /// generation, injected build + transient.
  double nominal_seconds = 0.0;
  double generation_seconds = 0.0;
  double injected_seconds = 0.0;
};

/// Run the two-pass RTN methodology on a circuit factory: `build` must
/// produce identical circuits on each call (it is invoked twice — once
/// for the nominal run, once for the injected run). Both passes share one
/// Newton workspace. The per-device generation fans out over
/// min(pool workers + 1, available CPUs) threads, serially inside a pool
/// job; every output is bit-identical for any thread count. Unknown or
/// repeated device names in `requests` throw std::invalid_argument.
RtnTransientResult run_rtn_transient(
    const std::function<std::unique_ptr<Circuit>()>& build,
    const TransientOptions& options, const std::vector<RtnRequest>& requests,
    const RtnPipelineOptions& pipeline = {});

/// Convenience: parse a netlist containing `.rtn` cards and run the full
/// flow (the netlist must contain `.tran`).
RtnTransientResult run_netlist_rtn(const std::string& netlist_text);

}  // namespace samurai::spice
