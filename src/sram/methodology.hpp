// The SAMURAI+SPICE methodology of paper Fig. 8 (left):
//
//   1. transient-simulate the cell on a test pattern *without* RTN,
//      extracting each transistor's time-varying bias V_gs(t), I_d(t);
//   2. run SAMURAI (Algorithm 1) per transistor on a sampled trap profile
//      to produce trap occupancies and I_RTN(t) traces (Eq. 3), optionally
//      amplitude-scaled (the paper uses ×30 in Fig. 8(e));
//   3. re-simulate the cell with each I_RTN injected as a drain-source
//      current source opposing the nominal channel current (Fig. 4 right);
//   4. detect write errors / slow-down on both runs.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/rtn_generator.hpp"
#include "core/waveform.hpp"
#include "physics/technology.hpp"
#include "physics/trap.hpp"
#include "physics/trap_profile.hpp"
#include "spice/analysis.hpp"
#include "spice/batch.hpp"
#include "spice/rtn_integration.hpp"
#include "sram/cell.hpp"
#include "sram/detector.hpp"
#include "sram/pattern.hpp"

namespace samurai::sram {

struct MethodologyConfig {
  physics::Technology tech;
  CellSizing sizing;
  std::vector<Op> ops;            ///< test pattern
  PatternTiming timing;
  std::uint64_t seed = 1;
  double rtn_scale = 1.0;         ///< Fig. 8(e) uses 30
  physics::TrapProfileOptions profile;
  /// If non-empty, I_RTN is injected only into these transistors
  /// ("M1".."M6"); traces are still generated for all six. Used to isolate
  /// which device's RTN drives a failure mode.
  std::set<std::string> rtn_devices;
  VthShifts vth_shifts;           ///< per-transistor variation (arrays)
  DetectorOptions detector;       ///< v_dd is overwritten from tech
  spice::TransientOptions transient;  ///< t_stop overwritten from pattern
  /// Algorithm-1 sampler options (rate-bound override, candidate budget,
  /// majorant or fixed bound) forwarded to every per-trap simulation.
  core::UniformisationOptions uniformisation;
};

/// Per-transistor SAMURAI outputs (phase 2).
struct TransistorRtn {
  std::string name;               ///< "M1".."M6"
  std::vector<physics::Trap> traps;
  core::Pwl v_gs;                 ///< extracted bias (spice::channel_bias)
  core::Pwl i_d;                  ///< nominal channel current, signed
  core::StepTrace n_filled;       ///< trap occupancy (Fig. 8 (b),(c))
  core::Pwl i_rtn;                ///< Eq. 3 trace (Fig. 8 (d)), signed
  core::UniformisationStats stats;
};

struct MethodologyResult {
  PatternWaveforms pattern;
  spice::TransientResult nominal;    ///< Fig. 8(a)
  std::vector<TransistorRtn> rtn;    ///< Fig. 8(b)-(d)
  spice::TransientResult with_rtn;   ///< Fig. 8(e)
  PatternReport nominal_report;
  PatternReport rtn_report;
  std::string q_node, qb_node;       ///< prefixed node names for plotting
};

/// Run the full pipeline. Deterministic given `config.seed`.
MethodologyResult run_methodology(const MethodologyConfig& config);

/// Phase-1 helper exposed for reuse: build and simulate the nominal cell,
/// returning the transient plus the cell handles (by value).
struct NominalRun {
  PatternWaveforms pattern;
  spice::TransientResult result;
  SramCellHandles handles;
};
NominalRun run_nominal(const MethodologyConfig& config,
                       const std::string& prefix = "");

/// Same, but solving into a caller-owned Newton workspace so repeated runs
/// of same-sized cells (Monte-Carlo sweeps, benchmarks) reuse every solver
/// buffer instead of reallocating per transient.
NominalRun run_nominal(const MethodologyConfig& config,
                       spice::NewtonWorkspace& workspace,
                       const std::string& prefix = "");

/// Batched phase 1: the nominal transients of K variation samples marched
/// in lock-step through the batched fixed-grid engine (spice/batch.hpp).
struct NominalBatchRun {
  PatternWaveforms pattern;
  std::vector<spice::TransientResult> results;  ///< index-aligned with configs
  std::string q_node, qb_node;  ///< node names (identical across lanes)
};

/// Run every config's nominal cell through one spice::transient_batch call.
/// All configs must share pattern, timing, technology and sizing — they are
/// Monte-Carlo samples of one workload differing only in `vth_shifts` (and
/// seed); the batch engine enforces the resulting topology equality. Forces
/// `fixed_grid`, so results differ from the adaptive-step run_nominal by
/// integration error only (the step plan is the deterministic fixed grid).
NominalBatchRun run_nominal_batch(std::span<const MethodologyConfig> configs,
                                  spice::BatchWorkspace& workspace);

/// Wire the pattern sources and supply (named prefix + "Vdd", "Vwl",
/// "Vbl", "Vblb") to a built cell.
void attach_sources(spice::Circuit& circuit, const SramCellHandles& handles,
                    const PatternWaveforms& pattern, double v_dd,
                    const std::string& prefix);

/// The cell's transient options: config.transient over the pattern window,
/// dt_max = period/40 unless set, and nodesets placing the cell whose nodes
/// carry `prefix` in its Q = 0 basin (so the options exist before the
/// circuit does).
spice::TransientOptions make_transient_options(const MethodologyConfig& config,
                                               const PatternWaveforms& pattern,
                                               const std::string& prefix);

/// RTN requests for the six transistors M1..M6 of the cell whose devices
/// carry `prefix`, in order: M<m> draws its traps from
/// Rng(seed).split(stream_offset + m·101) and its chains from
/// split(stream_offset + m·977 + 13), at amplitude `scale`. Only the
/// `injected` subset of "M1".."M6" (all six when empty) is injected.
std::vector<spice::RtnRequest> cell_rtn_requests(
    std::uint64_t seed, double scale, const std::set<std::string>& injected,
    const std::string& prefix = "", std::uint64_t stream_offset = 0);

/// Extract transistor bias waveforms from a transient solution: the
/// spice::channel_bias V_gs(t) and signed I_d(t) of
/// spice::extract_device_bias.
void extract_bias(const spice::TransientResult& result,
                  const spice::Circuit& circuit, const spice::Mosfet& mosfet,
                  core::Pwl& v_gs, core::Pwl& i_d);

}  // namespace samurai::sram
