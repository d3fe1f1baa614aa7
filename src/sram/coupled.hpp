// Bi-directionally coupled RTN + circuit simulation (paper future-work
// direction #1).
//
// In the baseline methodology the biases driving the trap chains are
// pre-computed from an RTN-free SPICE run. Here the coupling is closed:
// after every accepted transient step, each transistor's trap chains are
// advanced over the step using propensities evaluated at the *actual*
// instantaneous node voltages (which include the RTN's own back-action),
// and the resulting I_RTN is injected into the next step through callback
// current sources. The bias is held constant within a step (explicit
// first-order coupling), so the scheme converges as the step size
// shrinks; within a step the chain advance itself is exact.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trajectory.hpp"
#include "physics/trap.hpp"
#include "physics/trap_profile.hpp"
#include "sram/column.hpp"
#include "sram/methodology.hpp"

namespace samurai::sram {

struct CoupledResult {
  PatternWaveforms pattern;
  spice::TransientResult transient;   ///< the coupled run
  PatternReport report;
  /// Per-transistor occupancy trajectories accumulated during the run.
  std::vector<std::string> transistor_names;
  std::vector<core::StepTrace> n_filled;
  std::vector<std::vector<physics::Trap>> traps;
  std::string q_node, qb_node;
};

/// Run the coupled simulation with the same configuration surface as the
/// staged methodology (same cell, requests and traps; dt_max defaults to
/// period/100). `config.rtn_devices` limits which transistors inject.
CoupledResult run_coupled(const MethodologyConfig& config);

struct CoupledColumnResult {
  spice::TransientResult transient;  ///< the coupled column run
  ColumnReport report;
  std::size_t num_traps = 0;       ///< traps sampled across all cells
  std::uint64_t switch_events = 0; ///< total trap transitions during the run
};

/// Coupled RTN over a whole shared-bitline column: one MNA system holding
/// all N cells of a build_column circuit (solved on the sparse engine above
/// the auto threshold), where every cell transistor carries live trap
/// chains advanced after each accepted step at its actual instantaneous
/// node voltages — so a cell's RTN back-action reaches its neighbours
/// through the shared bitlines within the same run.
CoupledColumnResult run_coupled_column(
    const ColumnConfig& config, std::uint64_t seed, double rtn_scale,
    const physics::TrapProfileOptions& profile = {});

}  // namespace samurai::sram
