// Batched Monte-Carlo transient engine: march K same-topology circuits
// ("lanes") through one fixed-grid transient in lock-step.
//
// A yield campaign re-runs the same cell topology and drive pattern with
// per-sample threshold-voltage draws, so the K transients share their
// breakpoints, their steps and — on the sparse engine — one symbolic LU
// analysis; only the MOSFET operating points and the linear algebra
// differ per lane. All lanes walk one step clock (the scalar loop's, on
// the fixed grid), evaluate their MOSFET channels through one
// structure-of-arrays sweep (physics::MosBatch) per Newton iteration, and
// retire from the iteration as they converge. Each lane executes exactly
// the scalar fixed-grid step/iteration sequence, so lane k of a batch
// reproduces an independent scalar run of circuit k bit-for-bit on the
// dense engine (and to Newton tolerance on the sparse one, where the
// adopted pivot order may differ from the lane's own analysis). See
// DESIGN.md §13.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "physics/mos_device.hpp"
#include "spice/analysis.hpp"

namespace samurai::spice {

/// Reusable scratch for transient_batch: per-lane Newton workspaces plus
/// the SoA MOSFET evaluators and lane bookkeeping. Reusing one workspace
/// across batches of the same shape keeps the steady state allocation-free
/// (same contract as NewtonWorkspace).
class BatchWorkspace {
 public:
  BatchWorkspace() = default;

  /// Lanes bound by the last transient_batch call.
  std::size_t lanes() const noexcept { return lanes_.size(); }

 private:
  friend struct detail::NewtonDriver;

  std::vector<NewtonWorkspace> lanes_;     ///< one scalar workspace per lane
  std::vector<physics::MosBatch> slots_;   ///< per MOSFET slot, SoA over lanes
  std::vector<std::size_t> active_;        ///< unconverged lane ids
  std::vector<std::size_t> next_active_;
  std::vector<double> prev_scaled_;        ///< per-lane Newton contraction
};

/// Run the transient of every circuit in `circuits` in lock-step on the
/// shared fixed grid (union of all lanes' breakpoints). Requires
/// `options.fixed_grid`; `on_step` is unsupported (lanes advance
/// together, not one at a time). All circuits must share one topology —
/// system size, node count and MOSFET terminal wiring — and every
/// nonlinear device must be a Mosfet. Results are index-aligned with
/// `circuits`; each carries its lane's solver-stats delta, and the
/// process-wide stats additionally record the bt_* batched-engine
/// counters.
std::vector<TransientResult> transient_batch(std::span<Circuit* const> circuits,
                                             const TransientOptions& options,
                                             BatchWorkspace& workspace);

/// Convenience overload with a throwaway workspace.
std::vector<TransientResult> transient_batch(std::span<Circuit* const> circuits,
                                             const TransientOptions& options);

}  // namespace samurai::spice
