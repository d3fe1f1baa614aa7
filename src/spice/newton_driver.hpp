// Internal Newton/transient driver shared by the scalar analyses
// (analysis.cpp) and the batched fixed-grid engine (batch.cpp). Not part
// of the public API: include only from src/spice translation units.
//
// The driver is decomposed into per-iteration pieces so the batched
// engine can interleave K lanes — prepare_base once per solve, then per
// Newton iteration assemble_linear → nonlinear stamps → finish_iteration
// — while every lane's floating-point sequence stays identical to the
// scalar solve() that composes the same pieces.
#pragma once

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "spice/analysis.hpp"

namespace samurai::spice {
class BatchWorkspace;  // spice/batch.hpp
}  // namespace samurai::spice

namespace samurai::spice::detail {

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;
};

/// Outcome of one Newton iteration's linear-algebra half.
struct IterationResult {
  bool converged = false;
  bool singular = false;
};

/// What the partitioned engine's row sweep reduces for finish_iteration:
/// the residual norms and the max|J| the factorization's pivot threshold
/// reads.
struct RowNorms {
  double max_residual = 0.0;         ///< node (KCL) rows, A
  double max_branch_residual = 0.0;  ///< branch rows, V
  double jac_max_abs = 0.0;
};

/// One planned fixed-grid step (see NewtonDriver::plan_fixed_grid).
struct GridStep {
  double t_next = 0.0;  ///< time after the step (use verbatim, no resum)
  double step = 0.0;    ///< step size h
  bool use_be = false;  ///< backward Euler (first step / post-breakpoint)
  bool hit_breakpoint = false;
};

struct NewtonDriver {
  /// One Newton solve of the MNA system at fixed (time, a0, ci),
  /// warm-started from and returning in `x`. `pins` adds a 1 S conductance
  /// from node id to a target voltage (nodeset); `gmin` leaks every node
  /// to ground. Allocation-free given an attached workspace.
  static NewtonOutcome solve(NewtonWorkspace& ws, std::vector<double>& x,
                             double time, double a0, double ci,
                             const NewtonOptions& options, double gmin,
                             const std::vector<std::pair<int, double>>& pins);

  /// Build (or cache-hit) the linear base Jacobian and the residual offset
  /// f_lin(0) for one solve at (time, a0, ci, gmin, pins).
  static void prepare_base(NewtonWorkspace& ws, double time, double a0,
                           double ci, const NewtonOptions& options,
                           double gmin,
                           const std::vector<std::pair<int, double>>& pins);

  /// Restore the base Jacobian into the iteration Jacobian, compute
  /// residual = f_lin(0) + A_lin·x, and bind the workspace sink for the
  /// nonlinear stamps that must follow.
  static void assemble_linear(NewtonWorkspace& ws, std::span<const double> x);

  /// The nonlinear LoadContext matching assemble_linear's sink binding.
  static LoadContext nonlinear_context(NewtonWorkspace& ws,
                                       std::span<const double> x, double time,
                                       double a0, double ci);

  /// The partitioned engine's device sweep (ap_mode_ != kOff), on the
  /// shared pool: every nonlinear device evaluates into its own capture
  /// slices, except a quiescent device whose input voltages are within
  /// tolerance of its cached evaluation, which keeps them; each
  /// evaluation lowers the partial-refactor dirty floor. When
  /// ap_lin_pending_, every device also captures its linear residual
  /// offset f_lin(0), and its linear stamps when ap_base_pending_.
  static void sweep_devices(NewtonWorkspace& ws, std::span<const double> x,
                            double time, double a0, double ci);

  /// The partitioned engine's row sweep, replacing assemble_linear plus
  /// the nonlinear stamps: each MNA row copies its base Jacobian row
  /// (rebuilt from the linear captures when ap_base_pending_), does its
  /// linear matvec, and adds its captured Jacobian and residual values in
  /// program order (gathering base_res_ first when ap_lin_pending_).
  /// Returns the norms finish_iteration reads.
  static RowNorms sweep_rows(NewtonWorkspace& ws, std::span<const double> x);

  /// After an accepted step: every device commits its history and every
  /// node records its sample — one sweep on the partitioned engine, the
  /// plain loops elsewhere.
  static void commit_step(NewtonWorkspace& ws, TransientResult& result,
                          double t, std::span<const double> x, double a0,
                          double ci);

  /// Recompute the per-device permuted-row floors after a fresh symbolic
  /// analysis (the permutation they translate through just changed).
  static void recompute_ap_floors(NewtonWorkspace& ws);

  /// Residual norms → factor-or-bypass → triangular solve → damped update
  /// → convergence test. `prev_scaled` carries the modified-Newton
  /// contraction state across iterations of one solve; `swept` supplies
  /// the norms when a row sweep already reduced them.
  static IterationResult finish_iteration(NewtonWorkspace& ws,
                                          std::vector<double>& x,
                                          const NewtonOptions& options,
                                          int iter, double& prev_scaled,
                                          const RowNorms* swept = nullptr);

  static std::vector<std::pair<int, double>> resolve_pins(
      Circuit& circuit, const std::map<std::string, double>& nodeset);

  /// DC operating point against an already-attached workspace.
  static DcResult dc(NewtonWorkspace& ws, Circuit& circuit,
                     const DcOptions& options);

  /// Breakpoints for a transient over [t_start, t_stop]: device corners +
  /// caller extras + t_stop, clipped to the window, sorted and deduped
  /// with the span-relative tolerance both drivers share.
  static std::vector<double> collect_breakpoints(
      Circuit& circuit, const TransientOptions& options);

  /// The deterministic fixed-grid step sequence: dt_max-sized steps
  /// clipped to each breakpoint and to t_stop, backward Euler after every
  /// discontinuity (and on the first step). The scalar fixed-grid
  /// transient and every batched lane execute exactly this plan, which is
  /// what makes their accepted-step sequences identical by construction.
  static std::vector<GridStep> plan_fixed_grid(
      const TransientOptions& options, double dt_max,
      std::span<const double> breakpoints);

  static TransientResult run_transient(Circuit& circuit,
                                       const TransientOptions& options,
                                       NewtonWorkspace& ws);

  /// The batched lock-step engine (defined in batch.cpp).
  static std::vector<TransientResult> run_transient_batch(
      std::span<Circuit* const> circuits, const TransientOptions& options,
      BatchWorkspace& workspace);
};

}  // namespace samurai::spice::detail
