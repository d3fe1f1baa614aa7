// Internal Newton/transient driver shared by the scalar analyses
// (analysis.cpp) and the batched fixed-grid engine (batch.cpp). Not part
// of the public API: include only from src/spice translation units.
//
// The driver is decomposed into per-iteration pieces so the batched
// engine can interleave K lanes — prepare_base once per solve, then per
// Newton iteration assemble_linear → nonlinear stamps → finish_iteration
// — while every lane's floating-point sequence stays identical to the
// scalar solve() that composes the same pieces. Both engines walk the
// same StepClock and share the transient's DC start, predictor, step
// commit and stats epilogue.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
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
  /// A NaN or infinite residual norm or update: the solve cannot converge.
  bool non_finite = false;
};

/// What the partitioned engine's row sweep reduces for finish_iteration:
/// the residual norms and the max|J| the factorization's pivot threshold
/// reads.
struct RowNorms {
  double max_residual = 0.0;         ///< node (KCL) rows, A
  double max_branch_residual = 0.0;  ///< branch rows, V
  double jac_max_abs = 0.0;
};

/// One step as the StepClock lays it out.
struct ClockStep {
  double t_next = 0.0;  ///< time after the step
  double h = 0.0;       ///< step size
  double a0 = 0.0;      ///< companion coefficients: backward Euler (1/h, 0)
  double ci = 0.0;      ///< or trapezoidal (2/h, -1), see StepClock
  /// h over the previous accepted step; 0 when the step has no predictor
  /// (the first step and the first after a breakpoint).
  double growth = 0.0;
  bool hit_breakpoint = false;
};

/// The step clock every transient walks, the scalar loop (adaptive or
/// fixed-grid) and the batched lanes alike. take() clips a proposed step
/// to the next breakpoint, when it reaches within kDtMin of it, and to
/// t_stop; the first step and every step after a breakpoint integrate
/// with backward Euler, the rest with the trapezoidal rule.
class StepClock {
 public:
  /// `breakpoints` as collect_breakpoints returns them (sorted, deduped;
  /// ending at t_stop); they must outlive the clock.
  StepClock(const TransientOptions& options,
            std::span<const double> breakpoints);

  /// options.dt_max, or (t_stop - t_start) / 200 when it is 0.
  double dt_max() const noexcept { return dt_max_; }
  /// The point count of a run the LTE control never cuts short: every
  /// step is at most dt_max and each breakpoint may add one.
  std::size_t points_estimate() const noexcept {
    return static_cast<std::size_t>(span_ / dt_max_) + breakpoints_.size() +
           2;
  }
  bool done() const noexcept { return !(t_ < t_stop_ - span_ * 1e-12); }
  double t() const noexcept { return t_; }
  ClockStep take(double proposed) const;
  /// Advance past an accepted step.
  void accept(const ClockStep& step);

 private:
  std::span<const double> breakpoints_;
  std::size_t next_bp_ = 0;
  double t_ = 0.0;
  double t_stop_ = 0.0;
  double span_ = 0.0;
  double dt_max_ = 0.0;
  double dt_prev_ = 0.0;
  bool after_discontinuity_ = true;
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

  /// After an accepted step to x_new_: every device commits its history
  /// and every node records its sample — one sweep on the partitioned
  /// engine, the plain loops elsewhere — and the solution history shifts
  /// (x_prev_ ← x_, x_ ← x_new_).
  static void commit_step(NewtonWorkspace& ws, TransientResult& result,
                          const ClockStep& step);

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

  /// Device corners + caller extras + t_stop, deduped.
  static std::vector<double> collect_breakpoints(
      Circuit& circuit, const TransientOptions& options);

  /// Sort, and drop each breakpoint within the span-relative tolerance of
  /// the last one kept.
  static void dedupe_breakpoints(std::vector<double>& breakpoints,
                                 const TransientOptions& options);

  /// The DC operating point into x_ and x_prev_ (std::runtime_error with
  /// `dc_failure` if it does not converge), every device's history reset
  /// and committed from it, and a result that recorded it at t_start.
  static TransientResult start_transient(NewtonWorkspace& ws,
                                         Circuit& circuit,
                                         const TransientOptions& options,
                                         const StepClock& clock,
                                         const std::string& dc_failure);

  /// Warm start x_new_: x_, or the linear extrapolation through x_prev_
  /// and x_ (kept in x_pred_ for the LTE test) when the step predicts.
  static void predict(NewtonWorkspace& ws, const ClockStep& step);

  /// Count the transient; its stats delta since `before` goes to the
  /// result and to the process-wide aggregate.
  static void finish_transient(NewtonWorkspace& ws, const SolverStats& before,
                               TransientResult& result);

  static TransientResult run_transient(Circuit& circuit,
                                       const TransientOptions& options,
                                       NewtonWorkspace& ws);

  /// The batched lock-step engine (defined in batch.cpp).
  static std::vector<TransientResult> run_transient_batch(
      std::span<Circuit* const> circuits, const TransientOptions& options,
      BatchWorkspace& workspace);
};

}  // namespace samurai::spice::detail
