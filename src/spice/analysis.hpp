// Circuit analyses: Newton-Raphson DC operating point (with nodeset
// pinning and gmin stepping) and adaptive-step transient with backward
// Euler / trapezoidal companion integration and LTE-based step control.
//
// The transient hot path is allocation-free: a per-circuit NewtonWorkspace
// owns the Jacobian, residual, delta, predictor and LU-factor storage, the
// linear devices' stamps are cached as a base Jacobian that is memcpy'd
// under the MOSFET re-stamps each iteration, and LU factors are reused
// across iterations/steps while the residual contracts (modified-Newton
// bypass). See DESIGN.md "The transient fast path".
//
// The activity-partitioned engine (ActivityMode::kSchur: array and column
// runs) runs its per-device and per-row loops as sweeps on the shared
// pool, min(pool workers + 1, available CPUs) participants, serially
// inside a pool job. Per Newton iteration, a device sweep: each device
// evaluates (or, quiescent, keeps) its Jacobian stamps and residual adds
// in its own slices of program-aligned capture arrays, with its linear
// part on a solve's first iteration; then a row sweep: each MNA row copies
// its base Jacobian row, does its linear matvec, adds its captured values
// in program order, and reduces its share of the residual norms and
// max|J|. Per accepted step, one sweep commits every device's history and
// records every node's sample. With the Schur fold's ordering groups the
// sparse LU's grouped analysis and numeric refactorization run on the same
// participants (see SparseLu); its triangular solve stays serial. Each
// value has one writer and the serial floating-point sequence, so results
// are bit-identical at any participant count (DESIGN.md §15).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/waveform.hpp"
#include "spice/circuit.hpp"
#include "util/counters.hpp"

namespace samurai::spice {

/// Operation counters for one solve (DC or transient). Monotonic within a
/// run; merged into the process-wide aggregate (solver_stats_snapshot) so
/// the campaign runtime can report per-shard solver work without threading
/// state through every sample type. A new counter is a field here plus a
/// row in kSolverCounters (DESIGN.md §18).
struct SolverStats {
  std::uint64_t newton_iterations = 0;
  std::uint64_t lu_factorizations = 0;  ///< factorizations on either engine
  std::uint64_t lu_solves = 0;          ///< triangular solves, either engine
  std::uint64_t bypass_hits = 0;        ///< solves against stale LU factors
  std::uint64_t device_loads = 0;       ///< individual Device::load calls
  std::uint64_t linear_cache_hits = 0;  ///< solves reusing the base Jacobian
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  std::uint64_t transients = 0;
  /// Workspace buffer (re)allocations. Exactly one per circuit binding; a
  /// steady-state time-stepping loop must add zero (asserted in tests).
  std::uint64_t workspace_allocations = 0;
  // Sparse-engine share of the work (zero on pure dense runs). A
  // factorization on the sparse path is either a symbolic analysis
  // (pivot-order + fill discovery — once per topology, plus numeric
  // fallback re-analyses) or a static-pattern numeric refactorization;
  // the two sum to the sparse part of lu_factorizations and their ratio
  // is the symbolic-reuse rate the design banks on.
  std::uint64_t sp_symbolic_analyses = 0;
  std::uint64_t sp_numeric_refactors = 0;
  std::uint64_t sp_solves = 0;  ///< sparse part of lu_solves
  // Batched-engine share of the work (zero when every transient ran
  // scalar). Lanes of a batched run also count in the scalar fields
  // (transients, steps_accepted, ...) exactly as their scalar twins
  // would, so these three only attribute runs to the batched driver.
  std::uint64_t bt_batches = 0;  ///< batched fixed-grid transient calls
  std::uint64_t bt_lanes = 0;    ///< Monte-Carlo lanes across those calls
  std::uint64_t bt_steps = 0;    ///< accepted steps summed over lanes
  // Activity-partitioned engine ledger (zero with partitioning off).
  // device_loads counts only *real* loads, so device_loads +
  // ap_elided_loads is what an unpartitioned run would have paid.
  std::uint64_t ap_elided_loads = 0;      ///< stamp replays instead of loads
  std::uint64_t ap_partial_refactors = 0; ///< refactors with a nonzero floor
  std::uint64_t ap_rows_skipped = 0;      ///< factor rows retained, summed
  std::uint64_t ap_folded_cells = 0;      ///< Schur ordering groups attached

  void merge(const SolverStats& other);
  /// Counter-wise `this - other` (for before/after deltas).
  SolverStats since(const SolverStats& other) const;
};

/// Every SolverStats field, in field order, under its ledger key.
inline constexpr auto kSolverCounters =
    std::to_array<util::Counter<SolverStats, std::uint64_t>>({
        {"nw_iterations", &SolverStats::newton_iterations},
        {"nw_factorizations", &SolverStats::lu_factorizations},
        {"nw_solves", &SolverStats::lu_solves},
        {"nw_bypass_hits", &SolverStats::bypass_hits},
        {"nw_device_loads", &SolverStats::device_loads},
        {"nw_cache_hits", &SolverStats::linear_cache_hits},
        {"nw_steps_accepted", &SolverStats::steps_accepted},
        {"nw_steps_rejected", &SolverStats::steps_rejected},
        {"nw_transients", &SolverStats::transients},
        {"nw_workspace_allocations", &SolverStats::workspace_allocations},
        {"sp_symbolic_analyses", &SolverStats::sp_symbolic_analyses},
        {"sp_numeric_refactors", &SolverStats::sp_numeric_refactors},
        {"sp_solves", &SolverStats::sp_solves},
        {"bt_batches", &SolverStats::bt_batches},
        {"bt_lanes", &SolverStats::bt_lanes},
        {"bt_steps", &SolverStats::bt_steps},
        {"ap_elided_loads", &SolverStats::ap_elided_loads},
        {"ap_partial_refactors", &SolverStats::ap_partial_refactors},
        {"ap_rows_skipped", &SolverStats::ap_rows_skipped},
        {"ap_folded_cells", &SolverStats::ap_folded_cells},
    });
static_assert(sizeof(SolverStats) ==
                  kSolverCounters.size() * sizeof(std::uint64_t),
              "every SolverStats field needs a row in kSolverCounters");

/// Process-wide aggregate of every solve performed so far (atomic,
/// thread-safe). Snapshot before/after a work region and diff with
/// SolverStats::since to attribute solver work to that region.
SolverStats solver_stats_snapshot();

namespace detail {
struct NewtonDriver;
void solver_stats_accumulate(const SolverStats& stats);
}  // namespace detail

/// Linear-solver engine selection. kAuto picks by system size: dense
/// partial-pivot LU below kSparseAutoThreshold unknowns (cell-scale
/// circuits, where dense is faster and is the regression oracle), the
/// CSR/stamp-pointer sparse path at or above it (column-scale circuits,
/// where dense O(n³) factorization is the wall). The explicit kinds exist
/// for equivalence tests and benchmarks that pin one engine.
enum class SolverKind { kAuto, kDense, kSparse };

/// kAuto crossover, in MNA unknowns. A 6T cell is ~11 unknowns (dense), a
/// shared-bitline column is 7·N + 10 (sparse from 8 cells up). The exact
/// value is uncritical: both engines solve the same system to Newton
/// tolerance, so crossing it changes cost, never results.
inline constexpr std::size_t kSparseAutoThreshold = 50;

/// Activity partitioning for array-scale transients (DESIGN.md §15).
///  - kOff:   every nonlinear device is loaded every Newton iteration
///            (the unpartitioned path — also the regression oracle).
///  - kSchur: the partitioned engine. Quiescent devices' nonlinear stamps
///            are captured and replayed while their input voltages stay
///            within the tolerance, and the partition's groups give a
///            grouped (Schur-fold) elimination ordering that condenses
///            each quiescent cell's interior unknowns ahead of the
///            boundary, so partial refactorizations skip the folded rows.
///            A partition without groups replays only; at tolerance 0 the
///            replay condition is bitwise input equality and such a run is
///            bit-identical to kOff (the tolerance-0 oracle).
enum class ActivityMode { kOff, kSchur };

/// Activity map for one circuit topology. Device names (not pointers) so
/// one partition serves both passes of run_rtn_transient, whose nominal
/// and injected circuits are separate builds of the same netlist.
struct ActivityPartition {
  ActivityMode mode = ActivityMode::kOff;
  /// Max-abs move of any input-node voltage before a quiescent device is
  /// re-evaluated. 0 = re-evaluate on any change (bit-exact elision).
  double tolerance = 0.0;
  /// Nonlinear devices allowed to elide (typically every transistor of a
  /// quiescent cell). Names absent from the circuit are ignored; devices
  /// without a nonlinear_inputs() contract stay active.
  std::vector<std::string> quiescent_devices;
  /// Schur ordering groups: each inner list holds the MNA unknown indices
  /// interior to one quiescent cell. Forwarded to
  /// SparseLu::set_ordering_groups; empty = replay only.
  std::vector<std::vector<int>> groups;
};

/// Reusable per-circuit solver scratch: Jacobian, cached linear base,
/// residual, delta, LU factors and pivots, predictor buffers, and the
/// device list split into linear/nonlinear groups. Bind with attach();
/// buffers are reallocated only when the system size actually changes, so
/// a workspace reused across same-sized circuits (e.g. the methodology's
/// nominal and RTN-injected cells) performs zero further heap allocations.
class NewtonWorkspace {
 public:
  NewtonWorkspace() = default;

  /// Bind to `circuit`: size all buffers, split the device list, and
  /// invalidate the linear-stamp and LU caches (stale factors from another
  /// circuit must never leak into a fresh solve). `solver` picks the
  /// linear engine (kAuto: by system size). On the sparse path the stamp
  /// programs are re-recorded and re-resolved, but the symbolic LU
  /// analysis survives the re-attach whenever the new circuit's Jacobian
  /// pattern is unchanged — the cross-repetition reuse that makes
  /// Monte-Carlo campaigns pay for the analysis exactly once.
  ///
  /// A non-null `activity` with mode kSchur engages the
  /// activity-partitioned engine (forcing the sparse path regardless of
  /// size): elision caches are sized, quiescent-device names resolved and
  /// the ordering groups handed to the sparse LU.
  void attach(Circuit& circuit, SolverKind solver = SolverKind::kAuto,
              const ActivityPartition* activity = nullptr);

  const SolverStats& stats() const noexcept { return stats_; }
  /// L+U nonzeros of the live sparse factorization (0 before the first
  /// sparse factor). Benches report this to compare orderings.
  std::size_t lu_fill_nnz() const noexcept { return sp_lu_.fill_nnz(); }

 private:
  friend struct detail::NewtonDriver;

  Circuit* circuit_ = nullptr;
  std::size_t n_ = 0;
  DenseMatrix jacobian_;  ///< full Jacobian assembled per iteration
  DenseMatrix base_jac_;  ///< cached linear stamps (+ gmin, pins)
  DenseMatrix lu_;        ///< live LU factors (modified-Newton reuse)
  std::vector<std::size_t> pivots_;
  std::vector<double> residual_;
  std::vector<double> base_res_;  ///< linear residual offset f_lin(0)
  std::vector<double> delta_;
  std::vector<double> zero_x_;
  std::vector<double> x_;       ///< accepted solution (transients)
  std::vector<double> x_new_;
  std::vector<double> x_prev_;
  std::vector<double> x_pred_;
  std::vector<Device*> devices_;            ///< all, base-pass order
  std::vector<Device*> nonlinear_devices_;  ///< iterated every Newton pass
  // Linear-base cache key.
  bool base_valid_ = false;
  double base_a0_ = 0.0;
  double base_ci_ = 0.0;
  double base_gmin_ = 0.0;
  bool base_had_pins_ = false;
  bool lu_valid_ = false;
  // Sparse engine state (engaged when use_sparse_): the base/full Jacobian
  // pair shares one CSR pattern, the recorded stamp programs are replayed
  // through resolved value-slot pointers, and sp_lu_ carries the symbolic
  // factorization across iterations, steps and re-attaches (DESIGN.md
  // §12).
  bool use_sparse_ = false;
  SparseMatrix sp_base_;  ///< cached linear stamps (+ gmin, pins)
  SparseMatrix sp_jac_;   ///< full Jacobian assembled per iteration
  SparseLu sp_lu_;
  std::vector<std::pair<int, int>> sp_coords_;  ///< recorded programs
  std::size_t sp_lin_tr_count_ = 0;  ///< linear program length, a0 != 0
  std::size_t sp_lin_dc_count_ = 0;  ///< linear program length, a0 == 0
  std::size_t sp_nl_count_ = 0;      ///< nonlinear program length
  std::vector<double*> sp_lin_tr_slots_;  ///< into sp_base_
  std::vector<double*> sp_lin_dc_slots_;  ///< into sp_base_
  std::vector<double*> sp_nl_slots_;      ///< into sp_jac_
  std::vector<double*> sp_diag_slots_;    ///< sp_base_ diagonal (gmin/pins)
  StampSink sp_sink_;
  ResidualSink res_sink_;  ///< bound to residual_ for direct nl loads
  // Residual programs, recorded with the stamp programs: the row of each
  // residual add, per scope. [res_nl_begin_[i], res_nl_begin_[i+1]) is
  // nonlinear device i's slice, [res_lin_begin_[d], res_lin_begin_[d+1])
  // device d's slice of the transient (a0 != 0) linear program.
  std::vector<int> res_nl_rows_;
  std::vector<std::size_t> res_nl_begin_;
  std::vector<int> res_lin_rows_;
  std::vector<std::size_t> res_lin_begin_;
  // Activity-partitioned engine state (engaged when ap_mode_ == kSchur;
  // always rides the sparse path). It runs as sweeps on the shared pool
  // (DESIGN.md §15): a device sweep in which every nonlinear device
  // evaluates (or replays) into its own slices of ap_jac_vals_ and
  // ap_res_vals_ — plus, on a solve's first iteration, every device's
  // linear residual offset into ap_lin_vals_ — then a row sweep in which
  // every MNA row gathers its values in program order. Each value has
  // one writer and the serial floating-point sequence, so every output is
  // bit-identical at any participant count.
  //
  // Per nonlinear device i: [ap_prog_begin_[i], ap_prog_end_[i]) is its
  // slice of the nonlinear stamp program, [ap_input_begin_[i],
  // ap_input_begin_[i+1]) its slice of ap_input_nodes_/ap_key_. A
  // quiescent device keeps its captured slices (skips the evaluation)
  // whenever x at its input nodes is within ap_tol_ of the values cached
  // at its last real evaluation (ap_key_).
  ActivityMode ap_mode_ = ActivityMode::kOff;
  double ap_tol_ = 0.0;
  std::size_t ap_threads_ = 1;                ///< sweep participants
  std::vector<std::size_t> ap_prog_begin_;    ///< per nl device, nl-program-relative
  std::vector<std::size_t> ap_prog_end_;
  std::vector<unsigned char> ap_elidable_;    ///< per nl device
  std::vector<std::size_t> ap_input_begin_;   ///< per nl device + 1
  std::vector<int> ap_input_nodes_;           ///< flattened, ground dropped
  std::vector<double> ap_key_;                ///< x at inputs, last evaluation
  std::vector<unsigned char> ap_valid_;       ///< per nl device: cache live
  std::vector<double> ap_jac_vals_;           ///< nl stamp program values
  std::vector<double> ap_res_vals_;           ///< nl residual program values
  std::vector<double> ap_lin_vals_;           ///< linear residual program values
  std::vector<std::size_t> ap_lin_prog_begin_;  ///< per device + 1, into the
                                                ///< transient linear stamp program
  std::vector<double> ap_lin_jac_vals_;       ///< its values
  /// Set by prepare_base on a transient solve: the next device sweep also
  /// loads every device's linear part, and the row sweep gathers base_res_
  /// from it — and, when the cached base is stale (ap_base_pending_),
  /// rebuilds sp_base_ from the captured linear stamps.
  bool ap_lin_pending_ = false;
  bool ap_base_pending_ = false;
  // Row gathers: for each sp_jac_ entry (row), the positions in the
  // nonlinear stamp (linear stamp, residual, linear residual) program
  // that add into it, in program order.
  std::vector<int> ap_jac_gather_begin_;
  std::vector<int> ap_jac_gather_;
  std::vector<int> ap_base_gather_begin_;
  std::vector<int> ap_base_gather_;
  std::vector<int> ap_res_gather_begin_;
  std::vector<int> ap_res_gather_;
  std::vector<int> ap_lin_gather_begin_;
  std::vector<int> ap_lin_gather_;
  /// One reduction slot per sweep chunk, written by that chunk's task.
  struct alignas(64) SweepPartial {
    std::uint64_t loads = 0;
    std::uint64_t elided = 0;
    std::size_t floor = 0;
    double max_residual = 0.0;
    double max_branch_residual = 0.0;
    double jac_max_abs = 0.0;
  };
  std::vector<SweepPartial> ap_partials_;
  // Partial-refactor bookkeeping: min permuted factor row whose A values
  // may differ from the last successful factorization. Lowered by device
  // evaluations (per-device floors over their stamp rows) and base
  // rebuilds; reset to n after each successful factor.
  std::size_t ap_dirty_min_ = 0;
  bool ap_floors_valid_ = false;
  std::vector<std::size_t> ap_row_floor_;     ///< per nl device
  SolverStats stats_;
};

/// Newton iterations per solve before it reports non-convergence. The
/// tolerances, damping clamp and bypass contraction are constants in
/// analysis.cpp (DESIGN.md §10).
inline constexpr int kMaxNewtonIterations = 200;

struct NewtonOptions {
  /// Modified-Newton LU reuse: within a solve, keep the previous
  /// iteration's factorization and re-solve against it while the scaled
  /// residual contracts by at least half per iteration; refactorize on
  /// stall or reject. The first iteration of each solve always factors
  /// (a0 changes with the adaptive step size).
  bool reuse_lu = true;
  /// Cache the linear devices' base Jacobian across solves with unchanged
  /// companion coefficients (a0, ci). Both knobs exist so benchmarks and
  /// regression tests can force the slow reference path.
  bool cache_linear_stamps = true;
};

/// Conductance from every node to ground, S, in every DC solve and
/// transient step; the DC solve's gmin-stepping ladder ends here.
inline constexpr double kGmin = 1e-12;

struct DcOptions {
  NewtonOptions newton;
  /// Initial-guess pins: solved first with a 1 S conductance tying each
  /// node to its value, then released (SPICE .NODESET). This is how the
  /// SRAM cell is placed in a chosen bistable basin.
  std::map<std::string, double> nodeset;
};

struct DcResult {
  bool converged = false;
  int iterations = 0;
  std::vector<double> x;  ///< node voltages then branch currents
  SolverStats stats;
};

/// Standalone DC operating point, on the linear engine kAuto picks for the
/// circuit's size (a transient's initial DC uses TransientOptions::solver).
DcResult dc_operating_point(Circuit& circuit, const DcOptions& options = {});

/// Smallest step, s, the adaptive controller sizes a step to after an
/// accepted one; a proposal within kDtMin of the next breakpoint lands on
/// it, and a rejected step of at most twice this throws (underflow).
inline constexpr double kDtMin = 1e-17;

/// Every transient integrates with the trapezoidal rule, and with backward
/// Euler on its first step and on the step after each breakpoint.
struct TransientOptions {
  double t_start = 0.0;
  double t_stop = 0.0;     ///< required
  double dt_initial = 1e-12;
  double dt_max = 0.0;     ///< 0 = (t_stop - t_start) / 200
  NewtonOptions newton;
  DcOptions dc;            ///< initial operating point (nodeset etc.)
  /// Linear-engine selection for the whole transient (initial DC
  /// included). kAuto sizes it: dense below kSparseAutoThreshold
  /// unknowns, sparse at or above.
  SolverKind solver = SolverKind::kAuto;
  double lte_reltol = 2e-3;
  double lte_abstol = 1e-5;
  /// Fixed-grid step mode of the one step loop: every proposed step is
  /// dt_max (then clipped to each breakpoint), with no LTE test, no step
  /// rejection and no controller (dt_initial is ignored; a Newton failure
  /// throws instead of shrinking the step). The accepted-step
  /// sequence is then a pure function of (t_start, t_stop, dt_max,
  /// breakpoints), which is the lock-step contract the batched engine
  /// builds on: every lane of a batch — and a scalar rerun with the same
  /// options — takes *exactly* the same steps. See DESIGN.md §13.
  bool fixed_grid = false;
  /// Extra mandatory time points (e.g. RTN switch instants).
  std::vector<double> extra_breakpoints;
  /// Activity partition for array-scale circuits (kOff = unpartitioned).
  /// Rejected by the batched engine (transient_batch throws).
  ActivityPartition activity;
  /// Called after every accepted step with (t, solution). This is the
  /// coupling hook: the bi-directionally coupled RTN simulation advances
  /// its trap chains here using the instantaneous node voltages.
  std::function<void(double, std::span<const double>)> on_step;
};

class TransientResult {
 public:
  TransientResult() = default;
  explicit TransientResult(std::vector<std::string> node_names);

  void record(double t, std::span<const double> x, std::size_t num_nodes);

  /// Pre-size the per-node sample buffers for `points` samples.
  void reserve(std::size_t points);

  const std::vector<double>& times() const noexcept { return times_; }
  const std::vector<std::string>& node_names() const noexcept { return names_; }
  std::size_t num_points() const noexcept { return times_.size(); }

  /// Solver work performed by this transient (including its initial DC).
  const SolverStats& stats() const noexcept { return stats_; }
  void set_stats(const SolverStats& stats) { stats_ = stats; }

  /// Voltage samples of one node (aligned with times()).
  const std::vector<double>& voltage_samples(const std::string& node) const;
  /// Voltage of one node as a PWL waveform.
  core::Pwl voltage(const std::string& node) const;
  /// Voltage at an arbitrary time by linear interpolation.
  double voltage_at(const std::string& node, double t) const;

  /// Difference waveform v(a) - v(b); either may be "0"/"gnd".
  core::Pwl voltage_between(const std::string& a, const std::string& b) const;

 private:
  friend struct detail::NewtonDriver;
  /// record() split for the partitioned engine's commit sweep: append `t`
  /// and make room for one more sample on every node (on the calling
  /// thread), after which each node's sample is appended by its row task
  /// with record_node, which then never allocates.
  void open_record(double t);
  void record_node(std::size_t node, double value) {
    samples_[node].push_back(value);
  }
  std::size_t node_index(const std::string& node) const;
  std::vector<std::string> names_;
  std::vector<double> times_;
  std::vector<std::vector<double>> samples_;  ///< per node
  SolverStats stats_;
};

TransientResult transient(Circuit& circuit, const TransientOptions& options);

/// Transient reusing a caller-owned workspace: same result, but a
/// same-sized workspace performs zero heap allocations. The workspace is
/// re-attached to `circuit`, so it may be shared across circuits of any
/// size (reallocation happens only on size changes).
TransientResult transient(Circuit& circuit, const TransientOptions& options,
                          NewtonWorkspace& workspace);

}  // namespace samurai::spice
