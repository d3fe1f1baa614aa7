// Transistor-level R×C SRAM array: rows of 6T cells sharing per-row
// wordline rails and per-column differential bitline pairs, with real
// periphery on every column (precharge trio, equaliser, NMOS write
// drivers) and a wordline driver per row. Operations address a whole
// row: a write drives one bit per column, a read senses every column's
// differential at once — which is what makes per-column worst-case sense
// margin under RTN a single-transient measurement.
//
// Reads here are *real* reads: the bitlines are precharged high, released
// to float, and the addressed cell discharges one of them through its
// pass gate and pull-down; the sensed bit is the sign of V_bl - V_blb at
// sense time and the sense margin is its magnitude. RTN that weakens the
// discharge path directly shrinks the sense margin / read speed — the
// read-failure mechanism of paper ref. [16] in its natural habitat.
//
// A column (N cells on one bitline pair, each cell driven by its own
// word-line source) is an N×1 array: the same ops, control waveforms and
// checker, only build_column's wiring differs.
//
// The array is the target workload of the activity-partitioned engine:
// during any one op at most one row is selected, so (R-1)×C cells are
// quiescent and their device evaluations/factor rows can be elided and
// Schur-folded (array2d_activity / column_activity build that partition).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/rtn_integration.hpp"
#include "sram/cell.hpp"

namespace samurai::sram {

/// One op per slot of this period, for the array and the column alike:
/// the control waveforms' edges and check_array2d's sense and slot-end
/// instants sit at fixed fractions of it.
inline constexpr double kSlotPeriod = 1e-9;

/// One array operation; reads/writes address a full row.
struct ArrayOp {
  enum class Kind { kWrite, kRead, kNop };
  Kind kind = Kind::kNop;
  std::size_t row = 0;
  std::vector<int> bits;  ///< per-column written word (writes only)

  static ArrayOp write(std::size_t row, std::vector<int> bits) {
    return {Kind::kWrite, row, std::move(bits)};
  }
  static ArrayOp read(std::size_t row) { return {Kind::kRead, row, {}}; }
  static ArrayOp nop() { return {}; }
};

/// An R×C array; a column is rows = cells, cols = 1.
struct Array2dConfig {
  physics::Technology tech;
  CellSizing sizing;
  std::size_t rows = 4;
  std::size_t cols = 4;
  double bitline_cap = 120e-15;   ///< per bitline, F
  std::vector<ArrayOp> ops;
  /// Initial stored value per cell, flat index row*cols + col; missing
  /// entries default to 0.
  std::vector<int> initial_bits;
};

struct Array2dBuild {
  std::vector<SramCellHandles> cells;  ///< flat index row*cols + col
  std::vector<std::string> bl, blb;    ///< shared rails, one per column
  /// Wordline node per row: the row rail, or a column cell's own wl.
  std::vector<std::string> wl;
  std::string vdd;
};

/// Name prefix of cell (row, col)'s devices/nodes ("r<row>c<col>_").
std::string array_cell_prefix(std::size_t row, std::size_t col);

/// Build the array circuit (cells + per-row WL drivers + per-column
/// periphery + sources) for the given op sequence.
Array2dBuild build_array2d(spice::Circuit& circuit,
                           const Array2dConfig& config);

struct ReadOutcome {
  std::size_t slot = 0;
  std::size_t cell = 0;
  int expected = -1;        ///< tracked stored value, -1 if unknown
  int sensed = -1;          ///< sign of the differential at sense time
  double sense_margin = 0.0;///< |V_bl - V_blb| at sense time, V
  bool disturbed = false;   ///< cell state flipped by the read
};

struct WriteOutcome {
  std::size_t slot = 0;
  std::size_t cell = 0;
  int bit = 0;
  bool ok = false;
};

struct Array2dReport {
  /// Per-(read op, column) outcomes; ReadOutcome::cell holds the flat
  /// cell index row*cols + col.
  std::vector<ReadOutcome> reads;
  /// Per-(write op, column) outcomes, same flat-index convention.
  std::vector<WriteOutcome> writes;
  bool any_error = false;  ///< wrong write, wrong sensed bit or disturb
  double min_sense_margin = 0.0;
  /// Worst sense margin seen on each column across all reads (v_dd where
  /// a column was never read).
  std::vector<double> column_worst_margin;
};

/// Evaluate a finished transient of a build_array2d or build_column
/// circuit against the op sequence.
Array2dReport check_array2d(const spice::TransientResult& result,
                            const Array2dConfig& config,
                            const Array2dBuild& build);

/// Transient options matching a build_array2d circuit: window from the op
/// count, dt_max from the slot period, nodesets placing every cell in its
/// initial_bits basin with all bitlines precharged high.
spice::TransientOptions array2d_transient_options(const Array2dConfig& config);

/// Activity partition for a built array: cells on rows never addressed by
/// `config.ops` are quiescent — their six transistors become elidable and
/// their six private unknowns {q, qb, bl stub, blb stub, vdd stub, wl
/// stub} form one fold group per cell whose boundary is the shared
/// column/row rails. kOff returns an empty partition. Stored by device
/// name so one partition serves both run_rtn_transient passes.
spice::ActivityPartition array2d_activity(spice::Circuit& circuit,
                                          const Array2dConfig& config,
                                          spice::ActivityMode mode,
                                          double tolerance = 0.0);

struct Array2dRtnResult {
  /// Nominal + injected transients, traces and the phase timers.
  spice::RtnTransientResult rtn;
  Array2dReport nominal_report;
  Array2dReport rtn_report;
};

/// Run the array nominally and with SAMURAI RTN injected into every
/// cell's M5 pull-down (amplitude-scaled) through run_rtn_transient, with
/// grid-sampled injection. A non-null `activity` runs both transients
/// activity-partitioned.
Array2dRtnResult run_array2d_rtn(const Array2dConfig& config,
                                 std::uint64_t seed, double rtn_scale,
                                 const spice::ActivityPartition* activity = nullptr);

// --- Column: an N×1 array with one word-line source per cell ---------------

/// Name of cell i's devices/nodes prefix inside a column ("c<i>_").
std::string column_cell_prefix(std::size_t index);

/// Build the column circuit for an N×1 config (`rows` cells): shared rails
/// bl/blb/vdd, each cell's stubs tied to them, a `c<i>_Vwl` source per
/// cell, one precharge trio and one write-driver pair. Throws
/// std::invalid_argument unless `cols == 1`.
Array2dBuild build_column(spice::Circuit& circuit, const Array2dConfig& config);

/// Transient options matching a build_column circuit, as
/// array2d_transient_options for an array. Shared by run_column_rtn, the
/// coupled column and the solver benchmarks (which additionally pin
/// TransientOptions::solver per engine).
spice::TransientOptions column_transient_options(const Array2dConfig& config);

/// Activity partition for a built column, as array2d_activity for an
/// array, except that each quiescent cell's group holds seven unknowns:
/// its own word line is driven by its `c<i>_Vwl` source, whose branch is
/// private to the cell too.
spice::ActivityPartition column_activity(spice::Circuit& circuit,
                                         const Array2dConfig& config,
                                         spice::ActivityMode mode,
                                         double tolerance = 0.0);

/// Run the column nominally and with SAMURAI RTN injected into every cell
/// transistor (amplitude-scaled), via the generic two-pass integration,
/// and judge both transients with check_array2d. A non-null `activity`
/// runs both passes activity-partitioned.
Array2dRtnResult run_column_rtn(const Array2dConfig& config,
                                std::uint64_t seed, double rtn_scale,
                                const spice::ActivityPartition* activity = nullptr);

}  // namespace samurai::sram
