// Transistor-level R×C SRAM array: rows of 6T cells sharing per-row
// wordline rails and per-column differential bitline pairs, with real
// periphery on every column (precharge trio, equaliser, NMOS write
// drivers) and a wordline driver per row. Operations address a whole
// row: a write drives one bit per column, a read senses every column's
// differential at once — which is what makes per-column worst-case sense
// margin under RTN a single-transient measurement.
//
// The array is the target workload of the activity-partitioned engine:
// during any one op at most one row is selected, so (R-1)×C cells are
// quiescent and their device evaluations/factor rows can be elided and
// Schur-folded (array2d_activity builds that partition).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/rtn_integration.hpp"
#include "sram/cell.hpp"
#include "sram/column.hpp"

namespace samurai::sram {

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
  std::vector<std::string> wl;         ///< wordline rails, one per row
  std::string vdd;
};

/// Name prefix of cell (row, col)'s devices/nodes ("r<row>c<col>_").
std::string array_cell_prefix(std::size_t row, std::size_t col);

/// Build the array circuit (cells + per-row WL drivers + per-column
/// periphery + sources) for the given op sequence.
Array2dBuild build_array2d(spice::Circuit& circuit,
                           const Array2dConfig& config);

struct Array2dReport {
  /// Per-(read op, column) outcomes; ReadOutcome::cell holds the flat
  /// cell index row*cols + col.
  std::vector<ReadOutcome> reads;
  /// Per-(write op, column) outcomes, same flat-index convention.
  std::vector<WriteOutcome> writes;
  bool any_error = false;
  double min_sense_margin = 0.0;
  /// Worst sense margin seen on each column across all reads (v_dd where
  /// a column was never read).
  std::vector<double> column_worst_margin;
};

/// Evaluate a finished transient against the op sequence.
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

}  // namespace samurai::sram
