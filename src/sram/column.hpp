// Transistor-level SRAM column: N 6T cells sharing a differential bitline
// pair with precharge devices, an equaliser and NMOS write drivers — the
// array context the single-cell methodology abstracts away.
//
// Reads here are *real* reads: the bitlines are precharged high, released
// to float, and the addressed cell discharges one of them through its
// pass gate and pull-down; the sensed bit is the sign of V_bl - V_blb at
// sense time and the sense margin is its magnitude. RTN that weakens the
// discharge path directly shrinks the sense margin / read speed — the
// read-failure mechanism of paper ref. [16] in its natural habitat.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/rtn_integration.hpp"
#include "sram/cell.hpp"

namespace samurai::sram {

struct ColumnOp {
  enum class Kind { kWrite, kRead, kNop };
  Kind kind = Kind::kNop;
  std::size_t cell = 0;  ///< addressed cell
  int bit = 0;           ///< written value (writes only)

  static ColumnOp write(std::size_t cell, int bit) {
    return {Kind::kWrite, cell, bit};
  }
  static ColumnOp read(std::size_t cell) { return {Kind::kRead, cell, 0}; }
  static ColumnOp nop() { return {}; }
};

/// Slot timing of every column and array op, shared by build_column,
/// build_array2d and their checkers: one period per op, the precharge,
/// wordline and read-sense instants at fixed fractions of it.
inline constexpr double kSlotPeriod = 1e-9;
inline constexpr double kSlotEdge = 50e-12;
/// Precharge window at the slot start.
inline constexpr double kSlotPrechargeFrac = 0.25;
inline constexpr double kSlotWlOnFrac = 0.32;   ///< WL rises here
inline constexpr double kSlotWlOffFrac = 0.80;  ///< WL falls here
/// Read sense instant: shortly after WL rises, while the differential
/// is still a few hundred mV (sensing a fully railed bitline would hide
/// any RTN-induced discharge slowdown).
inline constexpr double kSlotSenseFrac = 0.40;

/// Periphery widths of the column and the array, × w_min.
inline constexpr double kDriverWidthMult = 6.0;      ///< write-driver NMOS
inline constexpr double kPrechargeWidthMult = 16.0;  ///< precharge PMOS

struct ColumnConfig {
  physics::Technology tech;
  CellSizing sizing;
  std::size_t num_cells = 4;
  double bitline_cap = 120e-15;  ///< per bitline, F (a tall column)
  std::vector<ColumnOp> ops;
  /// Initial stored value per cell (nodeset).
  std::vector<int> initial_bits;
};

struct ColumnBuild {
  std::vector<SramCellHandles> cells;
  std::string bl, blb, vdd;
};

/// Build the column circuit (cells + precharge + drivers + sources) for
/// the given op sequence. Returns the handles needed for probing.
ColumnBuild build_column(spice::Circuit& circuit, const ColumnConfig& config);

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

struct ColumnReport {
  std::vector<ReadOutcome> reads;
  std::vector<WriteOutcome> writes;
  bool any_error = false;       ///< wrong write, wrong sensed bit or disturb
  double min_sense_margin = 0.0;
};

/// Evaluate a finished transient against the op sequence.
ColumnReport check_column(const spice::TransientResult& result,
                          const ColumnConfig& config,
                          const ColumnBuild& build);

/// Transient options matching a build_column circuit: run window from the
/// op count, dt_max from the slot period, and nodesets placing every cell
/// in its initial_bits basin with the bitlines precharged high. Shared by
/// run_column_rtn, the coupled column and the solver benchmarks (which
/// additionally pin TransientOptions::solver per engine).
spice::TransientOptions column_transient_options(const ColumnConfig& config);

/// Name of cell i's devices/nodes prefix inside a column ("c<i>_").
std::string column_cell_prefix(std::size_t index);

/// Activity partition for a built column: every cell never addressed by
/// `config.ops` is quiescent — its six transistors become elidable and
/// its seven private unknowns {q, qb, bl stub, blb stub, vdd stub, wl,
/// Vwl branch} form one fold group whose boundary is the shared
/// bl/blb/vdd rails. kOff returns an empty partition. Device names (not
/// pointers) are stored so one partition serves both passes of
/// run_rtn_transient, which builds a fresh circuit per pass.
spice::ActivityPartition column_activity(spice::Circuit& circuit,
                                         const ColumnConfig& config,
                                         spice::ActivityMode mode,
                                         double tolerance = 0.0);

struct ColumnRtnResult {
  spice::RtnTransientResult rtn;  ///< nominal + injected transients
  ColumnReport nominal_report;
  ColumnReport rtn_report;
};

/// Run the column nominally and with SAMURAI RTN injected into every cell
/// transistor (amplitude-scaled), via the generic two-pass integration.
/// A non-null `activity` runs both passes activity-partitioned.
ColumnRtnResult run_column_rtn(const ColumnConfig& config, std::uint64_t seed,
                               double rtn_scale,
                               const spice::ActivityPartition* activity = nullptr);

}  // namespace samurai::sram
