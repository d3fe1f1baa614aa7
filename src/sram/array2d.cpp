#include "sram/array2d.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "spice/devices.hpp"
#include "sram/pattern.hpp"

namespace samurai::sram {

std::string array_cell_prefix(std::size_t row, std::size_t col) {
  return "r" + std::to_string(row) + "c" + std::to_string(col) + "_";
}

std::string column_cell_prefix(std::size_t index) {
  return "c" + std::to_string(index) + "_";
}

namespace {

/// Slot timing within each kSlotPeriod, shared by both builders and
/// check_array2d: control-waveform edge time and instants as fractions.
constexpr double kSlotEdge = 50e-12;
/// Precharge window at the slot start.
constexpr double kSlotPrechargeFrac = 0.25;
constexpr double kSlotWlOnFrac = 0.32;   ///< WL rises here
constexpr double kSlotWlOffFrac = 0.80;  ///< WL falls here
/// Read sense instant: shortly after WL rises, while the differential
/// is still a few hundred mV (sensing a fully railed bitline would hide
/// any RTN-induced discharge slowdown).
constexpr double kSlotSenseFrac = 0.40;

/// Periphery widths of the column and the array, × w_min.
constexpr double kDriverWidthMult = 6.0;      ///< write-driver NMOS
constexpr double kPrechargeWidthMult = 16.0;  ///< precharge PMOS

/// Control waveforms for the op sequence: WL per row (a column's per
/// cell) and write drivers per column.
struct ArrayWaves {
  core::Pwl pcb;                  ///< shared precharge gate (active low)
  std::vector<core::Pwl> wl;      ///< one per row
  std::vector<core::Pwl> wd0;     ///< per column, pulls BL low
  std::vector<core::Pwl> wd1;     ///< per column, pulls BLB low
};

ArrayWaves build_waves(const Array2dConfig& config) {
  const double v_dd = config.tech.v_dd;
  ArrayWaves waves;
  waves.pcb.append(0.0, 0.0);  // precharging at t = 0
  waves.wl.assign(config.rows, {});
  for (auto& wl : waves.wl) wl.append(0.0, 0.0);
  waves.wd0.assign(config.cols, {});
  waves.wd1.assign(config.cols, {});
  for (auto& wd : waves.wd0) wd.append(0.0, 0.0);
  for (auto& wd : waves.wd1) wd.append(0.0, 0.0);

  for (std::size_t k = 0; k < config.ops.size(); ++k) {
    const double start = static_cast<double>(k) * kSlotPeriod;
    const double pre_end = start + kSlotPrechargeFrac * kSlotPeriod;
    const double wl_on = start + kSlotWlOnFrac * kSlotPeriod;
    const double wl_off = start + kSlotWlOffFrac * kSlotPeriod;
    const ArrayOp& op = config.ops[k];

    drive_to(waves.pcb, start, kSlotEdge, 0.0);
    drive_to(waves.pcb, pre_end, kSlotEdge, v_dd);

    if (op.kind == ArrayOp::Kind::kNop) continue;
    if (op.row >= config.rows) {
      throw std::invalid_argument("build_array2d: op addresses missing row");
    }
    drive_to(waves.wl[op.row], wl_on, kSlotEdge, v_dd);
    drive_to(waves.wl[op.row], wl_off, kSlotEdge, 0.0);
    if (op.kind == ArrayOp::Kind::kWrite) {
      if (op.bits.size() != config.cols) {
        throw std::invalid_argument(
            "build_array2d: write word width != cols");
      }
      for (std::size_t c = 0; c < config.cols; ++c) {
        core::Pwl& driver = op.bits[c] ? waves.wd1[c] : waves.wd0[c];
        drive_to(driver, pre_end + kSlotEdge, kSlotEdge, v_dd);
        drive_to(driver, wl_off + 2.0 * kSlotEdge, kSlotEdge, 0.0);
      }
    }
  }
  return waves;
}

int initial_bit(const Array2dConfig& config, std::size_t row,
                std::size_t col) {
  const std::size_t flat = row * config.cols + col;
  return flat < config.initial_bits.size() ? config.initial_bits[flat] : 0;
}

}  // namespace

Array2dBuild build_array2d(spice::Circuit& circuit,
                           const Array2dConfig& config) {
  if (config.ops.empty() || config.rows == 0 || config.cols == 0) {
    throw std::invalid_argument("build_array2d: need rows, cols and ops");
  }
  Array2dBuild build;
  build.vdd = "vdd";
  const int vdd = circuit.node(build.vdd);
  const double v_dd = config.tech.v_dd;
  spice::VoltageSource::dc(circuit, "Vdd", vdd, spice::kGround, v_dd);
  const auto waves = build_waves(config);

  // Wordline rails, one per row.
  std::vector<int> wl_rail(config.rows);
  for (std::size_t r = 0; r < config.rows; ++r) {
    build.wl.push_back("wl" + std::to_string(r));
    wl_rail[r] = circuit.node(build.wl.back());
    circuit.add<spice::VoltageSource>(circuit, "Vwl" + std::to_string(r),
                                      wl_rail[r], spice::kGround,
                                      waves.wl[r]);
  }

  // Column rails + periphery.
  const int pcb = circuit.node("pcb");
  circuit.add<spice::VoltageSource>(circuit, "Vpcb", pcb, spice::kGround,
                                    waves.pcb);
  const physics::MosGeometry pre_geom{
      kPrechargeWidthMult * config.tech.w_min, config.tech.l_min};
  const physics::MosGeometry driver_geom{
      kDriverWidthMult * config.tech.w_min, config.tech.l_min};
  std::vector<int> bl_rail(config.cols), blb_rail(config.cols);
  for (std::size_t c = 0; c < config.cols; ++c) {
    const std::string suffix = std::to_string(c);
    build.bl.push_back("bl" + suffix);
    build.blb.push_back("blb" + suffix);
    const int bl = circuit.node(build.bl.back());
    const int blb = circuit.node(build.blb.back());
    bl_rail[c] = bl;
    blb_rail[c] = blb;
    circuit.add<spice::Capacitor>("Cbl" + suffix, bl, spice::kGround,
                                  config.bitline_cap);
    circuit.add<spice::Capacitor>("Cblb" + suffix, blb, spice::kGround,
                                  config.bitline_cap);
    circuit.add<spice::Mosfet>(
        "MPC0_" + suffix, bl, pcb, vdd, vdd,
        physics::MosDevice(config.tech, physics::MosType::kPmos, pre_geom));
    circuit.add<spice::Mosfet>(
        "MPC1_" + suffix, blb, pcb, vdd, vdd,
        physics::MosDevice(config.tech, physics::MosType::kPmos, pre_geom));
    circuit.add<spice::Mosfet>(
        "MEQ_" + suffix, bl, pcb, blb, vdd,
        physics::MosDevice(config.tech, physics::MosType::kPmos, pre_geom));
    const int wd0 = circuit.node("wd0_" + suffix);
    const int wd1 = circuit.node("wd1_" + suffix);
    circuit.add<spice::VoltageSource>(circuit, "Vwd0_" + suffix, wd0,
                                      spice::kGround, waves.wd0[c]);
    circuit.add<spice::VoltageSource>(circuit, "Vwd1_" + suffix, wd1,
                                      spice::kGround, waves.wd1[c]);
    circuit.add<spice::Mosfet>(
        "MWD0_" + suffix, bl, wd0, spice::kGround, spice::kGround,
        physics::MosDevice(config.tech, physics::MosType::kNmos, driver_geom));
    circuit.add<spice::Mosfet>(
        "MWD1_" + suffix, blb, wd1, spice::kGround, spice::kGround,
        physics::MosDevice(config.tech, physics::MosType::kNmos, driver_geom));
  }

  // Cells: private stubs tie each cell to its column/row/supply rails
  // through small contact resistances (the WL stub keeps every cell
  // unknown private, which is what lets the Schur fold condense a
  // quiescent cell onto the rails).
  for (std::size_t r = 0; r < config.rows; ++r) {
    for (std::size_t c = 0; c < config.cols; ++c) {
      const std::string prefix = array_cell_prefix(r, c);
      auto handles =
          build_6t_cell(circuit, config.tech, config.sizing, prefix);
      circuit.add<spice::Resistor>(prefix + "Rbl",
                                   circuit.find_node(handles.bl), bl_rail[c],
                                   20.0);
      circuit.add<spice::Resistor>(prefix + "Rblb",
                                   circuit.find_node(handles.blb),
                                   blb_rail[c], 20.0);
      circuit.add<spice::Resistor>(prefix + "Rvdd",
                                   circuit.find_node(handles.vdd), vdd, 2.0);
      circuit.add<spice::Resistor>(prefix + "Rwl",
                                   circuit.find_node(handles.wl), wl_rail[r],
                                   10.0);
      build.cells.push_back(std::move(handles));
    }
  }
  return build;
}

Array2dBuild build_column(spice::Circuit& circuit, const Array2dConfig& config) {
  if (config.cols != 1) {
    throw std::invalid_argument("build_column: a column has cols == 1");
  }
  if (config.ops.empty() || config.rows == 0) {
    throw std::invalid_argument("build_column: need cells and ops");
  }
  Array2dBuild build;
  build.bl = {"bl"};
  build.blb = {"blb"};
  build.vdd = "vdd";
  const int bl = circuit.node(build.bl[0]);
  const int blb = circuit.node(build.blb[0]);
  const int vdd = circuit.node(build.vdd);
  const double v_dd = config.tech.v_dd;

  spice::VoltageSource::dc(circuit, "Vdd", vdd, spice::kGround, v_dd);
  const auto waves = build_waves(config);

  // Cells; their private bitline stubs tie to the shared rails through
  // small contact resistances, and each word line has its own source.
  for (std::size_t i = 0; i < config.rows; ++i) {
    const std::string prefix = column_cell_prefix(i);
    auto handles = build_6t_cell(circuit, config.tech, config.sizing, prefix);
    circuit.add<spice::Resistor>(prefix + "Rbl", circuit.find_node(handles.bl),
                                 bl, 20.0);
    circuit.add<spice::Resistor>(prefix + "Rblb",
                                 circuit.find_node(handles.blb), blb, 20.0);
    circuit.add<spice::Resistor>(prefix + "Rvdd",
                                 circuit.find_node(handles.vdd), vdd, 2.0);
    circuit.add<spice::VoltageSource>(circuit, prefix + "Vwl",
                                      circuit.find_node(handles.wl),
                                      spice::kGround, waves.wl[i]);
    build.wl.push_back(handles.wl);
    build.cells.push_back(std::move(handles));
  }

  // Bitline capacitances (the load that makes reads a discharge race).
  circuit.add<spice::Capacitor>("Cbl", bl, spice::kGround, config.bitline_cap);
  circuit.add<spice::Capacitor>("Cblb", blb, spice::kGround,
                                config.bitline_cap);

  // Precharge PMOS pair + equaliser, gate pcb (active low).
  const int pcb = circuit.node("pcb");
  circuit.add<spice::VoltageSource>(circuit, "Vpcb", pcb, spice::kGround,
                                    waves.pcb);
  const physics::MosGeometry pre_geom{
      kPrechargeWidthMult * config.tech.w_min, config.tech.l_min};
  circuit.add<spice::Mosfet>(
      "MPC0", bl, pcb, vdd, vdd,
      physics::MosDevice(config.tech, physics::MosType::kPmos, pre_geom));
  circuit.add<spice::Mosfet>(
      "MPC1", blb, pcb, vdd, vdd,
      physics::MosDevice(config.tech, physics::MosType::kPmos, pre_geom));
  circuit.add<spice::Mosfet>(
      "MEQ", bl, pcb, blb, vdd,
      physics::MosDevice(config.tech, physics::MosType::kPmos, pre_geom));

  // Write drivers: NMOS pull-downs on each bitline.
  const int wd0 = circuit.node("wd0");
  const int wd1 = circuit.node("wd1");
  circuit.add<spice::VoltageSource>(circuit, "Vwd0", wd0, spice::kGround,
                                    waves.wd0[0]);
  circuit.add<spice::VoltageSource>(circuit, "Vwd1", wd1, spice::kGround,
                                    waves.wd1[0]);
  const physics::MosGeometry driver_geom{
      kDriverWidthMult * config.tech.w_min, config.tech.l_min};
  circuit.add<spice::Mosfet>(
      "MWD0", bl, wd0, spice::kGround, spice::kGround,
      physics::MosDevice(config.tech, physics::MosType::kNmos, driver_geom));
  circuit.add<spice::Mosfet>(
      "MWD1", blb, wd1, spice::kGround, spice::kGround,
      physics::MosDevice(config.tech, physics::MosType::kNmos, driver_geom));
  return build;
}

Array2dReport check_array2d(const spice::TransientResult& result,
                            const Array2dConfig& config,
                            const Array2dBuild& build) {
  Array2dReport report;
  const double v_dd = config.tech.v_dd;
  report.min_sense_margin = v_dd;
  report.column_worst_margin.assign(config.cols, v_dd);

  std::vector<int> stored(config.rows * config.cols);
  for (std::size_t r = 0; r < config.rows; ++r) {
    for (std::size_t c = 0; c < config.cols; ++c) {
      stored[r * config.cols + c] = initial_bit(config, r, c);
    }
  }

  auto cell_bit_at = [&](std::size_t flat, double t) {
    const double q = result.voltage_at(build.cells[flat].q, t);
    return q > 0.5 * v_dd ? 1 : 0;
  };

  for (std::size_t k = 0; k < config.ops.size(); ++k) {
    const ArrayOp& op = config.ops[k];
    const double slot_end = (static_cast<double>(k) + 0.999) * kSlotPeriod;
    if (op.kind == ArrayOp::Kind::kWrite) {
      for (std::size_t c = 0; c < config.cols; ++c) {
        const std::size_t flat = op.row * config.cols + c;
        WriteOutcome outcome;
        outcome.slot = k;
        outcome.cell = flat;
        outcome.bit = op.bits[c];
        outcome.ok = cell_bit_at(flat, slot_end) == op.bits[c];
        if (!outcome.ok) report.any_error = true;
        stored[flat] = outcome.ok ? op.bits[c] : cell_bit_at(flat, slot_end);
        report.writes.push_back(outcome);
      }
    } else if (op.kind == ArrayOp::Kind::kRead) {
      const double t_sense =
          (static_cast<double>(k) + kSlotSenseFrac) * kSlotPeriod;
      for (std::size_t c = 0; c < config.cols; ++c) {
        const std::size_t flat = op.row * config.cols + c;
        ReadOutcome outcome;
        outcome.slot = k;
        outcome.cell = flat;
        outcome.expected = stored[flat];
        const double diff = result.voltage_at(build.bl[c], t_sense) -
                            result.voltage_at(build.blb[c], t_sense);
        outcome.sensed = diff > 0.0 ? 1 : 0;
        outcome.sense_margin = std::abs(diff);
        outcome.disturbed = cell_bit_at(flat, slot_end) != outcome.expected;
        if (outcome.sensed != outcome.expected || outcome.disturbed) {
          report.any_error = true;
        }
        if (outcome.disturbed) stored[flat] = cell_bit_at(flat, slot_end);
        report.min_sense_margin =
            std::min(report.min_sense_margin, outcome.sense_margin);
        report.column_worst_margin[c] =
            std::min(report.column_worst_margin[c], outcome.sense_margin);
        report.reads.push_back(outcome);
      }
    }
  }
  return report;
}

spice::TransientOptions array2d_transient_options(
    const Array2dConfig& config) {
  spice::TransientOptions options;
  options.t_start = 0.0;
  options.t_stop = static_cast<double>(config.ops.size()) * kSlotPeriod;
  options.dt_max = kSlotPeriod / 150.0;
  const double v_dd = config.tech.v_dd;
  options.dc.nodeset["vdd"] = v_dd;
  for (std::size_t c = 0; c < config.cols; ++c) {
    options.dc.nodeset["bl" + std::to_string(c)] = v_dd;
    options.dc.nodeset["blb" + std::to_string(c)] = v_dd;
  }
  for (std::size_t r = 0; r < config.rows; ++r) {
    for (std::size_t c = 0; c < config.cols; ++c) {
      const std::string prefix = array_cell_prefix(r, c);
      const int bit = initial_bit(config, r, c);
      options.dc.nodeset[prefix + "q"] = bit ? v_dd : 0.0;
      options.dc.nodeset[prefix + "qb"] = bit ? 0.0 : v_dd;
      options.dc.nodeset[prefix + "vdd"] = v_dd;
    }
  }
  return options;
}

spice::TransientOptions column_transient_options(const Array2dConfig& config) {
  spice::TransientOptions options;
  options.t_start = 0.0;
  options.t_stop = static_cast<double>(config.ops.size()) * kSlotPeriod;
  options.dt_max = kSlotPeriod / 150.0;
  const double v_dd = config.tech.v_dd;
  options.dc.nodeset["bl"] = v_dd;
  options.dc.nodeset["blb"] = v_dd;
  options.dc.nodeset["vdd"] = v_dd;
  for (std::size_t i = 0; i < config.rows; ++i) {
    const std::string prefix = column_cell_prefix(i);
    const int bit = initial_bit(config, i, 0);
    options.dc.nodeset[prefix + "q"] = bit ? v_dd : 0.0;
    options.dc.nodeset[prefix + "qb"] = bit ? 0.0 : v_dd;
    options.dc.nodeset[prefix + "vdd"] = v_dd;
  }
  return options;
}

spice::ActivityPartition array2d_activity(spice::Circuit& circuit,
                                          const Array2dConfig& config,
                                          spice::ActivityMode mode,
                                          double tolerance) {
  spice::ActivityPartition partition;
  partition.mode = mode;
  partition.tolerance = tolerance;
  if (mode == spice::ActivityMode::kOff) return partition;

  std::vector<bool> addressed(config.rows, false);
  for (const auto& op : config.ops) {
    if (op.kind != ArrayOp::Kind::kNop && op.row < config.rows) {
      addressed[op.row] = true;
    }
  }
  for (std::size_t r = 0; r < config.rows; ++r) {
    if (addressed[r]) continue;
    for (std::size_t c = 0; c < config.cols; ++c) {
      const std::string prefix = array_cell_prefix(r, c);
      for (int m = 1; m <= 6; ++m) {
        partition.quiescent_devices.push_back(prefix + "M" +
                                              std::to_string(m));
      }
      partition.groups.push_back({circuit.find_node(prefix + "q"),
                                  circuit.find_node(prefix + "qb"),
                                  circuit.find_node(prefix + "bl"),
                                  circuit.find_node(prefix + "blb"),
                                  circuit.find_node(prefix + "vdd"),
                                  circuit.find_node(prefix + "wl")});
    }
  }
  return partition;
}

spice::ActivityPartition column_activity(spice::Circuit& circuit,
                                         const Array2dConfig& config,
                                         spice::ActivityMode mode,
                                         double tolerance) {
  spice::ActivityPartition partition;
  partition.mode = mode;
  partition.tolerance = tolerance;
  if (mode == spice::ActivityMode::kOff) return partition;

  std::vector<bool> addressed(config.rows, false);
  for (const auto& op : config.ops) {
    if (op.kind != ArrayOp::Kind::kNop && op.row < config.rows) {
      addressed[op.row] = true;
    }
  }
  for (std::size_t i = 0; i < config.rows; ++i) {
    if (addressed[i]) continue;
    const std::string prefix = column_cell_prefix(i);
    for (int m = 1; m <= 6; ++m) {
      partition.quiescent_devices.push_back(prefix + "M" + std::to_string(m));
    }
    auto* vwl = circuit.find<spice::VoltageSource>(prefix + "Vwl");
    if (vwl == nullptr) {
      throw std::invalid_argument("column_activity: circuit is not a "
                                  "build_column circuit (missing " +
                                  prefix + "Vwl)");
    }
    partition.groups.push_back({circuit.find_node(prefix + "q"),
                                circuit.find_node(prefix + "qb"),
                                circuit.find_node(prefix + "bl"),
                                circuit.find_node(prefix + "blb"),
                                circuit.find_node(prefix + "vdd"),
                                circuit.find_node(prefix + "wl"),
                                vwl->branch_index()});
  }
  return partition;
}

namespace {

/// Both run_rtn_transient passes on circuits from `build`, each judged by
/// check_array2d.
Array2dRtnResult run_checked(
    const Array2dConfig& config, const spice::TransientOptions& options,
    const std::vector<spice::RtnRequest>& requests,
    Array2dBuild (*build)(spice::Circuit&, const Array2dConfig&)) {
  Array2dRtnResult result;
  Array2dBuild names;  // node names, identical for both factory calls
  result.rtn = spice::run_rtn_transient(
      [&] {
        auto circuit = std::make_unique<spice::Circuit>();
        names = build(*circuit, config);
        return circuit;
      },
      options, requests);
  result.nominal_report = check_array2d(result.rtn.nominal, config, names);
  result.rtn_report = check_array2d(result.rtn.with_rtn, config, names);
  return result;
}

}  // namespace

Array2dRtnResult run_array2d_rtn(const Array2dConfig& config,
                                 std::uint64_t seed, double rtn_scale,
                                 const spice::ActivityPartition* activity) {
  spice::TransientOptions options = array2d_transient_options(config);
  if (activity != nullptr) options.activity = *activity;
  // Both passes run the adaptive loop from dt_initial = dt_max with the
  // LTE test disabled (tolerances 1e9): a step clipped at a breakpoint
  // regrows to dt_max over the next steps and a Newton failure quarters
  // the step. With LTE control on, every trap transition in any of the
  // R*C injected sources forces a global step refinement, so the injected
  // cost would scale with the total transition count instead of the array
  // size (a 16x16 array already takes ~10x the nominal step count).
  // Without it both passes place their steps at the same control-waveform
  // breakpoints unless Newton fails — differences in the outcome are
  // attributable to RTN alone — and each trap current is sampled at the
  // step resolution the sense checks use.
  options.dt_initial = options.dt_max;
  options.lte_reltol = 1e9;
  options.lte_abstol = 1e9;

  // One RTN stream per cell, on the M5 pull-down (the paper's
  // read-margin-critical device), seeded by the flat cell index.
  std::vector<spice::RtnRequest> requests(config.rows * config.cols);
  for (std::size_t flat = 0; flat < requests.size(); ++flat) {
    requests[flat].device =
        array_cell_prefix(flat / config.cols, flat % config.cols) + "M5";
    requests[flat].scale = rtn_scale;
    requests[flat].seed = seed + 1000 * flat + 5;
  }
  return run_checked(config, options, requests, build_array2d);
}

Array2dRtnResult run_column_rtn(const Array2dConfig& config,
                                std::uint64_t seed, double rtn_scale,
                                const spice::ActivityPartition* activity) {
  spice::TransientOptions options = column_transient_options(config);
  if (activity != nullptr) options.activity = *activity;

  // One RTN request per cell transistor, each with its own stream.
  std::vector<spice::RtnRequest> requests;
  for (std::size_t i = 0; i < config.rows; ++i) {
    for (int m = 1; m <= 6; ++m) {
      spice::RtnRequest request;
      request.device = column_cell_prefix(i) + "M" + std::to_string(m);
      request.scale = rtn_scale;
      request.seed = seed + 1000 * i + static_cast<std::uint64_t>(m);
      requests.push_back(std::move(request));
    }
  }
  return run_checked(config, options, requests, build_column);
}

}  // namespace samurai::sram
