#include "sram/column.hpp"

#include <cmath>
#include <stdexcept>

#include "spice/devices.hpp"
#include "sram/pattern.hpp"

namespace samurai::sram {

std::string column_cell_prefix(std::size_t index) {
  return "c" + std::to_string(index) + "_";
}

namespace {

std::string cell_prefix(std::size_t index) { return column_cell_prefix(index); }

/// Build the control waveforms for the op sequence.
struct ColumnWaves {
  core::Pwl pcb;                 ///< precharge gate (PMOS, active low)
  std::vector<core::Pwl> wl;     ///< one per cell
  core::Pwl wd0;                 ///< write driver pulling BL low
  core::Pwl wd1;                 ///< write driver pulling BLB low
  double t_end = 0.0;
};

ColumnWaves build_waves(const ColumnConfig& config) {
  const double v_dd = config.tech.v_dd;
  ColumnWaves waves;
  waves.t_end = static_cast<double>(config.ops.size()) * kSlotPeriod;
  waves.pcb.append(0.0, 0.0);  // precharging at t = 0
  waves.wd0.append(0.0, 0.0);
  waves.wd1.append(0.0, 0.0);
  waves.wl.assign(config.num_cells, {});
  for (auto& wl : waves.wl) wl.append(0.0, 0.0);

  for (std::size_t k = 0; k < config.ops.size(); ++k) {
    const double start = static_cast<double>(k) * kSlotPeriod;
    const double pre_end = start + kSlotPrechargeFrac * kSlotPeriod;
    const double wl_on = start + kSlotWlOnFrac * kSlotPeriod;
    const double wl_off = start + kSlotWlOffFrac * kSlotPeriod;
    const ColumnOp& op = config.ops[k];

    // Precharge at the start of every slot, released before WL rises.
    drive_to(waves.pcb, start, kSlotEdge, 0.0);
    drive_to(waves.pcb, pre_end, kSlotEdge, v_dd);

    if (op.kind == ColumnOp::Kind::kNop) continue;
    if (op.cell >= config.num_cells) {
      throw std::invalid_argument("build_column: op addresses missing cell");
    }
    drive_to(waves.wl[op.cell], wl_on, kSlotEdge, v_dd);
    drive_to(waves.wl[op.cell], wl_off, kSlotEdge, 0.0);
    if (op.kind == ColumnOp::Kind::kWrite) {
      // Pull the bitline opposite the written value low slightly before
      // WL rises, release after WL falls.
      core::Pwl& driver = op.bit ? waves.wd1 : waves.wd0;
      drive_to(driver, pre_end + kSlotEdge, kSlotEdge, v_dd);
      drive_to(driver, wl_off + 2.0 * kSlotEdge, kSlotEdge, 0.0);
    }
  }
  return waves;
}

}  // namespace

ColumnBuild build_column(spice::Circuit& circuit, const ColumnConfig& config) {
  if (config.ops.empty() || config.num_cells == 0) {
    throw std::invalid_argument("build_column: need cells and ops");
  }
  ColumnBuild build;
  build.bl = "bl";
  build.blb = "blb";
  build.vdd = "vdd";
  const int bl = circuit.node(build.bl);
  const int blb = circuit.node(build.blb);
  const int vdd = circuit.node(build.vdd);
  const double v_dd = config.tech.v_dd;

  spice::VoltageSource::dc(circuit, "Vdd", vdd, spice::kGround, v_dd);
  const auto waves = build_waves(config);

  // Cells; their private bitline stubs tie to the shared rails through
  // small contact resistances.
  for (std::size_t i = 0; i < config.num_cells; ++i) {
    const std::string prefix = cell_prefix(i);
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
  circuit.add<spice::Mosfet>("MPC0", bl, pcb, vdd, vdd,
                             physics::MosDevice(config.tech,
                                                physics::MosType::kPmos,
                                                pre_geom));
  circuit.add<spice::Mosfet>("MPC1", blb, pcb, vdd, vdd,
                             physics::MosDevice(config.tech,
                                                physics::MosType::kPmos,
                                                pre_geom));
  circuit.add<spice::Mosfet>("MEQ", bl, pcb, blb, vdd,
                             physics::MosDevice(config.tech,
                                                physics::MosType::kPmos,
                                                pre_geom));

  // Write drivers: NMOS pull-downs on each bitline.
  const int wd0 = circuit.node("wd0");
  const int wd1 = circuit.node("wd1");
  circuit.add<spice::VoltageSource>(circuit, "Vwd0", wd0, spice::kGround,
                                    waves.wd0);
  circuit.add<spice::VoltageSource>(circuit, "Vwd1", wd1, spice::kGround,
                                    waves.wd1);
  const physics::MosGeometry driver_geom{
      kDriverWidthMult * config.tech.w_min, config.tech.l_min};
  circuit.add<spice::Mosfet>("MWD0", bl, wd0, spice::kGround, spice::kGround,
                             physics::MosDevice(config.tech,
                                                physics::MosType::kNmos,
                                                driver_geom));
  circuit.add<spice::Mosfet>("MWD1", blb, wd1, spice::kGround, spice::kGround,
                             physics::MosDevice(config.tech,
                                                physics::MosType::kNmos,
                                                driver_geom));
  return build;
}

ColumnReport check_column(const spice::TransientResult& result,
                          const ColumnConfig& config,
                          const ColumnBuild& build) {
  ColumnReport report;
  report.min_sense_margin = config.tech.v_dd;
  const double v_dd = config.tech.v_dd;

  std::vector<int> stored = config.initial_bits;
  stored.resize(config.num_cells, 0);

  auto cell_bit_at = [&](std::size_t cell, double t) {
    const double q = result.voltage_at(build.cells[cell].q, t);
    return q > 0.5 * v_dd ? 1 : 0;
  };

  for (std::size_t k = 0; k < config.ops.size(); ++k) {
    const ColumnOp& op = config.ops[k];
    const double slot_end = (static_cast<double>(k) + 0.999) * kSlotPeriod;
    if (op.kind == ColumnOp::Kind::kWrite) {
      WriteOutcome outcome;
      outcome.slot = k;
      outcome.cell = op.cell;
      outcome.bit = op.bit;
      outcome.ok = cell_bit_at(op.cell, slot_end) == op.bit;
      if (!outcome.ok) report.any_error = true;
      stored[op.cell] = outcome.ok ? op.bit : cell_bit_at(op.cell, slot_end);
      report.writes.push_back(outcome);
    } else if (op.kind == ColumnOp::Kind::kRead) {
      ReadOutcome outcome;
      outcome.slot = k;
      outcome.cell = op.cell;
      outcome.expected = stored[op.cell];
      const double t_sense =
          (static_cast<double>(k) + kSlotSenseFrac) * kSlotPeriod;
      const double diff = result.voltage_at(build.bl, t_sense) -
                          result.voltage_at(build.blb, t_sense);
      // Stored 1 -> QB = 0 discharges BLB -> positive differential.
      outcome.sensed = diff > 0.0 ? 1 : 0;
      outcome.sense_margin = std::abs(diff);
      outcome.disturbed = cell_bit_at(op.cell, slot_end) != outcome.expected;
      if (outcome.sensed != outcome.expected || outcome.disturbed) {
        report.any_error = true;
      }
      if (outcome.disturbed) stored[op.cell] = cell_bit_at(op.cell, slot_end);
      report.min_sense_margin =
          std::min(report.min_sense_margin, outcome.sense_margin);
      report.reads.push_back(outcome);
    }
  }
  return report;
}

spice::TransientOptions column_transient_options(const ColumnConfig& config) {
  spice::TransientOptions options;
  options.t_start = 0.0;
  options.t_stop = static_cast<double>(config.ops.size()) * kSlotPeriod;
  options.dt_max = kSlotPeriod / 150.0;
  const double v_dd = config.tech.v_dd;
  options.dc.nodeset["bl"] = v_dd;
  options.dc.nodeset["blb"] = v_dd;
  options.dc.nodeset["vdd"] = v_dd;
  for (std::size_t i = 0; i < config.num_cells; ++i) {
    const int bit =
        i < config.initial_bits.size() ? config.initial_bits[i] : 0;
    options.dc.nodeset[cell_prefix(i) + "q"] = bit ? v_dd : 0.0;
    options.dc.nodeset[cell_prefix(i) + "qb"] = bit ? 0.0 : v_dd;
    options.dc.nodeset[cell_prefix(i) + "vdd"] = v_dd;
  }
  return options;
}

spice::ActivityPartition column_activity(spice::Circuit& circuit,
                                         const ColumnConfig& config,
                                         spice::ActivityMode mode,
                                         double tolerance) {
  spice::ActivityPartition partition;
  partition.mode = mode;
  partition.tolerance = tolerance;
  if (mode == spice::ActivityMode::kOff) return partition;

  std::vector<bool> addressed(config.num_cells, false);
  for (const auto& op : config.ops) {
    if (op.kind != ColumnOp::Kind::kNop && op.cell < config.num_cells) {
      addressed[op.cell] = true;
    }
  }
  for (std::size_t i = 0; i < config.num_cells; ++i) {
    if (addressed[i]) continue;
    const std::string prefix = cell_prefix(i);
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

ColumnRtnResult run_column_rtn(const ColumnConfig& config, std::uint64_t seed,
                               double rtn_scale,
                               const spice::ActivityPartition* activity) {
  spice::TransientOptions options = column_transient_options(config);
  if (activity != nullptr) options.activity = *activity;

  // One RTN request per cell transistor, each with its own stream.
  std::vector<spice::RtnRequest> requests;
  for (std::size_t i = 0; i < config.num_cells; ++i) {
    for (int m = 1; m <= 6; ++m) {
      spice::RtnRequest request;
      request.device = cell_prefix(i) + "M" + std::to_string(m);
      request.scale = rtn_scale;
      request.seed = seed + 1000 * i + static_cast<std::uint64_t>(m);
      requests.push_back(std::move(request));
    }
  }

  ColumnRtnResult result;
  ColumnBuild build;  // node names, identical for both factory calls
  result.rtn = spice::run_rtn_transient(
      [&] {
        auto circuit = std::make_unique<spice::Circuit>();
        build = build_column(*circuit, config);
        return circuit;
      },
      options, requests);
  result.nominal_report = check_column(result.rtn.nominal, config, build);
  result.rtn_report = check_column(result.rtn.with_rtn, config, build);
  return result;
}

}  // namespace samurai::sram
