// R×C array build, op semantics, and the activity-partitioned engine on
// its target workload: quiescent-row cells must elide/fold without
// changing what the selected row does.
#include "sram/array2d.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "util/thread_pool.hpp"

namespace samurai::sram {
namespace {

Array2dConfig small_array() {
  Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 4;
  config.cols = 4;
  // Stored pattern: row r, column c holds (r + c) % 2.
  config.initial_bits.resize(16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      config.initial_bits[r * 4 + c] = static_cast<int>((r + c) % 2);
    }
  }
  config.ops = {ArrayOp::write(1, {1, 0, 0, 1}), ArrayOp::read(1),
                ArrayOp::read(3)};
  return config;
}

spice::TransientResult run_array(const Array2dConfig& config,
                                 spice::ActivityMode activity,
                                 double tolerance = 0.0,
                                 Array2dBuild* build_out = nullptr,
                                 bool fixed_steps = true, bool fold = true) {
  spice::Circuit circuit;
  auto build = build_array2d(circuit, config);
  spice::TransientOptions options = array2d_transient_options(config);
  options.solver = spice::SolverKind::kSparse;
  if (fixed_steps) {
    options.dt_initial = options.dt_max;
    options.lte_reltol = 1e9;
    options.lte_abstol = 1e9;
  }
  options.activity = array2d_activity(circuit, config, activity, tolerance);
  // Without its groups a partition only replays stamps (no fold).
  if (!fold) options.activity.groups.clear();
  if (build_out) *build_out = std::move(build);
  return spice::transient(circuit, options);
}

TEST(Array2d, RejectsDegenerateConfigs) {
  Array2dConfig config = small_array();
  config.ops.clear();
  spice::Circuit c1;
  EXPECT_THROW(build_array2d(c1, config), std::invalid_argument);
  config = small_array();
  config.rows = 0;
  spice::Circuit c2;
  EXPECT_THROW(build_array2d(c2, config), std::invalid_argument);
  config = small_array();
  config.cols = 0;
  spice::Circuit c3;
  EXPECT_THROW(build_array2d(c3, config), std::invalid_argument);
}

TEST(Array2d, RejectsBadOps) {
  // A write word must be exactly one bit per column; ops must address an
  // existing row.
  Array2dConfig config = small_array();
  config.ops = {ArrayOp::write(0, {1, 0})};
  spice::Circuit c1;
  EXPECT_THROW(build_array2d(c1, config), std::invalid_argument);
  config = small_array();
  config.ops = {ArrayOp::read(9)};
  spice::Circuit c2;
  EXPECT_THROW(build_array2d(c2, config), std::invalid_argument);
}

TEST(Array2d, BuildsRowAndColumnRails) {
  spice::Circuit circuit;
  const auto build = build_array2d(circuit, small_array());
  ASSERT_EQ(build.cells.size(), 16u);
  ASSERT_EQ(build.wl.size(), 4u);
  ASSERT_EQ(build.bl.size(), 4u);
  EXPECT_TRUE(circuit.has_node("wl2"));
  EXPECT_TRUE(circuit.has_node("bl3"));
  EXPECT_TRUE(circuit.has_node("blb0"));
  EXPECT_TRUE(circuit.has_node("r2c3_q"));
  EXPECT_NE(circuit.find<spice::Mosfet>("MPC0_1"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("MWD1_3"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("r3c0_M5"), nullptr);
  EXPECT_NE(circuit.find<spice::Resistor>("r1c1_Rwl"), nullptr);
}

TEST(Array2d, RowOpsWriteWordsAndSenseEveryColumn) {
  // The write drives one bit per column on row 1; both reads sense all
  // four columns at once. Everything must land and nothing may disturb.
  const Array2dConfig config = small_array();
  Array2dBuild build;
  const auto result =
      run_array(config, spice::ActivityMode::kOff, 0.0, &build, false);
  const auto report = check_array2d(result, config, build);
  EXPECT_FALSE(report.any_error);
  ASSERT_EQ(report.writes.size(), 4u);
  for (const auto& write : report.writes) EXPECT_TRUE(write.ok);
  ASSERT_EQ(report.reads.size(), 8u);
  // Slot 1 reads back the word written in slot 0; slot 2 reads row 3's
  // initial pattern (3 % 2, 4 % 2, ...).
  const int expected[8] = {1, 0, 0, 1, 1, 0, 1, 0};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.reads[i].sensed, expected[i]) << "read " << i;
    EXPECT_FALSE(report.reads[i].disturbed) << "read " << i;
    EXPECT_GT(report.reads[i].sense_margin, 0.02) << "read " << i;
  }
  ASSERT_EQ(report.column_worst_margin.size(), 4u);
  for (double margin : report.column_worst_margin) {
    EXPECT_GT(margin, 0.02);
    EXPECT_LE(margin, report.min_sense_margin + 1.0);
  }
  EXPECT_EQ(*std::min_element(report.column_worst_margin.begin(),
                              report.column_worst_margin.end()),
            report.min_sense_margin);
}

TEST(Array2d, ActivityPartitionCoversQuiescentRowsOnly) {
  Array2dConfig config = small_array();  // ops address rows 1 and 3
  spice::Circuit circuit;
  build_array2d(circuit, config);
  const auto off = array2d_activity(circuit, config,
                                    spice::ActivityMode::kOff);
  EXPECT_EQ(off.mode, spice::ActivityMode::kOff);
  EXPECT_TRUE(off.quiescent_devices.empty());
  EXPECT_TRUE(off.groups.empty());
  const auto schur = array2d_activity(circuit, config,
                                      spice::ActivityMode::kSchur);
  // Rows 0 and 2 are quiescent: 2 rows × 4 cols × 6 transistors.
  EXPECT_EQ(schur.quiescent_devices.size(), 48u);
  ASSERT_EQ(schur.groups.size(), 8u);  // one fold group per quiescent cell
  for (const auto& group : schur.groups) EXPECT_EQ(group.size(), 6u);

  // Address every row: nothing is quiescent, the partition is empty.
  config.ops.push_back(ArrayOp::read(0));
  config.ops.push_back(ArrayOp::read(2));
  spice::Circuit all_rows;
  build_array2d(all_rows, config);
  const auto none = array2d_activity(all_rows, config,
                                     spice::ActivityMode::kSchur);
  EXPECT_TRUE(none.quiescent_devices.empty());
  EXPECT_TRUE(none.groups.empty());
}

TEST(Array2d, ElideIsBitIdenticalOnFixedGrid) {
  // Same exactness contract as the column: a partition without groups at
  // tolerance 0 on a fixed time grid routes every load through the
  // capture path and must reproduce the unpartitioned sparse run bit for
  // bit.
  const Array2dConfig config = small_array();
  const auto off = run_array(config, spice::ActivityMode::kOff);
  const auto elide = run_array(config, spice::ActivityMode::kSchur, 0.0,
                               nullptr, true, /*fold=*/false);
  ASSERT_EQ(elide.times(), off.times());
  for (const std::string& node : off.node_names()) {
    ASSERT_EQ(elide.voltage_samples(node), off.voltage_samples(node))
        << "node " << node;
  }
  const auto& st = elide.stats();
  EXPECT_EQ(st.device_loads + st.ap_elided_loads, off.stats().device_loads);
  EXPECT_EQ(st.ap_folded_cells, 0u);
  EXPECT_GT(st.ap_partial_refactors, 0u);
}

TEST(Array2d, SchurFoldMatchesUnpartitionedWithinTolerance) {
  const Array2dConfig config = small_array();
  Array2dBuild build;
  const auto off = run_array(config, spice::ActivityMode::kOff, 0.0, &build);
  const auto schur = run_array(config, spice::ActivityMode::kSchur, 1e-6);
  const double t_end = off.times().back();
  // Selected-row storage, a quiescent cell's storage, and shared rails.
  for (const std::string& node :
       {build.cells[1 * 4 + 2].q, build.cells[2 * 4 + 1].q, build.bl[0],
        build.blb[3]}) {
    double max_diff = 0.0;
    for (int i = 0; i <= 200; ++i) {
      const double t = t_end * i / 200.0;
      max_diff = std::max(max_diff, std::abs(off.voltage_at(node, t) -
                                             schur.voltage_at(node, t)));
    }
    EXPECT_LT(max_diff, 2e-4) << "node " << node;
  }
  const auto& st = schur.stats();
  EXPECT_EQ(st.ap_folded_cells, 8u);
  EXPECT_GT(st.ap_elided_loads, 0u);
  EXPECT_LT(st.sp_symbolic_analyses, 5u);

  // The partitioned run must still pass the op-level checks.
  Array2dBuild schur_build;
  spice::Circuit circuit;
  schur_build = build_array2d(circuit, config);
  const auto report = check_array2d(schur, config, schur_build);
  EXPECT_FALSE(report.any_error);
}

void expect_same_transient(const spice::TransientResult& a,
                           const spice::TransientResult& b) {
  ASSERT_EQ(a.times(), b.times());
  ASSERT_EQ(a.node_names(), b.node_names());
  for (const std::string& node : a.node_names()) {
    ASSERT_EQ(a.voltage_samples(node), b.voltage_samples(node))
        << "node " << node;
  }
  for (const auto& counter : spice::kSolverCounters) {
    EXPECT_EQ(a.stats().*counter.field, b.stats().*counter.field)
        << counter.key;
  }
}

TEST(Array2d, SweptRunIsBitIdenticalToSerialRun) {
  // The partitioned engine's device and row sweeps fan out over the
  // shared pool from a plain thread, and run serially inside a pool job.
  // Every value has one writer and the serial floating-point sequence, so
  // both runs must agree bit for bit: perfbench's array_rw at 8x8.
  Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 8;
  config.cols = 8;
  config.initial_bits.resize(64);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      config.initial_bits[r * 8 + c] = static_cast<int>((r + c) % 2);
    }
  }
  std::vector<int> word(8);
  for (std::size_t c = 0; c < 8; ++c) word[c] = static_cast<int>(c % 2);
  config.ops = {ArrayOp::write(0, word), ArrayOp::read(0)};
  spice::Circuit probe;
  (void)build_array2d(probe, config);
  const auto partition =
      array2d_activity(probe, config, spice::ActivityMode::kSchur, 1e-4);

  std::optional<Array2dRtnResult> serial;
  util::parallel_for_indexed(
      2,
      [&](std::size_t i) {
        if (i == 0) serial = run_array2d_rtn(config, 7, 1.0, &partition);
      },
      2);
  const auto swept = run_array2d_rtn(config, 7, 1.0, &partition);
  ASSERT_TRUE(serial.has_value());

  expect_same_transient(serial->rtn.nominal, swept.rtn.nominal);
  expect_same_transient(serial->rtn.with_rtn, swept.rtn.with_rtn);
  EXPECT_GT(swept.rtn.with_rtn.stats().ap_elided_loads, 0u);
  ASSERT_EQ(serial->rtn.traces.size(), swept.rtn.traces.size());
  for (std::size_t k = 0; k < swept.rtn.traces.size(); ++k) {
    const auto& a = serial->rtn.traces[k];
    const auto& b = swept.rtn.traces[k];
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.traps.size(), b.traps.size()) << a.device;
    EXPECT_EQ(a.n_filled.times(), b.n_filled.times()) << a.device;
    EXPECT_EQ(a.n_filled.values(), b.n_filled.values()) << a.device;
    EXPECT_EQ(a.i_rtn.times(), b.i_rtn.times()) << a.device;
    EXPECT_EQ(a.i_rtn.values(), b.i_rtn.values()) << a.device;
    EXPECT_EQ(a.stats.accepted, b.stats.accepted) << a.device;
  }
  EXPECT_EQ(serial->rtn_report.any_error, swept.rtn_report.any_error);
  EXPECT_EQ(serial->rtn_report.column_worst_margin,
            swept.rtn_report.column_worst_margin);
}

TEST(Array2d, RtnRunReportsPhasesAndOutcomes) {
  // Tiny end-to-end run of the two-pass methodology: at amplitude scale 0
  // the injected pass adds zero-valued sources, so both reports must be
  // clean and identical in outcome.
  Array2dConfig config = small_array();
  config.rows = 2;
  config.cols = 2;
  config.initial_bits = {0, 1, 1, 0};
  config.ops = {ArrayOp::write(0, {1, 1}), ArrayOp::read(0)};
  const auto result = run_array2d_rtn(config, 21, 0.0);
  EXPECT_FALSE(result.nominal_report.any_error);
  EXPECT_FALSE(result.rtn_report.any_error);
  ASSERT_EQ(result.rtn.traces.size(), 4u);
  for (const auto& trace : result.rtn.traces) {
    EXPECT_FALSE(trace.device.empty());
  }
  EXPECT_GT(result.rtn.nominal_seconds, 0.0);
  EXPECT_GE(result.rtn.generation_seconds, 0.0);
  EXPECT_GT(result.rtn.injected_seconds, 0.0);
  ASSERT_EQ(result.nominal_report.reads.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(result.rtn_report.reads[i].sensed,
              result.nominal_report.reads[i].sensed);
  }
}

}  // namespace
}  // namespace samurai::sram
