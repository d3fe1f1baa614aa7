#include "sram/array2d.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "bit_hash.hpp"

namespace samurai::sram {
namespace {

Array2dConfig small_column() {
  Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 2;
  config.cols = 1;
  config.initial_bits = {0, 1};
  config.ops = {ArrayOp::write(0, {1}), ArrayOp::read(0), ArrayOp::read(1)};
  return config;
}

TEST(Column, RejectsEmptyConfigs) {
  spice::Circuit circuit;
  Array2dConfig config = small_column();
  config.ops.clear();
  EXPECT_THROW(build_column(circuit, config), std::invalid_argument);
  config = small_column();
  config.rows = 0;
  spice::Circuit circuit2;
  EXPECT_THROW(build_column(circuit2, config), std::invalid_argument);
}

TEST(Column, BuildRejectsMoreThanOneColumn) {
  // A column is an N×1 array: a wider config is an array's, and
  // build_column refuses it before adding a device.
  Array2dConfig config = small_column();
  config.cols = 2;
  config.ops = {ArrayOp::read(0)};
  spice::Circuit circuit;
  EXPECT_THROW(build_column(circuit, config), std::invalid_argument);
  EXPECT_TRUE(circuit.devices().empty());
  config.cols = 0;
  EXPECT_THROW(build_column(circuit, config), std::invalid_argument);
}

TEST(Column, OpAddressingMissingCellThrows) {
  spice::Circuit circuit;
  Array2dConfig config = small_column();
  config.ops.push_back(ArrayOp::read(7));
  EXPECT_THROW(build_column(circuit, config), std::invalid_argument);
}

TEST(Column, BuildsSharedRailsAndPerCellWordlines) {
  spice::Circuit circuit;
  const auto build = build_column(circuit, small_column());
  ASSERT_EQ(build.cells.size(), 2u);
  EXPECT_EQ(build.bl, std::vector<std::string>{"bl"});
  EXPECT_EQ(build.blb, std::vector<std::string>{"blb"});
  EXPECT_EQ(build.wl, (std::vector<std::string>{"c0_wl", "c1_wl"}));
  EXPECT_TRUE(circuit.has_node("bl"));
  EXPECT_TRUE(circuit.has_node("blb"));
  EXPECT_TRUE(circuit.has_node("c0_q"));
  EXPECT_TRUE(circuit.has_node("c1_q"));
  EXPECT_NE(circuit.find<spice::VoltageSource>("c1_Vwl"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("MPC0"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("MWD1"), nullptr);
  EXPECT_NE(circuit.find<spice::Mosfet>("c1_M5"), nullptr);
}

TEST(Column, NominalOpsAllSucceed) {
  const auto result = run_column_rtn(small_column(), 3, 0.0);
  EXPECT_FALSE(result.nominal_report.any_error);
  ASSERT_EQ(result.nominal_report.writes.size(), 1u);
  EXPECT_TRUE(result.nominal_report.writes[0].ok);
  ASSERT_EQ(result.nominal_report.reads.size(), 2u);
  EXPECT_EQ(result.nominal_report.reads[0].sensed, 1);
  EXPECT_EQ(result.nominal_report.reads[1].sensed, 1);
  EXPECT_FALSE(result.nominal_report.reads[0].disturbed);
}

TEST(Column, ReadsSenseBothPolarities) {
  Array2dConfig config = small_column();
  config.ops = {ArrayOp::read(0), ArrayOp::read(1)};  // stored 0 and 1
  const auto result = run_column_rtn(config, 4, 0.0);
  ASSERT_EQ(result.nominal_report.reads.size(), 2u);
  EXPECT_EQ(result.nominal_report.reads[0].sensed, 0);
  EXPECT_EQ(result.nominal_report.reads[1].sensed, 1);
  EXPECT_GT(result.nominal_report.min_sense_margin, 0.02);
}

TEST(Column, SenseMarginIsPartialDischarge) {
  // Sensing happens before the bitline rails: margin well below V_dd.
  const auto result = run_column_rtn(small_column(), 5, 0.0);
  for (const auto& read : result.nominal_report.reads) {
    EXPECT_GT(read.sense_margin, 0.02);
    EXPECT_LT(read.sense_margin, 0.5 * 1.2);
  }
}

TEST(Column, RtnShrinksOrPerturbsSenseMargins) {
  Array2dConfig config = small_column();
  const auto clean = run_column_rtn(config, 6, 0.0);
  const auto noisy = run_column_rtn(config, 6, 120.0);
  ASSERT_EQ(clean.rtn_report.reads.size(), noisy.rtn_report.reads.size());
  double max_change = 0.0;
  for (std::size_t i = 0; i < clean.rtn_report.reads.size(); ++i) {
    max_change = std::max(max_change,
                          std::abs(clean.rtn_report.reads[i].sense_margin -
                                   noisy.rtn_report.reads[i].sense_margin));
  }
  EXPECT_GT(max_change, 1e-3);  // visibly perturbed at x120
}

TEST(Column, NopSlotsLeaveCellsAlone) {
  Array2dConfig config = small_column();
  config.ops = {ArrayOp::nop(), ArrayOp::nop(), ArrayOp::read(1)};
  const auto result = run_column_rtn(config, 7, 0.0);
  EXPECT_FALSE(result.nominal_report.any_error);
  EXPECT_EQ(result.nominal_report.reads[0].expected, 1);
}

TEST(Column, WriteOverwritesOppositeValue) {
  Array2dConfig config = small_column();
  config.initial_bits = {1, 0};
  config.ops = {ArrayOp::write(0, {0}), ArrayOp::read(0),
                ArrayOp::write(1, {1}), ArrayOp::read(1)};
  const auto result = run_column_rtn(config, 8, 0.0);
  EXPECT_FALSE(result.nominal_report.any_error);
  EXPECT_EQ(result.nominal_report.reads[0].sensed, 0);
  EXPECT_EQ(result.nominal_report.reads[1].sensed, 1);
}

TEST(Column, DeterministicGivenSeed) {
  const auto a = run_column_rtn(small_column(), 11, 30.0);
  const auto b = run_column_rtn(small_column(), 11, 30.0);
  ASSERT_EQ(a.rtn.traces.size(), b.rtn.traces.size());
  for (std::size_t i = 0; i < a.rtn.traces.size(); ++i) {
    EXPECT_EQ(a.rtn.traces[i].stats.accepted, b.rtn.traces[i].stats.accepted);
  }
  EXPECT_NEAR(a.rtn_report.min_sense_margin, b.rtn_report.min_sense_margin,
              1e-12);
}

void add_report(BitHash& hash, const Array2dReport& report) {
  for (const auto& read : report.reads) {
    hash.add(static_cast<std::uint64_t>(read.slot));
    hash.add(static_cast<std::uint64_t>(read.cell));
    hash.add(static_cast<std::uint64_t>(read.expected));
    hash.add(static_cast<std::uint64_t>(read.sensed));
    hash.add(read.sense_margin);
    hash.add(static_cast<std::uint64_t>(read.disturbed));
  }
  for (const auto& write : report.writes) {
    hash.add(static_cast<std::uint64_t>(write.slot));
    hash.add(static_cast<std::uint64_t>(write.cell));
    hash.add(static_cast<std::uint64_t>(write.bit));
    hash.add(static_cast<std::uint64_t>(write.ok));
  }
  hash.add(static_cast<std::uint64_t>(report.any_error));
  hash.add(report.min_sense_margin);
}

std::uint64_t column_hash(const Array2dRtnResult& result) {
  BitHash hash;
  hash.add(result.rtn.nominal);
  hash.add(result.rtn.with_rtn);
  for (const auto& trace : result.rtn.traces) {
    hash.add(trace.device);
    hash.add(trace.traps);
    hash.add(trace.n_filled);
    hash.add(trace.i_rtn);
  }
  add_report(hash, result.nominal_report);
  add_report(hash, result.rtn_report);
  return hash.value();
}

TEST(Column, GoldenHashes) {
  // Both transients (times, samples, solver counters), every trace's
  // traps, occupancy and injected current, and both reports of a 4-cell
  // column with a nop slot and both write polarities, unpartitioned and
  // Schur-partitioned, at RTN scales 0 and 30, pinned bit for bit: the
  // column's wiring, control waveforms and checker must leave every one
  // of them where it was.
  Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 4;
  config.cols = 1;
  config.initial_bits = {0, 1, 1, 0};
  config.ops = {ArrayOp::write(0, {1}), ArrayOp::read(0), ArrayOp::nop(),
                ArrayOp::write(2, {0}), ArrayOp::read(2)};
  spice::Circuit probe;
  (void)build_column(probe, config);
  const auto partition =
      column_activity(probe, config, spice::ActivityMode::kSchur, 1e-4);
  ASSERT_EQ(partition.groups.size(), 2u);  // cells 1 and 3 are quiescent
  EXPECT_EQ(partition.groups[0].size(), 7u);

  EXPECT_EQ(column_hash(run_column_rtn(config, 21, 0.0)),
            0x6080916710bcfc9aULL);
  EXPECT_EQ(column_hash(run_column_rtn(config, 21, 0.0, &partition)),
            0xaebf27632b3b8a97ULL);
  EXPECT_EQ(column_hash(run_column_rtn(config, 21, 30.0)),
            0xcc6f166deae7602dULL);
  EXPECT_EQ(column_hash(run_column_rtn(config, 21, 30.0, &partition)),
            0x32522d1a2dd01337ULL);
}

}  // namespace
}  // namespace samurai::sram
