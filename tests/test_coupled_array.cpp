// Tests for the future-work extensions: bi-directionally coupled
// simulation (ext. 1) and array Monte-Carlo statistics (ext. 3).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sram/array.hpp"
#include "sram/coupled.hpp"

namespace samurai::sram {
namespace {

MethodologyConfig tiny_config() {
  MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.ops = ops_from_bits({1, 0});
  config.seed = 3;
  return config;
}

/// FNV-1a over the bit patterns of everything added.
class BitHash {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (double value : values) add(value);
  }
  void add(const std::string& text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (char c : text) add(static_cast<std::uint64_t>(c));
  }
  void add(const spice::TransientResult& result) {
    add(result.times());
    for (const auto& node : result.node_names()) {
      add(node);
      add(result.voltage_samples(node));
    }
    for (const auto& counter : spice::kSolverCounters) {
      add(result.stats().*counter.field);
    }
  }
  void add(const std::vector<physics::Trap>& traps) {
    add(static_cast<std::uint64_t>(traps.size()));
    for (const auto& trap : traps) {
      add(trap.y_tr);
      add(trap.e_tr);
      add(static_cast<std::uint64_t>(trap.init_state));
    }
  }
  void add(const core::StepTrace& trace) {
    add(trace.initial_value());
    add(trace.times());
    add(trace.values());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t coupled_hash(const CoupledResult& result) {
  BitHash hash;
  hash.add(result.transient);
  for (std::size_t i = 0; i < result.transistor_names.size(); ++i) {
    hash.add(result.transistor_names[i]);
    hash.add(result.traps[i]);
    hash.add(result.n_filled[i]);
  }
  for (const auto& op : result.report.ops) {
    hash.add(static_cast<std::uint64_t>(op.outcome));
    hash.add(op.q_at_slot_end);
  }
  return hash.value();
}

TEST(Coupled, GoldenHashes) {
  // Every transient time and sample, the solver counters, the traps and
  // the occupancy traces of two coupled cells and a coupled 2-cell
  // column, pinned bit for bit: a refactor of the coupled engine must
  // leave every one of them where it was.
  MethodologyConfig config = tiny_config();
  config.rtn_scale = 30.0;
  config.seed = 3;
  EXPECT_EQ(coupled_hash(run_coupled(config)), 0x827fe68ed8ed6286ULL);
  config.seed = 11;
  EXPECT_EQ(coupled_hash(run_coupled(config)), 0xa84a62767aec5c14ULL);

  ColumnConfig column;
  column.tech = physics::technology("90nm");
  column.num_cells = 2;
  column.initial_bits = {0, 1};
  column.ops = {ColumnOp::write(0, 1), ColumnOp::read(0), ColumnOp::read(1)};
  const auto result = run_coupled_column(column, 5, 30.0);
  BitHash hash;
  hash.add(result.transient);
  hash.add(static_cast<std::uint64_t>(result.num_traps));
  hash.add(result.switch_events);
  for (const auto& read : result.report.reads) {
    hash.add(static_cast<std::uint64_t>(read.sensed));
    hash.add(read.sense_margin);
  }
  EXPECT_EQ(hash.value(), 0x9aeafd459b006630ULL);
}

TEST(Coupled, DrawsTheStagedRunsTraps) {
  // One MethodologyConfig, run staged and coupled: both schemes list
  // their requests from the same cell helper, so each transistor carries
  // the same trap population.
  MethodologyConfig config = tiny_config();
  config.seed = 17;
  const auto staged = run_methodology(config);
  const auto coupled = run_coupled(config);
  ASSERT_EQ(staged.rtn.size(), coupled.traps.size());
  for (std::size_t i = 0; i < staged.rtn.size(); ++i) {
    EXPECT_EQ(staged.rtn[i].name, coupled.transistor_names[i]);
    ASSERT_EQ(staged.rtn[i].traps.size(), coupled.traps[i].size());
    for (std::size_t k = 0; k < coupled.traps[i].size(); ++k) {
      EXPECT_EQ(staged.rtn[i].traps[k].y_tr, coupled.traps[i][k].y_tr);
      EXPECT_EQ(staged.rtn[i].traps[k].e_tr, coupled.traps[i][k].e_tr);
      EXPECT_EQ(staged.rtn[i].traps[k].init_state,
                coupled.traps[i][k].init_state);
    }
  }
}

TEST(Coupled, InjectsOnlyTheRtnDevicesSubset) {
  // A subset naming no cell transistor injects nothing: q(t) must equal
  // a zero-amplitude run's sample for sample, while the traps are still
  // drawn and advanced.
  MethodologyConfig config = tiny_config();
  config.rtn_scale = 30.0;
  config.rtn_devices = {"M9"};
  const auto subset = run_coupled(config);
  config.rtn_devices.clear();
  config.rtn_scale = 0.0;
  const auto silent = run_coupled(config);
  ASSERT_EQ(subset.transient.times(), silent.transient.times());
  const auto& q = subset.transient.voltage_samples(subset.q_node);
  const auto& q_silent = silent.transient.voltage_samples(silent.q_node);
  ASSERT_EQ(q.size(), q_silent.size());
  for (std::size_t k = 0; k < q.size(); ++k) EXPECT_EQ(q[k], q_silent[k]);
  ASSERT_EQ(subset.traps.size(), silent.traps.size());
  for (std::size_t i = 0; i < subset.traps.size(); ++i) {
    EXPECT_EQ(subset.traps[i].size(), silent.traps[i].size());
    EXPECT_EQ(subset.n_filled[i].times(), silent.n_filled[i].times());
  }
}

TEST(Coupled, RunsAndWritesSucceed) {
  const auto result = run_coupled(tiny_config());
  EXPECT_FALSE(result.report.any_error);
  ASSERT_EQ(result.transistor_names.size(), 6u);
  ASSERT_EQ(result.n_filled.size(), 6u);
  ASSERT_EQ(result.traps.size(), 6u);
  EXPECT_GT(result.transient.num_points(), 100u);
}

TEST(Coupled, OccupancyBoundedByTrapCount) {
  const auto result = run_coupled(tiny_config());
  for (std::size_t i = 0; i < result.n_filled.size(); ++i) {
    const double cap = static_cast<double>(result.traps[i].size());
    for (double v : result.n_filled[i].values()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, cap);
    }
  }
}

TEST(Coupled, DeterministicGivenSeed) {
  const auto a = run_coupled(tiny_config());
  const auto b = run_coupled(tiny_config());
  ASSERT_EQ(a.n_filled.size(), b.n_filled.size());
  for (std::size_t i = 0; i < a.n_filled.size(); ++i) {
    EXPECT_EQ(a.traps[i].size(), b.traps[i].size());
  }
  EXPECT_EQ(a.report.any_error, b.report.any_error);
}

TEST(Coupled, TrapActivityFollowsBias) {
  // Like the staged methodology, the coupled run's pull-down trap
  // activity must track the stored value; here just check some switching
  // occurred on at least one transistor (the cell carries ~600 traps).
  const auto result = run_coupled(tiny_config());
  std::size_t total_switches = 0;
  for (const auto& trace : result.n_filled) total_switches += trace.num_steps();
  EXPECT_GT(total_switches, 10u);
}

TEST(Array, CountsAreConsistent) {
  ArrayConfig config;
  config.cell = tiny_config();
  config.num_cells = 6;
  config.sigma_vt = 0.01;
  config.seed = 5;
  const auto result = run_array(config);
  ASSERT_EQ(result.cells.size(), 6u);
  EXPECT_LE(result.rtn_only_errors, result.rtn_errors);
  EXPECT_LE(result.nominal_errors, result.cells.size());
  std::size_t recount = 0;
  for (const auto& cell : result.cells) {
    if (cell.rtn_error) ++recount;
    EXPECT_GT(cell.total_traps, 100u);  // ~600 traps per 90nm cell
  }
  EXPECT_EQ(recount, result.rtn_errors);
}

TEST(Array, DeterministicGivenSeed) {
  ArrayConfig config;
  config.cell = tiny_config();
  config.num_cells = 3;
  config.seed = 9;
  const auto a = run_array(config);
  const auto b = run_array(config);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].total_traps, b.cells[i].total_traps);
    EXPECT_EQ(a.cells[i].rtn_error, b.cells[i].rtn_error);
  }
}

TEST(Array, ParallelRunIsBitIdenticalToSerial) {
  ArrayConfig config;
  config.cell = tiny_config();
  config.num_cells = 6;
  config.sigma_vt = 0.02;
  config.seed = 12;
  config.threads = 1;
  const auto serial = run_array(config);
  config.threads = 4;
  const auto parallel = run_array(config);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].total_traps, parallel.cells[i].total_traps);
    EXPECT_EQ(serial.cells[i].rtn_switches, parallel.cells[i].rtn_switches);
    EXPECT_EQ(serial.cells[i].rtn_error, parallel.cells[i].rtn_error);
    EXPECT_EQ(serial.cells[i].rtn_slow, parallel.cells[i].rtn_slow);
  }
  EXPECT_EQ(serial.rtn_errors, parallel.rtn_errors);
  EXPECT_EQ(serial.rtn_rescued, parallel.rtn_rescued);
}

TEST(Array, ParallelRunIsIdenticalAcrossThreadCounts) {
  ArrayConfig config;
  config.cell = tiny_config();
  config.num_cells = 8;
  config.sigma_vt = 0.02;
  config.seed = 21;
  config.threads = 1;
  const auto serial = run_array(config);
  for (std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const auto parallel = run_array(config);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      EXPECT_EQ(serial.cells[i].total_traps, parallel.cells[i].total_traps);
      EXPECT_EQ(serial.cells[i].rtn_switches, parallel.cells[i].rtn_switches);
      EXPECT_EQ(serial.cells[i].rtn_error, parallel.cells[i].rtn_error);
      EXPECT_EQ(serial.cells[i].nominal_error, parallel.cells[i].nominal_error);
      EXPECT_EQ(serial.cells[i].rtn_slow, parallel.cells[i].rtn_slow);
    }
    EXPECT_EQ(serial.nominal_errors, parallel.nominal_errors);
    EXPECT_EQ(serial.rtn_errors, parallel.rtn_errors);
    EXPECT_EQ(serial.rtn_only_errors, parallel.rtn_only_errors);
    EXPECT_EQ(serial.rtn_rescued, parallel.rtn_rescued);
    EXPECT_EQ(serial.slow_cells, parallel.slow_cells);
  }
}

TEST(Array, WorkerExceptionSurfacesOnCallingThread) {
  // Regression: a uniformisation budget tripped inside a worker thread
  // used to escape the thread and call std::terminate. The executor must
  // capture it and rethrow on the caller for every thread count.
  ArrayConfig config;
  config.cell = tiny_config();
  config.cell.uniformisation.max_candidates = 1;  // trips on any real trap
  config.num_cells = 4;
  config.seed = 5;
  config.threads = 4;
  EXPECT_THROW(run_array(config), std::runtime_error);
  config.threads = 1;
  EXPECT_THROW(run_array(config), std::runtime_error);
}

TEST(Array, CellsDifferFromEachOther) {
  ArrayConfig config;
  config.cell = tiny_config();
  config.num_cells = 4;
  config.seed = 10;
  const auto result = run_array(config);
  bool trap_counts_differ = false;
  for (std::size_t i = 1; i < result.cells.size(); ++i) {
    if (result.cells[i].total_traps != result.cells[0].total_traps) {
      trap_counts_differ = true;
    }
  }
  EXPECT_TRUE(trap_counts_differ);
}

TEST(Array, BrokenCellIsDetectedThroughThePipeline) {
  // Deterministic sanity check that cell failures feed through the
  // detector: a pass-gate V_T pushed above the wordline swing cannot
  // conduct, so no write ever lands.
  MethodologyConfig config = tiny_config();
  config.vth_shifts["M1"] = 1.5;
  config.vth_shifts["M2"] = 1.5;
  const auto result = run_methodology(config);
  EXPECT_TRUE(result.nominal_report.any_error);
}

}  // namespace
}  // namespace samurai::sram
