// Dense-vs-sparse solver equivalence and sparse-engine contracts.
//
// The sparse CSR/stamp-program path must be a pure acceleration: on the
// same circuit and options it has to reproduce the dense engine's
// waveforms within Newton tolerance with the *same* accepted-step
// sequence, reuse its symbolic factorization across iterations, steps and
// re-attaches, and pick itself automatically only above the size
// threshold. Thread-parallel runs must be bit-identical per engine
// (registered under the concurrency label).
#include "spice/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "spice/devices.hpp"
#include "sram/array2d.hpp"
#include "sram/coupled.hpp"
#include "sram/methodology.hpp"

namespace samurai {
namespace {

sram::MethodologyConfig cell_config(spice::SolverKind solver) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("65nm");
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 0, 1});
  config.transient.solver = solver;
  return config;
}

sram::Array2dConfig column_config(std::size_t cells) {
  sram::Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = cells;
  config.cols = 1;
  config.initial_bits.assign(cells, 0);
  config.initial_bits[cells - 1] = 1;
  config.ops = {sram::ArrayOp::write(0, {1}), sram::ArrayOp::read(0),
                sram::ArrayOp::read(cells - 1)};
  return config;
}

spice::TransientResult run_column(const sram::Array2dConfig& config,
                                  spice::SolverKind solver,
                                  sram::Array2dBuild* build_out = nullptr,
                                  bool fixed_steps = false,
                                  spice::ActivityMode activity =
                                      spice::ActivityMode::kOff,
                                  double activity_tol = 0.0,
                                  bool fold = true) {
  spice::Circuit circuit;
  auto build = sram::build_column(circuit, config);
  spice::TransientOptions options = sram::column_transient_options(config);
  options.solver = solver;
  if (fixed_steps) {
    // Disable LTE control: every step lands on dt_max. Both engines then
    // walk the exact same time grid regardless of last-bit roundoff in
    // their solutions, which is how the benchmarks guarantee the two
    // timed runs do identical work.
    options.dt_initial = options.dt_max;
    options.lte_reltol = 1e9;
    options.lte_abstol = 1e9;
  }
  options.activity =
      sram::column_activity(circuit, config, activity, activity_tol);
  // Without its groups a partition only replays stamps: no fold, the
  // unpartitioned elimination order.
  if (!fold) options.activity.groups.clear();
  if (build_out) *build_out = std::move(build);
  return spice::transient(circuit, options);
}

double max_waveform_diff(const spice::TransientResult& a,
                         const spice::TransientResult& b,
                         const std::string& node, double t_end) {
  double max_diff = 0.0;
  for (int i = 0; i <= 300; ++i) {
    const double t = t_end * i / 300.0;
    max_diff =
        std::max(max_diff, std::abs(a.voltage_at(node, t) - b.voltage_at(node, t)));
  }
  return max_diff;
}

TEST(SparseSolver, SixTWriteMatchesDense) {
  // The cell sits far below the auto threshold, so both runs pin their
  // engine explicitly. Same circuit, same options: waveforms must agree
  // within Newton tolerance on both storage nodes.
  const auto dense = sram::run_nominal(cell_config(spice::SolverKind::kDense));
  const auto sparse =
      sram::run_nominal(cell_config(spice::SolverKind::kSparse));
  EXPECT_EQ(dense.result.stats().sp_solves, 0u);
  EXPECT_GT(sparse.result.stats().sp_solves, 0u);
  EXPECT_EQ(sparse.result.stats().sp_solves,
            sparse.result.stats().lu_solves);
  EXPECT_EQ(sparse.result.stats().sp_symbolic_analyses +
                sparse.result.stats().sp_numeric_refactors,
            sparse.result.stats().lu_factorizations);
  for (const std::string& node : {dense.handles.q, dense.handles.qb}) {
    EXPECT_LT(max_waveform_diff(dense.result, sparse.result, node,
                                dense.pattern.t_end),
              2e-4)
        << "node " << node;
  }
}

TEST(SparseSolver, CoupledCellMatchesDense) {
  // The coupled run advances trap chains from the instantaneous solution
  // after every accepted step. With the injection scaled to zero the trap
  // streams cannot feed back, so both engines must produce the same
  // waveforms while still exercising the callback-source + on_step path.
  auto make = [](spice::SolverKind solver) {
    sram::MethodologyConfig config = cell_config(solver);
    config.rtn_scale = 0.0;
    config.profile.fixed_count = 2;
    config.seed = 11;
    return sram::run_coupled(config);
  };
  const auto dense = make(spice::SolverKind::kDense);
  const auto sparse = make(spice::SolverKind::kSparse);
  const double t_end = dense.pattern.t_end;
  for (const std::string& node : {dense.q_node, dense.qb_node}) {
    EXPECT_LT(max_waveform_diff(dense.transient, sparse.transient, node, t_end),
              2e-4)
        << "node " << node;
  }
  EXPECT_EQ(dense.report.any_error, sparse.report.any_error);
  EXPECT_EQ(dense.report.any_slow, sparse.report.any_slow);
}

TEST(SparseSolver, ColumnMatchesDenseWithSameStepSequence) {
  const sram::Array2dConfig config = column_config(8);
  sram::Array2dBuild build;
  const auto dense = run_column(config, spice::SolverKind::kDense, &build);
  const auto sparse = run_column(config, spice::SolverKind::kSparse);
  // Adaptive LTE control may diverge by a few accept decisions (the
  // engines agree only to Newton tolerance, and the controller thresholds
  // on that noise), so the step counts must be close but need not match.
  const auto lo = std::min(dense.num_points(), sparse.num_points());
  const auto hi = std::max(dense.num_points(), sparse.num_points());
  EXPECT_LT(hi - lo, lo / 50 + 2);
  EXPECT_GT(sparse.stats().sp_solves, 0u);
  EXPECT_EQ(dense.stats().sp_solves, 0u);
  const double t_end =
      static_cast<double>(config.ops.size()) * sram::kSlotPeriod;
  for (const std::string& node :
       {build.bl[0], build.blb[0], build.cells[0].q, build.cells[7].q}) {
    EXPECT_LT(max_waveform_diff(dense, sparse, node, t_end), 2e-4)
        << "node " << node;
  }
  // Identical op outcomes.
  const auto dense_report = sram::check_array2d(dense, config, build);
  const auto sparse_report = sram::check_array2d(sparse, config, build);
  EXPECT_EQ(dense_report.any_error, sparse_report.any_error);
  ASSERT_EQ(dense_report.reads.size(), sparse_report.reads.size());
  for (std::size_t i = 0; i < dense_report.reads.size(); ++i) {
    EXPECT_EQ(dense_report.reads[i].sensed, sparse_report.reads[i].sensed);
    EXPECT_NEAR(dense_report.reads[i].sense_margin,
                sparse_report.reads[i].sense_margin, 2e-4);
  }
}

TEST(SparseSolver, FixedStepColumnHasIdenticalStepSequence) {
  // With LTE control disabled both engines must accept exactly the same
  // time points — the contract the timed benchmark comparison relies on
  // so that a speedup never hides a different amount of work.
  const sram::Array2dConfig config = column_config(8);
  sram::Array2dBuild build;
  const auto dense = run_column(config, spice::SolverKind::kDense, &build,
                                /*fixed_steps=*/true);
  const auto sparse = run_column(config, spice::SolverKind::kSparse, nullptr,
                                 /*fixed_steps=*/true);
  ASSERT_EQ(dense.num_points(), sparse.num_points());
  EXPECT_EQ(dense.times(), sparse.times());
  EXPECT_EQ(dense.stats().steps_rejected, sparse.stats().steps_rejected);
  const double t_end =
      static_cast<double>(config.ops.size()) * sram::kSlotPeriod;
  for (const std::string& node : {build.bl[0], build.cells[0].q}) {
    EXPECT_LT(max_waveform_diff(dense, sparse, node, t_end), 2e-4)
        << "node " << node;
  }
}

TEST(SparseSolver, AutoThresholdPicksBySystemSize) {
  // 6T cell: ~a dozen unknowns, dense. 8-cell column: 7N + 10 > 50,
  // sparse. kAuto is the default everywhere, so these two assertions pin
  // the crossover users actually get.
  const auto cell = sram::run_nominal(cell_config(spice::SolverKind::kAuto));
  EXPECT_EQ(cell.result.stats().sp_solves, 0u);
  const auto column = run_column(column_config(8), spice::SolverKind::kAuto);
  EXPECT_GT(column.stats().sp_solves, 0u);
  EXPECT_EQ(column.stats().sp_solves, column.stats().lu_solves);
}

TEST(SparseSolver, SymbolicAnalysisIsReusedAcrossStepsAndPasses) {
  // Within one transient the analysis happens once (numeric refactors do
  // the rest), and run_column_rtn's injected pass shares the workspace —
  // identical pattern, so pass 2 must not re-analyse or re-allocate.
  const auto result = sram::run_column_rtn(column_config(8), 3, 0.0);
  const auto& nominal = result.rtn.nominal.stats();
  const auto& injected = result.rtn.with_rtn.stats();
  EXPECT_GT(nominal.sp_solves, 0u);
  EXPECT_GE(nominal.sp_symbolic_analyses, 1u);
  // Rare numeric fallbacks may re-analyse, but refactors must dominate.
  EXPECT_LT(nominal.sp_symbolic_analyses * 10, nominal.sp_numeric_refactors);
  EXPECT_EQ(nominal.workspace_allocations, 1u);
  EXPECT_EQ(injected.sp_symbolic_analyses, 0u);
  EXPECT_GT(injected.sp_numeric_refactors, 0u);
  EXPECT_EQ(injected.workspace_allocations, 0u);
}

TEST(SparseSolver, CoupledColumnRunsOnSparseEngine) {
  // The coupled column couples every cell's live traps through one MNA
  // system; above the threshold it must land on the sparse engine and
  // still pass its own op sequence at zero injection scale.
  sram::Array2dConfig config = column_config(8);
  physics::TrapProfileOptions profile;
  profile.fixed_count = 1;
  const auto result = sram::run_coupled_column(config, 5, 0.0, profile);
  EXPECT_GT(result.transient.stats().sp_solves, 0u);
  EXPECT_EQ(result.num_traps, 6u * 8u);
  EXPECT_FALSE(result.report.any_error);
}

TEST(SparseSolver, ThreadedColumnRunsAreBitIdentical) {
  // Eight concurrent column transients per engine against a
  // single-threaded reference: every voltage sample must be *bit*
  // identical — the engines keep all mutable state inside the workspace,
  // so concurrency must never change a result.
  const sram::Array2dConfig config = column_config(8);
  for (const auto solver :
       {spice::SolverKind::kDense, spice::SolverKind::kSparse}) {
    sram::Array2dBuild build;
    const auto reference = run_column(config, solver, &build);
    constexpr int kThreads = 8;
    std::vector<spice::TransientResult> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { results[static_cast<std::size_t>(i)] = run_column(config, solver); });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& result : results) {
      ASSERT_EQ(result.times(), reference.times());
      for (const std::string& node : {build.bl[0], build.cells[3].q}) {
        ASSERT_EQ(result.voltage_samples(node),
                  reference.voltage_samples(node))
            << "solver " << static_cast<int>(solver) << " node " << node;
      }
    }
  }
}

TEST(SparseSolver, ActivityElideIsBitIdenticalOnFixedGrid) {
  // Stamp replay at tolerance 0 on a fixed time grid is *exact*: the
  // captured slot/residual values are added per row in the order the
  // device loads would have added them, and a partition without groups
  // keeps the unpartitioned elimination order, so every voltage sample
  // must match the unpartitioned sparse run bit for bit.
  const sram::Array2dConfig config = column_config(8);
  const auto off =
      run_column(config, spice::SolverKind::kSparse, nullptr, true);
  sram::Array2dBuild build;
  const auto elide =
      run_column(config, spice::SolverKind::kSparse, &build, true,
                 spice::ActivityMode::kSchur, 0.0, /*fold=*/false);
  ASSERT_EQ(elide.times(), off.times());
  for (const std::string& node : off.node_names()) {
    ASSERT_EQ(elide.voltage_samples(node), off.voltage_samples(node))
        << "node " << node;
  }
  const auto& off_st = off.stats();
  const auto& el_st = elide.stats();
  EXPECT_EQ(el_st.newton_iterations, off_st.newton_iterations);
  // At tolerance 0 a replay needs every input voltage bitwise unchanged,
  // which a Newton update never leaves behind — so the partitioned path
  // runs every load through the capture machinery and the accounting
  // identity holds trivially. The exactness being tested is that the
  // device sweep's captures, gathered by the row sweep, produce the same
  // bits as the direct stamps.
  EXPECT_EQ(el_st.device_loads + el_st.ap_elided_loads, off_st.device_loads);
  EXPECT_EQ(off_st.ap_elided_loads, 0u);
  EXPECT_EQ(el_st.ap_folded_cells, 0u);
  // Quiescent rows sit at the bottom of the fill-reducing permutation, so
  // most refactors only resweep the active suffix.
  EXPECT_GT(el_st.ap_partial_refactors, 0u);
  EXPECT_GT(el_st.ap_rows_skipped, 0u);
}

TEST(SparseSolver, ActivityElideToleranceBoundsError) {
  // With a nonzero tolerance quiescent devices replay cached stamps while
  // their inputs stay inside the tolerance ball, so a large fraction of
  // the evaluations is elided and the waveform error stays on the order
  // of the tolerance (far inside the dense-vs-sparse bound).
  const sram::Array2dConfig config = column_config(8);
  sram::Array2dBuild build;
  const auto off =
      run_column(config, spice::SolverKind::kSparse, &build, true);
  const auto elide =
      run_column(config, spice::SolverKind::kSparse, nullptr, true,
                 spice::ActivityMode::kSchur, 1e-6, /*fold=*/false);
  const double t_end = off.times().back();
  for (const std::string& node :
       {build.bl[0], build.blb[0], build.cells[3].q, build.cells[0].q}) {
    EXPECT_LT(max_waveform_diff(off, elide, node, t_end), 1e-4)
        << "node " << node;
  }
  const auto& st = elide.stats();
  EXPECT_GT(st.ap_elided_loads, 0u);
  // Quiescent cells dominate this workload (6 of 8 rows are never
  // addressed), so elision has to remove a meaningful share of the work,
  // not a token amount.
  EXPECT_GT(st.ap_elided_loads * 5, st.device_loads);
  EXPECT_GT(st.ap_partial_refactors, 0u);
}

TEST(SparseSolver, ActivitySchurMatchesUnpartitioned) {
  // The Schur fold changes the elimination order (quiescent-cell
  // interiors first), which is a different—but still exact—LU of the same
  // Jacobian. Waveforms must agree with the unpartitioned sparse run
  // within the same tolerance the dense-vs-sparse tests use.
  const sram::Array2dConfig config = column_config(8);
  sram::Array2dBuild build;
  const auto off =
      run_column(config, spice::SolverKind::kSparse, &build, true);
  const auto schur = run_column(config, spice::SolverKind::kSparse, nullptr,
                                true, spice::ActivityMode::kSchur, 1e-6);
  ASSERT_EQ(schur.times().size(), off.times().size());
  const double t_end = off.times().back();
  // Shared rails plus one quiescent cell's storage node: the fold must
  // not disturb either side of its boundary.
  for (const std::string& node :
       {build.bl[0], build.blb[0], build.cells[3].q, build.cells[0].q}) {
    EXPECT_LT(max_waveform_diff(off, schur, node, t_end), 2e-4)
        << "node " << node;
  }
  const auto& st = schur.stats();
  EXPECT_GT(st.ap_folded_cells, 0u);
  EXPECT_GT(st.ap_elided_loads, 0u);
  // The fold is part of the symbolic analysis; steady stepping must keep
  // reusing it rather than re-analyzing.
  EXPECT_LT(st.sp_symbolic_analyses, 5u);
}

}  // namespace
}  // namespace samurai
