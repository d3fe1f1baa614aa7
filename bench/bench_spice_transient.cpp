// Transient hot-path microbenchmark: the 6T write transient and the
// bi-directionally coupled cell, each run twice — once on the fast path
// (workspace reuse + linear-stamp cache + modified-Newton LU bypass) and
// once with every cache disabled (force-refactorize reference). The two
// paths agree within Newton tolerance (asserted by the fast-path regression
// test); the wall-clock ratio is the speedup the fast path buys. The
// coupled pair additionally gates on the solver ledger: the fast path must
// bank factorization savings without paying extra Newton iterations — the
// deterministic form of "the LU bypass must not lose on this workload".
//
// A second section scales the workload: the N-cell shared-bitline column
// (N in {8, 32, 64}) timed on the dense and the sparse MNA engine over a
// fixed step grid (LTE control disabled), so both engines do provably
// identical work — the accepted-point counts are asserted equal — and the
// ratio isolates the linear solver. Dense factorization is O(n^3) in the
// n = 7N + 10 unknowns while the sparse path tracks the near-constant
// per-row fill of the column topology, so the ratio must grow with N; the
// bench fails if the 64-cell column is not at least 3x faster sparse.
//
// Emits one machine-readable JSON line (scripted against
// BENCH_spice_transient.json).
//
// `--quick` shrinks the repetition counts and column sizes for use as a
// smoke test under `ctest -L perf`; `--reps N` overrides the
// write-transient repetitions.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "sram/array2d.hpp"
#include "sram/column.hpp"
#include "sram/coupled.hpp"
#include "sram/methodology.hpp"
#include "util/cli.hpp"

using namespace samurai;

namespace {

sram::MethodologyConfig base_config(bool fast) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("65nm");
  config.sizing.extra_node_cap = 40e-15;
  config.timing.period = 1e-9;
  config.ops = sram::ops_from_bits({1, 0, 1});
  // The reference path re-stamps every device and refactors on every
  // Newton iteration, in the transient and in its initial DC solve alike.
  config.transient.newton.reuse_lu = fast;
  config.transient.newton.cache_linear_stamps = fast;
  config.transient.dc.newton.reuse_lu = fast;
  config.transient.dc.newton.cache_linear_stamps = fast;
  return config;
}

struct ModeReport {
  double ms_per_run = 0.0;        ///< best-of-batches mean wall per run
  std::size_t points = 0;         ///< solution points of one run
  spice::SolverStats stats;       ///< solver counters of one run
  std::uint64_t realloc_after_first = 0;  ///< workspace allocs past run 1
};

double now_delta_ms(std::chrono::steady_clock::time_point start, int reps) {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return wall / reps * 1e3;
}

/// 6T write transient via run_nominal, sharing one Newton workspace across
/// all repetitions (the intended steady-state usage pattern).
ModeReport bench_write6t(bool fast, int reps, int batches) {
  const auto config = base_config(fast);
  spice::NewtonWorkspace workspace;
  ModeReport report;

  // Instrumented first run: per-run counters + the one expected allocation.
  {
    const auto run = sram::run_nominal(config, workspace);
    report.stats = run.result.stats();
    report.points = run.result.num_points();
  }
  // Steady state: every further repetition must reuse the buffers.
  const auto steady_before = spice::solver_stats_snapshot();
  (void)sram::run_nominal(config, workspace);  // warmup
  report.ms_per_run = 1e300;
  for (int b = 0; b < batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) (void)sram::run_nominal(config, workspace);
    report.ms_per_run = std::min(report.ms_per_run, now_delta_ms(start, reps));
  }
  report.realloc_after_first =
      spice::solver_stats_snapshot().since(steady_before).workspace_allocations;
  return report;
}

/// Coupled cell (per-step trap-chain advance through on_step callbacks),
/// fast path and force-refactorize reference measured with interleaved
/// batches: the two sides of the gated speedup ratio see the same clock
/// drift, so the ratio reflects the engine and not the machine's mood
/// between two separate measurement blocks.
void bench_coupled_pair(int reps, int batches, ModeReport& fast,
                        ModeReport& slow) {
  auto fast_config = base_config(true);
  auto slow_config = base_config(false);
  fast_config.rtn_scale = slow_config.rtn_scale = 30.0;
  {
    const auto run = sram::run_coupled(fast_config);
    fast.stats = run.transient.stats();
    fast.points = run.transient.num_points();
  }
  {
    const auto run = sram::run_coupled(slow_config);
    slow.stats = run.transient.stats();
    slow.points = run.transient.num_points();
  }
  fast.ms_per_run = slow.ms_per_run = 1e300;
  // Alternate which side runs first: a fixed order hands the second side a
  // systematically warmer machine, which on a ~4% ratio is the whole gate.
  for (int b = 0; b < batches; ++b) {
    const bool fast_first = (b % 2) == 0;
    for (int half = 0; half < 2; ++half) {
      const bool timing_fast = fast_first == (half == 0);
      const auto& config = timing_fast ? fast_config : slow_config;
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) (void)sram::run_coupled(config);
      auto& best = timing_fast ? fast.ms_per_run : slow.ms_per_run;
      best = std::min(best, now_delta_ms(start, reps));
    }
  }
}

/// K-lane batched 6T write campaign step: the same cell with per-lane
/// threshold spreads, marched through one lock-step fixed-grid transient
/// per call. ms_per_lane is the per-sample cost a batched campaign pays,
/// directly comparable with bench_write6t's adaptive ms_per_run.
struct BatchReport {
  std::size_t lanes = 0;
  double ms_per_lane = 0.0;
  std::size_t points = 0;
  spice::SolverStats stats;  ///< lane-0 delta of the instrumented call
};

BatchReport bench_write6t_batched(std::size_t lanes, int reps, int batches) {
  std::vector<sram::MethodologyConfig> configs(lanes, base_config(true));
  for (std::size_t k = 0; k < lanes; ++k) {
    for (int m = 1; m <= 6; ++m) {
      // Deterministic +-10 mV spread: distinct operating points per lane
      // without flipping any write verdict.
      const auto h = static_cast<double>((k * 7 + static_cast<std::size_t>(m) * 3) % 11);
      configs[k].vth_shifts["M" + std::to_string(m)] = (h - 5.0) * 2e-3;
    }
  }
  spice::BatchWorkspace workspace;
  BatchReport report;
  report.lanes = lanes;
  {
    const auto run = sram::run_nominal_batch(configs, workspace);
    report.stats = run.results[0].stats();
    report.points = run.results[0].num_points();
  }
  report.ms_per_lane = 1e300;
  for (int b = 0; b < batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      (void)sram::run_nominal_batch(configs, workspace);
    }
    report.ms_per_lane = std::min(
        report.ms_per_lane,
        now_delta_ms(start, reps * static_cast<int>(lanes)));
  }
  return report;
}

sram::ColumnConfig column_config(std::size_t cells) {
  sram::ColumnConfig config;
  config.tech = physics::technology("90nm");
  config.num_cells = cells;
  config.initial_bits.assign(cells, 0);
  config.ops = {sram::ColumnOp::write(0, 1), sram::ColumnOp::read(0),
                sram::ColumnOp::read(cells - 1)};
  return config;
}

/// N-cell column on one pinned engine over a fixed step grid. Rebuilds the
/// circuit per repetition (matching the other benches) but shares the
/// workspace, so the sparse engine's symbolic analysis is amortised the
/// way campaign repetitions amortise it.
ModeReport bench_column(std::size_t cells, spice::SolverKind solver, int reps,
                        int batches) {
  const sram::ColumnConfig config = column_config(cells);
  spice::NewtonWorkspace workspace;

  auto run_once = [&] {
    spice::Circuit circuit;
    (void)sram::build_column(circuit, config);
    spice::TransientOptions options = sram::column_transient_options(config);
    options.solver = solver;
    // Fixed grid: identical accepted-point counts on both engines, so the
    // wall-clock ratio compares equal work (asserted in main).
    options.dt_initial = options.dt_max;
    options.lte_reltol = 1e9;
    options.lte_abstol = 1e9;
    return spice::transient(circuit, options, workspace);
  };

  ModeReport report;
  {
    const auto first = run_once();  // instrumented run + warmup
    report.stats = first.stats();
    report.points = first.num_points();
  }
  report.ms_per_run = 1e300;
  for (int b = 0; b < batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) (void)run_once();
    report.ms_per_run = std::min(report.ms_per_run, now_delta_ms(start, reps));
  }
  return report;
}

// --- Activity-partitioned array section ------------------------------------

/// One activity mode on the shared-bitline column, reported as the two
/// costs a user actually pays: `cold_ms` is a fresh-workspace run — it
/// includes the symbolic analysis, which for the unpartitioned engine is
/// the O(n^2) dense-discovery pass that dominates at 256 cells, and for
/// the Schur fold is the grouped elimination that replaces it — and
/// `steady_ms` is the warm best-of repetition cost with the analysis
/// amortised away.
struct ArrayColumnMode {
  double cold_ms = 0.0;
  double steady_ms = 0.0;
  std::size_t points = 0;
  std::size_t fill = 0;  ///< L+U nonzeros of the live factorization
  spice::SolverStats stats;  ///< cold-run counters
};

ArrayColumnMode bench_array_column(std::size_t cells,
                                   spice::ActivityMode mode, double tol,
                                   int reps, int batches) {
  const sram::ColumnConfig config = column_config(cells);
  spice::NewtonWorkspace workspace;

  auto run_once = [&] {
    spice::Circuit circuit;
    (void)sram::build_column(circuit, config);
    spice::TransientOptions options = sram::column_transient_options(config);
    options.solver = spice::SolverKind::kSparse;
    options.dt_initial = options.dt_max;
    options.lte_reltol = 1e9;
    options.lte_abstol = 1e9;
    options.activity = sram::column_activity(circuit, config, mode, tol);
    return spice::transient(circuit, options, workspace);
  };

  ArrayColumnMode out;
  {
    const auto start = std::chrono::steady_clock::now();
    const auto first = run_once();
    out.cold_ms = now_delta_ms(start, 1);
    out.stats = first.stats();
    out.points = first.num_points();
    out.fill = workspace.lu_fill_nnz();
  }
  out.steady_ms = 1e300;
  for (int b = 0; b < batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) (void)run_once();
    out.steady_ms = std::min(out.steady_ms, now_delta_ms(start, reps));
  }
  return out;
}

/// Full R×C read+write transient with SAMURAI RTN injected into every
/// cell, Schur-partitioned (the only engine that scales to 64×64: without
/// ordering groups the symbolic analysis is O(n^2) in n = 7RC + rails).
struct ArrayRtnEntry {
  std::size_t rows = 0, cols = 0;
  double nominal_s = 0.0, generation_s = 0.0, injected_s = 0.0;
  bool nominal_ok = false, rtn_ok = false;
  std::size_t traces = 0;
  double min_margin = 0.0;  ///< worst per-column sense margin under RTN
  spice::SolverStats stats;  ///< injected-transient counters
};

ArrayRtnEntry bench_array_rtn(std::size_t rows, std::size_t cols) {
  sram::Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = rows;
  config.cols = cols;
  config.initial_bits.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      config.initial_bits[r * cols + c] = static_cast<int>((r + c) % 2);
    }
  }
  std::vector<int> word(cols);
  for (std::size_t c = 0; c < cols; ++c) word[c] = static_cast<int>(c % 2);
  config.ops = {sram::ArrayOp::write(0, word), sram::ArrayOp::read(0)};

  // The partition is stored by device name / node id, both deterministic
  // across identical builds, so one partition serves both RTN passes.
  spice::Circuit probe;
  (void)sram::build_array2d(probe, config);
  const auto partition = sram::array2d_activity(
      probe, config, spice::ActivityMode::kSchur, 1e-4);

  const auto run =
      sram::run_array2d_rtn(config, /*seed=*/97, /*rtn_scale=*/1.0, &partition);

  ArrayRtnEntry entry;
  entry.rows = rows;
  entry.cols = cols;
  entry.nominal_s = run.rtn.nominal_seconds;
  entry.generation_s = run.rtn.generation_seconds;
  entry.injected_s = run.rtn.injected_seconds;
  entry.nominal_ok = !run.nominal_report.any_error;
  entry.rtn_ok = !run.rtn_report.any_error;
  entry.traces = run.rtn.traces.size();
  entry.min_margin = run.rtn_report.min_sense_margin;
  entry.stats = run.rtn.with_rtn.stats();
  return entry;
}

/// Every solver counter as `, "key": value`, in table order.
void print_counters(const spice::SolverStats& stats) {
  for (const auto& c : spice::kSolverCounters) {
    std::printf(", \"%s\": %llu", c.key,
                static_cast<unsigned long long>(stats.*c.field));
  }
}

void print_stats_json(const char* key, const ModeReport& r) {
  std::printf("\"%s\": {\"ms_per_run\": %.4f, \"points\": %zu", key,
              r.ms_per_run, r.points);
  print_counters(r.stats);
  std::printf("}");
}

void print_array_column_json(const char* key, const ArrayColumnMode& m) {
  std::printf(
      "\"%s\": {\"cold_ms\": %.2f, \"steady_ms\": %.3f, \"points\": %zu, "
      "\"lu_fill_nnz\": %zu",
      key, m.cold_ms, m.steady_ms, m.points, m.fill);
  print_counters(m.stats);
  std::printf("}");
}

}  // namespace

void usage() {
  std::fprintf(stderr,
               "usage: bench_spice_transient [--quick] [--reps N] "
               "[--coupled-reps N] [--rows R] [--cols C]\n"
               "  --rows/--cols size the RTN array section (positive)\n");
}

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  int reps = 0;
  int coupled_reps = 0;
  std::size_t array_rows = 0;
  std::size_t array_cols = 0;
  try {
    cli.require_declared({"quick", "reps", "coupled-reps", "rows", "cols"});
    reps = static_cast<int>(cli.get_count("reps", quick ? 20 : 200));
    coupled_reps =
        static_cast<int>(cli.get_count("coupled-reps", quick ? 2 : 4));
    array_rows =
        static_cast<std::size_t>(cli.get_count("rows", quick ? 16 : 64));
    array_cols =
        static_cast<std::size_t>(cli.get_count("cols", quick ? 16 : 64));
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "bench_spice_transient: %s\n", err.what());
    usage();
    return 2;
  }
  const int batches = quick ? 2 : 5;

  std::printf("=== SPICE transient hot path (6T write, 65nm, pattern 101) "
              "===\n");
  std::printf("write6t: %d reps x %d batches; coupled: %d reps\n\n", reps,
              batches, coupled_reps);

  const ModeReport w_fast = bench_write6t(/*fast=*/true, reps, batches);
  const ModeReport w_slow = bench_write6t(/*fast=*/false, reps, batches);
  ModeReport c_fast, c_slow;
  // Many short alternating batches beat few long ones here: the gated
  // ratio is ~1.04, and min-of-batches only converges for both sides once
  // each has sampled the machine's quiet periods in both run orders.
  bench_coupled_pair(coupled_reps, quick ? 2 : 12, c_fast, c_slow);

  const double w_speedup = w_slow.ms_per_run / w_fast.ms_per_run;
  const double c_speedup = c_slow.ms_per_run / c_fast.ms_per_run;
  std::printf("write6t: fast %.3f ms/run (%zu pts), reference %.3f ms/run "
              "-> speedup %.2fx\n",
              w_fast.ms_per_run, w_fast.points, w_slow.ms_per_run, w_speedup);
  std::printf("coupled: fast %.3f ms/run (%zu pts), reference %.3f ms/run "
              "-> speedup %.2fx\n\n",
              c_fast.ms_per_run, c_fast.points, c_slow.ms_per_run, c_speedup);

  // --- Batched fixed-grid campaign step vs the adaptive scalar run --------
  const std::size_t bt_lanes = quick ? 8 : 16;
  // Floor of 8 reps: a batched call finishes in a few ms, so reps/lanes
  // alone (2 in quick mode) times too small a window to beat timer noise —
  // the gate below would flake on an otherwise healthy build.
  const int bt_reps = std::max(8, reps / static_cast<int>(bt_lanes));
  const BatchReport bt = bench_write6t_batched(bt_lanes, bt_reps, batches);
  const double bt_speedup = w_fast.ms_per_run / bt.ms_per_lane;
  std::printf("write6t batched: %zu lanes, %.4f ms/lane (%zu pts) -> %.2fx "
              "vs adaptive scalar\n\n",
              bt.lanes, bt.ms_per_lane, bt.points, bt_speedup);

  // --- Sparse vs dense over the shared-bitline column ---------------------
  const std::vector<std::size_t> column_sizes =
      quick ? std::vector<std::size_t>{8, 64}
            : std::vector<std::size_t>{8, 32, 64};
  const int col_batches = quick ? 1 : 2;
  struct ColumnEntry {
    std::size_t cells = 0;
    ModeReport dense, sparse;
    double speedup = 0.0;
  };
  std::vector<ColumnEntry> columns;
  for (const std::size_t cells : column_sizes) {
    ColumnEntry entry;
    entry.cells = cells;
    // Dense factorization dominates quickly; keep its rep count small.
    const int col_reps = quick ? 1 : (cells >= 32 ? 2 : 6);
    entry.dense = bench_column(cells, spice::SolverKind::kDense, col_reps,
                               col_batches);
    entry.sparse = bench_column(cells, spice::SolverKind::kSparse, col_reps,
                                col_batches);
    entry.speedup = entry.dense.ms_per_run / entry.sparse.ms_per_run;
    std::printf("column N=%-2zu (n=%zu): dense %.3f ms/run, sparse %.3f "
                "ms/run (%zu pts) -> speedup %.2fx\n",
                cells, 7 * cells + 10, entry.dense.ms_per_run,
                entry.sparse.ms_per_run, entry.sparse.points, entry.speedup);
    columns.push_back(entry);
  }
  std::printf("\n");

  // --- Activity-partitioned full-array engine -----------------------------
  // 256-cell column (64 in quick mode), unpartitioned and partitioned on
  // the same fixed grid. Tolerance 1e-4: tight enough that the waveforms
  // stay within sense accuracy, loose enough that quiescent devices do not
  // chatter across the replay-ball boundary (see DESIGN.md §15).
  const std::size_t ap_cells = quick ? 64 : 256;
  const double ap_tol = 1e-4;
  const int ap_reps = quick ? 2 : 3;
  const int ap_batches = quick ? 1 : 2;
  const ArrayColumnMode ap_off = bench_array_column(
      ap_cells, spice::ActivityMode::kOff, 0.0, ap_reps, ap_batches);
  const ArrayColumnMode ap_schur = bench_array_column(
      ap_cells, spice::ActivityMode::kSchur, ap_tol, ap_reps, ap_batches);
  const double ap_cold_speedup = ap_off.cold_ms / ap_schur.cold_ms;
  const double ap_steady_speedup = ap_off.steady_ms / ap_schur.steady_ms;
  std::printf("column N=%zu activity: off cold %.0f ms / steady %.1f ms, "
              "schur cold %.0f / steady %.1f\n"
              "  -> schur cold speedup %.1fx (grouped vs whole-matrix "
              "symbolic analysis), schur steady speedup %.2fx\n",
              ap_cells, ap_off.cold_ms, ap_off.steady_ms, ap_schur.cold_ms,
              ap_schur.steady_ms, ap_cold_speedup, ap_steady_speedup);

  // Full R×C array with per-cell RTN: the tentpole workload.
  const ArrayRtnEntry rtn = bench_array_rtn(array_rows, array_cols);
  std::printf("array %zux%zu (schur) with RTN in all %zu cells: nominal "
              "%.2f s, generation %.2f s, injected %.2f s; worst column "
              "margin %.3f V\n\n",
              rtn.rows, rtn.cols, rtn.traces, rtn.nominal_s,
              rtn.generation_s, rtn.injected_s, rtn.min_margin);

  std::printf("{\"bench\": \"spice_transient\", \"quick\": %s, "
              "\"write6t\": {\"speedup\": %.3f, ",
              quick ? "true" : "false", w_speedup);
  print_stats_json("fast", w_fast);
  std::printf(", ");
  print_stats_json("reference", w_slow);
  std::printf("}, \"coupled\": {\"speedup\": %.3f, \"ledger_no_loss\": %s, ",
              c_speedup,
              (c_fast.stats.newton_iterations * 100 <=
                   c_slow.stats.newton_iterations * 102 &&
               c_fast.stats.lu_factorizations <
                   c_slow.stats.lu_factorizations)
                  ? "true"
                  : "false");
  print_stats_json("fast", c_fast);
  std::printf(", ");
  print_stats_json("reference", c_slow);
  std::printf("}, \"batched\": {\"lanes\": %zu, \"ms_per_lane\": %.4f, "
              "\"speedup_vs_adaptive\": %.3f, \"points\": %zu",
              bt.lanes, bt.ms_per_lane, bt_speedup, bt.points);
  print_counters(bt.stats);
  std::printf("}, \"columns\": [");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const auto& entry = columns[i];
    std::printf("%s{\"cells\": %zu, \"speedup\": %.3f, ", i ? ", " : "",
                entry.cells, entry.speedup);
    print_stats_json("dense", entry.dense);
    std::printf(", ");
    print_stats_json("sparse", entry.sparse);
    std::printf("}");
  }
  std::printf("], \"arrays\": {\"column\": {\"cells\": %zu, "
              "\"tolerance\": %.0e, \"cold_speedup_schur\": %.2f, "
              "\"steady_speedup_schur\": %.3f, ",
              ap_cells, ap_tol, ap_cold_speedup, ap_steady_speedup);
  print_array_column_json("off", ap_off);
  std::printf(", ");
  print_array_column_json("schur", ap_schur);
  std::printf("}, \"array2d\": {\"rows\": %zu, \"cols\": %zu, "
              "\"traces\": %zu, "
              "\"nominal_seconds\": %.3f, \"generation_seconds\": %.3f, "
              "\"injected_seconds\": %.3f, \"nominal_ok\": %s, "
              "\"rtn_ok\": %s, \"min_sense_margin\": %.4f",
              rtn.rows, rtn.cols, rtn.traces,
              rtn.nominal_s, rtn.generation_s, rtn.injected_s,
              rtn.nominal_ok ? "true" : "false", rtn.rtn_ok ? "true" : "false",
              rtn.min_margin);
  print_counters(rtn.stats);
  std::printf("}}}\n");

  // Contract checks (these make the ctest registration meaningful).
  // 1. The steady-state repetition loop must be allocation-free.
  if (w_fast.realloc_after_first != 0 || w_slow.realloc_after_first != 0) {
    std::printf("\nFAIL: workspace reallocated in steady state (fast %llu, "
                "reference %llu)\n",
                static_cast<unsigned long long>(w_fast.realloc_after_first),
                static_cast<unsigned long long>(w_slow.realloc_after_first));
    return 1;
  }
  // 2. The timed column runs must do identical work on both engines, and
  //    the sparse share of that work must be total (above the threshold)
  //    or zero (dense pin).
  for (const auto& entry : columns) {
    if (entry.dense.points != entry.sparse.points ||
        entry.dense.stats.steps_accepted != entry.sparse.stats.steps_accepted) {
      std::printf("\nFAIL: column N=%zu engines accepted different step "
                  "counts (dense %zu, sparse %zu)\n",
                  entry.cells, entry.dense.points, entry.sparse.points);
      return 1;
    }
    if (entry.dense.stats.sp_solves != 0 ||
        entry.sparse.stats.sp_solves != entry.sparse.stats.lu_solves) {
      std::printf("\nFAIL: column N=%zu ran on the wrong engine\n",
                  entry.cells);
      return 1;
    }
  }
  // 3. The 64-cell column must be at least 3x faster sparse — the scaling
  //    claim of the sparse engine, gated in quick mode too (the margin is
  //    large enough to be robust at one repetition).
  for (const auto& entry : columns) {
    if (entry.cells >= 64 && entry.speedup < 3.0) {
      std::printf("\nFAIL: 64-cell column sparse speedup %.2fx < 3.0x\n",
                  entry.speedup);
      return 1;
    }
  }
  // 4. The batched campaign step must amortise to at least 3.5x the
  //    adaptive scalar per-run cost. The floor was 4x when the scalar
  //    numerator cost ~1.5 ms; the scalar fast path has since gotten ~30%
  //    faster while ms_per_lane improved ~17%, so the cross-engine ratio
  //    legitimately shrank — both absolute costs are monitored in
  //    BENCH_spice_transient.json. Quick mode keeps a floor but relaxes
  //    it: with one-digit rep counts the adaptive numerator is the
  //    noisier side of the ratio.
  const double bt_floor = quick ? 3.0 : 3.5;
  if (quick) {
    std::printf("note: batched gate relaxed to %.1fx in quick mode\n",
                bt_floor);
  }
  if (bt_speedup < bt_floor) {
    std::printf("\nFAIL: batched write6t %.2fx < %.1fx vs adaptive scalar\n",
                bt_speedup, bt_floor);
    return 1;
  }
  // 5. The coupled workload must not regress under the fast path. The
  //    pair is dominated by MOSFET evaluation and the per-step trap-chain
  //    advance: the whole factorization budget the bypass can save is
  //    ~2-3% of wall, which sits inside this machine's timer noise even on
  //    interleaved minima (the ratio of min-of-24 batches spreads
  //    0.97-1.02 across trials of an identical binary), so a wall-clock
  //    >= 1.0x gate would fail a healthy build on a coin flip. Gate on
  //    the solver ledger instead, which is deterministic: a losing bypass
  //    means stale factors stall contraction and the fast path pays extra
  //    Newton iterations against the force-refactorize reference, and
  //    the bypass must actually bank factorization savings to exist at
  //    all. Wall speedup
  //    stays in the JSON as telemetry, guarded only against gross
  //    regressions no ledger column can explain.
  const bool pays_iterations = c_fast.stats.newton_iterations * 100 >
                               c_slow.stats.newton_iterations * 102;
  const bool banks_factors =
      c_fast.stats.lu_factorizations < c_slow.stats.lu_factorizations;
  if (pays_iterations || !banks_factors) {
    std::printf("\nFAIL: coupled fast path loses on the ledger: "
                "%llu vs %llu Newton iterations, "
                "%llu vs %llu factorizations\n",
                static_cast<unsigned long long>(
                    c_fast.stats.newton_iterations),
                static_cast<unsigned long long>(
                    c_slow.stats.newton_iterations),
                static_cast<unsigned long long>(
                    c_fast.stats.lu_factorizations),
                static_cast<unsigned long long>(
                    c_slow.stats.lu_factorizations));
    return 1;
  }
  if (!quick && c_speedup < 0.90) {
    std::printf("\nFAIL: coupled fast path %.3fx < 0.90x vs reference "
                "(gross wall regression)\n",
                c_speedup);
    return 1;
  }
  // 6. Activity-partitioned column: both modes solve the same fixed grid,
  //    the Schur fold's grouped symbolic analysis must beat the
  //    whole-matrix dense-discovery pass by 5x end-to-end on a cold start,
  //    and the partitioned engine must not lose to the unpartitioned one
  //    in steady state. The cold gate is the ">=5x over the unpartitioned
  //    sparse engine" claim: its first contact with a 256-cell pattern
  //    pays the O(n^2) analysis the partition removes.
  if (ap_off.points != ap_schur.points) {
    std::printf("\nFAIL: activity modes accepted different step counts "
                "(%zu / %zu)\n",
                ap_off.points, ap_schur.points);
    return 1;
  }
  const double ap_cold_floor = quick ? 1.5 : 5.0;
  if (ap_cold_speedup < ap_cold_floor) {
    std::printf("\nFAIL: %zu-cell column schur cold speedup %.2fx < %.1fx\n",
                ap_cells, ap_cold_speedup, ap_cold_floor);
    return 1;
  }
  if (!quick && ap_steady_speedup < 1.0) {
    std::printf("\nFAIL: %zu-cell column schur steady speedup %.2fx < 1.0x\n",
                ap_cells, ap_steady_speedup);
    return 1;
  }
  if (ap_schur.stats.ap_elided_loads == 0 ||
      ap_schur.stats.ap_folded_cells == 0 ||
      ap_schur.stats.ap_rows_skipped == 0) {
    std::printf("\nFAIL: activity counters flat (elided %llu, folded %llu, "
                "rows skipped %llu)\n",
                static_cast<unsigned long long>(
                    ap_schur.stats.ap_elided_loads),
                static_cast<unsigned long long>(
                    ap_schur.stats.ap_folded_cells),
                static_cast<unsigned long long>(
                    ap_schur.stats.ap_rows_skipped));
    return 1;
  }
  // 7. The full-array RTN transient: both passes must sense correctly and
  //    the injected (partitioned) solve must land in single-digit seconds.
  if (!rtn.nominal_ok || !rtn.rtn_ok || rtn.traces != rtn.rows * rtn.cols) {
    std::printf("\nFAIL: array RTN run errored (nominal %d, rtn %d, "
                "traces %zu of %zu)\n",
                rtn.nominal_ok, rtn.rtn_ok, rtn.traces,
                rtn.rows * rtn.cols);
    return 1;
  }
  if (rtn.injected_s >= 10.0) {
    std::printf("\nFAIL: array %zux%zu injected transient %.2f s >= 10 s\n",
                rtn.rows, rtn.cols, rtn.injected_s);
    return 1;
  }
  return 0;
}
