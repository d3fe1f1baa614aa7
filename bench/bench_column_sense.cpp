// Column- and array-level read bench: RTN vs the sense margin. A
// transistor-level SRAM column (shared floating bitlines, precharge,
// write drivers) runs a read-heavy pattern; SAMURAI RTN injected into
// every cell transistor slows the addressed cell's discharge path and
// eats into the differential available at sense time — the array-level
// face of the read-failure mechanism (paper ref. [16]) and the natural
// extension of the paper's single-cell methodology to "entire SRAM
// arrays" (future-work #3).
//
// The second section runs the full R×C array (activity-partitioned, RTN
// in every cell's M5) and reports the worst-case sense margin per
// column: because an array read senses all columns at once, one
// transient yields the whole per-column margin profile. Emits one
// machine-readable JSON line.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "sram/array2d.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace samurai;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bench_column_sense [--node N] [--vdd V] [--cells N] "
               "[--cbl F] [--seeds N] [--rows R] [--cols C] "
               "[--rtn-scale S]\n"
               "  --rows/--cols size the array section (positive)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  sram::Array2dConfig config;  // the column: rows = cells, cols = 1
  config.cols = 1;
  std::size_t seeds = 0;
  std::size_t rows = 0, cols = 0;
  double rtn_scale = 0.0;
  try {
    cli.require_declared({"node", "vdd", "cells", "cbl", "seeds", "rows",
                          "cols", "rtn-scale"});
    config.tech = physics::technology(cli.get_string("node", "90nm"));
    config.tech.v_dd = cli.get_double("vdd", 1.0);
    config.rows = static_cast<std::size_t>(cli.get_count("cells", 4));
    config.bitline_cap = cli.get_positive_double("cbl", 120e-15);
    seeds = static_cast<std::size_t>(cli.get_count("seeds", 4));
    rows = static_cast<std::size_t>(cli.get_count("rows", 8));
    cols = static_cast<std::size_t>(cli.get_count("cols", 8));
    rtn_scale = cli.get_double("rtn-scale", 300.0);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "bench_column_sense: %s\n", err.what());
    usage();
    return 2;
  }
  config.initial_bits = {1, 0, 1, 0};
  config.initial_bits.resize(config.rows, 0);
  // A read-heavy pattern touching every cell twice.
  for (std::size_t i = 0; i < config.rows; ++i) {
    config.ops.push_back(sram::ArrayOp::read(i));
  }
  config.ops.push_back(sram::ArrayOp::write(0, {0}));
  config.ops.push_back(sram::ArrayOp::read(0));
  for (std::size_t i = 1; i < config.rows; ++i) {
    config.ops.push_back(sram::ArrayOp::read(i));
  }

  std::printf("=== Column read bench: sense margin under RTN ===\n");
  std::printf("%s column, %zu cells, C_bl = %.0f fF, V_dd = %.2f V, %zu ops\n\n",
              config.tech.name.c_str(), config.rows,
              config.bitline_cap * 1e15, config.tech.v_dd, config.ops.size());

  util::Table table({"RTN scale", "sense errors", "disturbs",
                     "min margin (mV)", "mean margin (mV)",
                     "worst margin loss vs nominal (mV)"});
  std::vector<double> nominal_margins;
  for (double scale : {0.0, 30.0, 120.0, 300.0, 600.0}) {
    std::size_t sense_errors = 0, disturbs = 0;
    double min_margin = config.tech.v_dd, margin_sum = 0.0, worst_loss = 0.0;
    std::size_t margin_count = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const auto result = run_column_rtn(config, 10 + s, scale);
      const auto& reads = result.rtn_report.reads;
      for (std::size_t i = 0; i < reads.size(); ++i) {
        if (reads[i].sensed != reads[i].expected) ++sense_errors;
        if (reads[i].disturbed) ++disturbs;
        min_margin = std::min(min_margin, reads[i].sense_margin);
        margin_sum += reads[i].sense_margin;
        ++margin_count;
        if (scale == 0.0) {
          if (s == 0) nominal_margins.push_back(reads[i].sense_margin);
        } else if (i < nominal_margins.size()) {
          worst_loss = std::max(worst_loss,
                                nominal_margins[i] - reads[i].sense_margin);
        }
      }
      if (scale == 0.0) break;  // nominal is seed-independent
    }
    table.add_row({scale, static_cast<long long>(sense_errors),
                   static_cast<long long>(disturbs), min_margin * 1e3,
                   margin_sum / static_cast<double>(margin_count) * 1e3,
                   worst_loss * 1e3});
  }
  table.print(std::cout);

  // --- Array-level per-column worst-case margin ---------------------------
  sram::Array2dConfig array = config;
  array.rows = rows;
  array.cols = cols;
  array.initial_bits.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      array.initial_bits[r * cols + c] = static_cast<int>((r + c) % 2);
    }
  }
  // Read the first and last row: every column is sensed twice, once per
  // stored polarity, so the per-column worst case covers both data states.
  array.ops = {sram::ArrayOp::read(0), sram::ArrayOp::read(rows - 1)};

  spice::Circuit probe;
  (void)sram::build_array2d(probe, array);
  const auto partition = sram::array2d_activity(
      probe, array, spice::ActivityMode::kSchur, 1e-4);
  const auto run =
      sram::run_array2d_rtn(array, /*seed=*/11, rtn_scale, &partition);

  std::size_t array_errors = 0, array_disturbs = 0;
  for (const auto& read : run.rtn_report.reads) {
    if (read.sensed != read.expected) ++array_errors;
    if (read.disturbed) ++array_disturbs;
  }
  std::printf("\narray %zux%zu (schur, RTN scale %g): nominal %.2f s, "
              "generation %.2f s, injected %.2f s\n",
              rows, cols, rtn_scale, run.rtn.nominal_seconds,
              run.rtn.generation_seconds, run.rtn.injected_seconds);
  util::Table array_table({"column", "worst margin (mV)",
                           "nominal worst (mV)", "loss (mV)"});
  for (std::size_t c = 0; c < cols; ++c) {
    const double rtn_margin = run.rtn_report.column_worst_margin[c];
    const double nom_margin = run.nominal_report.column_worst_margin[c];
    array_table.add_row({static_cast<long long>(c), rtn_margin * 1e3,
                         nom_margin * 1e3, (nom_margin - rtn_margin) * 1e3});
  }
  array_table.print(std::cout);
  std::printf("array worst-case margin %.1f mV (%zu sense errors, %zu "
              "disturbs across %zu reads)\n",
              run.rtn_report.min_sense_margin * 1e3, array_errors,
              array_disturbs, run.rtn_report.reads.size());

  std::printf("\n{\"bench\": \"column_sense\", \"array\": {\"rows\": %zu, "
              "\"cols\": %zu, \"rtn_scale\": %g, "
              "\"min_sense_margin\": %.4f, \"nominal_min_margin\": %.4f, "
              "\"sense_errors\": %zu, \"disturbs\": %zu, "
              "\"injected_seconds\": %.3f, \"column_worst_margin\": [",
              rows, cols, rtn_scale, run.rtn_report.min_sense_margin,
              run.nominal_report.min_sense_margin, array_errors,
              array_disturbs, run.rtn.injected_seconds);
  for (std::size_t c = 0; c < cols; ++c) {
    std::printf("%s%.4f", c ? ", " : "",
                run.rtn_report.column_worst_margin[c]);
  }
  std::printf("]}}\n");

  std::printf("\nExpected shape: margins erode monotonically with the RTN\n"
              "scale (trapped charge throttles the discharge path while the\n"
              "bitline race is on); sense errors appear once the erosion\n"
              "reaches the slot with the least nominal margin.\n");
  return 0;
}
