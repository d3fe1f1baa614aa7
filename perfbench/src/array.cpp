// Workload `array_rw`: sram::run_array2d_rtn on a 32×32 array — write row
// 0 with an alternating word, then read it — with RTN in every cell's M5,
// Schur-partitioned at tolerance 1e-4, on N pinned cores.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "measure.hpp"
#include "physics/srh_model.hpp"
#include "physics/technology.hpp"
#include "physics/trap_profile.hpp"
#include "spice/devices.hpp"
#include "sram/array2d.hpp"
#include "system.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace samurai;

namespace {

constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinRuns = 3;
constexpr std::size_t kRows = 32;
constexpr std::size_t kCols = 32;
constexpr double kRtnScale = 1.0;

/// bench_spice_transient's array2d configuration: 90 nm, checkerboard
/// initial bits, write row 0 with an alternating word, read row 0.
sram::Array2dConfig array_config() {
  sram::Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = kRows;
  config.cols = kCols;
  config.initial_bits.resize(kRows * kCols);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      config.initial_bits[r * kCols + c] = static_cast<int>((r + c) % 2);
    }
  }
  std::vector<int> word(kCols);
  for (std::size_t c = 0; c < kCols; ++c) word[c] = static_cast<int>(c % 2);
  config.ops = {sram::ArrayOp::write(0, word), sram::ArrayOp::read(0)};
  return config;
}

/// The partition is stored by device name and node id, both identical
/// across builds, so one partition serves every run.
spice::ActivityPartition array_partition(const sram::Array2dConfig& config) {
  spice::Circuit probe;
  (void)sram::build_array2d(probe, config);
  return sram::array2d_activity(probe, config, spice::ActivityMode::kSchur, 1e-4);
}

/// The output check: the nominal run reads and writes correctly, and the
/// RTN run produced a report with a finite worst margin on every column.
bool array_ok(const sram::Array2dRtnResult& result) {
  if (result.nominal_report.any_error ||
      result.rtn.traces.size() != kRows * kCols ||
      result.rtn_report.column_worst_margin.size() != kCols) {
    return false;
  }
  for (double margin : result.rtn_report.column_worst_margin) {
    if (!std::isfinite(margin)) return false;
  }
  return true;
}

struct ArrayDigest {
  Digest digest;
  std::uint64_t traps = 0;
  std::uint64_t accepted = 0;

  explicit ArrayDigest(const sram::Array2dRtnResult& result) {
    for (const auto& trace : result.rtn.traces) {
      traps += trace.traps.size();
      accepted += trace.stats.accepted;
      digest.add(static_cast<std::uint64_t>(trace.traps.size()));
      digest.add(trace.stats.accepted);
    }
    for (const auto* report : {&result.nominal_report, &result.rtn_report}) {
      digest.add(static_cast<std::uint64_t>(report->any_error));
      for (double margin : report->column_worst_margin) digest.add(margin);
    }
    for (const auto* run : {&result.rtn.nominal, &result.rtn.with_rtn}) {
      for (double t : run->times()) digest.add(t);
      for (const auto& node : run->node_names()) {
        for (double v : run->voltage_samples(node)) digest.add(v);
      }
    }
  }
};

bool same_array_report(const sram::Array2dReport& a, const sram::Array2dReport& b) {
  const auto bits = same_double;
  if (a.any_error != b.any_error || !bits(a.min_sense_margin, b.min_sense_margin) ||
      a.column_worst_margin.size() != b.column_worst_margin.size() ||
      a.reads.size() != b.reads.size() || a.writes.size() != b.writes.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.column_worst_margin.size(); ++c) {
    if (!bits(a.column_worst_margin[c], b.column_worst_margin[c])) return false;
  }
  for (std::size_t i = 0; i < a.reads.size(); ++i) {
    if (a.reads[i].sensed != b.reads[i].sensed ||
        a.reads[i].disturbed != b.reads[i].disturbed ||
        !bits(a.reads[i].sense_margin, b.reads[i].sense_margin)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.writes.size(); ++i) {
    if (a.writes[i].ok != b.writes[i].ok) return false;
  }
  return true;
}

bool same_array(const sram::Array2dRtnResult& a, const sram::Array2dRtnResult& b) {
  if (!same_transient(a.rtn.nominal, b.rtn.nominal) ||
      !same_transient(a.rtn.with_rtn, b.rtn.with_rtn) ||
      !same_array_report(a.nominal_report, b.nominal_report) ||
      !same_array_report(a.rtn_report, b.rtn_report) ||
      a.rtn.traces.size() != b.rtn.traces.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.rtn.traces.size(); ++i) {
    const auto& x = a.rtn.traces[i];
    const auto& y = b.rtn.traces[i];
    if (x.device != y.device || !same_traps(x.traps, y.traps) ||
        !same_step(x.n_filled, y.n_filled) || !same_pwl(x.i_rtn, y.i_rtn) ||
        !same_stats(x.stats, y.stats)) {
      return false;
    }
  }
  return true;
}

/// What the traced run observed in the parallel generation region.
struct GenerationRegion {
  int span = -1;
  double cpu_utilisation = 0.0;
};

/// sram::run_array2d_rtn re-composed: per-cell generation fans out over
/// the shared pool exactly as the entry point does (worker_count() + 1
/// participants), each cell's layer spans nested under the region span.
sram::Array2dRtnResult traced_array(const sram::Array2dConfig& config,
                                    std::uint64_t seed,
                                    const spice::ActivityPartition& partition,
                                    std::size_t cores, PipelineCounts& counts,
                                    GenerationRegion& region) {
  spice::TransientOptions options = sram::array2d_transient_options(config);
  options.activity = partition;
  options.dt_initial = options.dt_max;
  options.lte_reltol = 1e9;
  options.lte_abstol = 1e9;

  sram::Array2dRtnResult result;
  spice::NewtonWorkspace workspace;
  auto nominal_circuit = std::make_unique<spice::Circuit>();
  sram::Array2dBuild build;
  {
    const Scope span("sram.build");
    build = sram::build_array2d(*nominal_circuit, config);
  }
  {
    const Scope span("spice.nominal_transient");
    result.rtn.nominal = spice::transient(*nominal_circuit, options, workspace);
  }

  result.rtn.traces.resize(config.rows * config.cols);
  {
    const Scope region_span("sram.array_generation");
    region.span = region_span.id();
    const double start = now_seconds();
    const double cpu_start = process_cpu_seconds();
    util::parallel_for_indexed(
        config.rows * config.cols,
        [&](std::size_t flat) {
          const Adopt adopt(region.span);
          const std::size_t r = flat / config.cols;
          const std::size_t c = flat % config.cols;
          auto* mosfet = build.cells[flat].mosfet(5);
          spice::DeviceRtnTrace trace;
          trace.device = sram::array_cell_prefix(r, c) + "M5";
          const auto& tech = mosfet->model().tech();
          std::optional<physics::SrhModel> srh;
          {
            const Scope span("physics.srh_setup");
            srh.emplace(tech);
          }
          ++counts.srh_setups;
          const util::Rng rng(seed + 1000 * flat + 5);
          {
            const Scope span("physics.trap_profile");
            util::Rng profile_rng = rng.split(101);
            trace.traps = physics::sample_trap_profile(
                tech, mosfet->model().geometry(), profile_rng);
          }
          counts.traps_drawn += trace.traps.size();
          core::Pwl v_gs, i_d;
          {
            const Scope span("sram.bias_extract");
            spice::extract_device_bias(result.rtn.nominal, *nominal_circuit,
                                       *mosfet, v_gs, i_d);
          }
          const physics::MosDevice equivalent(tech, physics::MosType::kNmos,
                                              mosfet->model().geometry());
          core::RtnGeneratorOptions gen;
          gen.t0 = options.t_start;
          gen.tf = options.t_stop;
          gen.amplitude_scale = kRtnScale;
          util::Rng trap_rng = rng.split(977);
          auto device_rtn = traced_device_rtn(*srh, equivalent, trace.traps, v_gs,
                                              i_d, trap_rng, gen, counts);
          trace.n_filled = std::move(device_rtn.n_filled);
          trace.i_rtn = std::move(device_rtn.i_rtn);
          trace.stats = device_rtn.stats;
          result.rtn.traces[flat] = std::move(trace);
        },
        util::ThreadPool::shared().worker_count() + 1);
    region.cpu_utilisation = (process_cpu_seconds() - cpu_start) /
                             ((now_seconds() - start) * static_cast<double>(cores));
  }

  auto rtn_circuit = std::make_unique<spice::Circuit>();
  sram::Array2dBuild rtn_build;
  {
    const Scope span("sram.build");
    rtn_build = sram::build_array2d(*rtn_circuit, config);
    for (std::size_t flat = 0; flat < result.rtn.traces.size(); ++flat) {
      const auto& trace = result.rtn.traces[flat];
      auto* mosfet = rtn_build.cells[flat].mosfet(5);
      auto& source = rtn_circuit->add<spice::CurrentSource>(
          "Irtn_" + trace.device, mosfet->drain(), mosfet->source(),
          trace.i_rtn.scaled(-1.0));
      source.set_emit_breakpoints(false);
    }
  }
  {
    const Scope span("spice.injected_transient");
    result.rtn.with_rtn = spice::transient(*rtn_circuit, options, workspace);
  }
  {
    const Scope span("sram.detect");
    result.nominal_report = sram::check_array2d(result.rtn.nominal, config, build);
    result.rtn_report = sram::check_array2d(result.rtn.with_rtn, config, rtn_build);
  }
  return result;
}

}  // namespace

RunReport run_array(const Context& ctx) {
  RunReport report;
  const std::uint64_t seed = util::Rng(ctx.options.seed).split(1).next_u64();
  sram::Array2dConfig config;
  spice::ActivityPartition partition;
  std::optional<sram::Array2dRtnResult> reference;
  const double setup_s =
      median_setup(ctx, ctx.options.trace ? 1 : kSetupRepeats, [&] {
        config = array_config();
        partition = array_partition(config);
        reference = sram::run_array2d_rtn(config, seed, kRtnScale, &partition);
      });
  const ArrayDigest digest(*reference);
  report.correct = array_ok(*reference);
  const std::size_t fan_out = util::ThreadPool::shared().worker_count() + 1;

  if (!ctx.options.trace) {
    std::uint64_t failed = 0;
    const auto runs = timed_units(ctx.options.seconds, kMinRuns, [&](std::size_t) {
      const double start = now_seconds();
      double seconds = 0.0;
      try {
        const auto result = sram::run_array2d_rtn(config, seed, kRtnScale, &partition);
        seconds = now_seconds() - start;
        if (!array_ok(result) || ArrayDigest(result).digest.hex() != digest.digest.hex()) {
          ++failed;
        }
      } catch (const std::exception&) {
        ++failed;
        seconds = now_seconds() - start;
      }
      return seconds;
    });
    // Every run repeats the same array: its cost is the fastest run.
    const double best = *std::min_element(runs.begin(), runs.end());
    report.attempted = runs.size();
    report.failed = failed;
    add_end_to_end(report, setup_s, {best}, runs,
                   static_cast<double>(kRows * kCols) / best);
    report.details.add("unit", "one 32x32 array write+read run with RTN in "
                               "every cell, best of the runs; samples_per_s "
                               "counts cells");
  } else {
    LayerInputs layers;
    double start = now_seconds();
    const auto untraced = sram::run_array2d_rtn(config, seed, kRtnScale, &partition);
    layers.untraced_wall = now_seconds() - start;

    GenerationRegion region;
    const auto solver_before = spice::solver_stats_snapshot();
    const auto rtn_before = core::uniformisation_stats_snapshot();
    report.trace_origin = now_seconds();
    start = now_seconds();
    const auto traced =
        traced_array(config, seed, partition, ctx.threads, layers.counts, region);
    layers.traced_wall = now_seconds() - start;
    layers.solver = spice::solver_stats_snapshot().since(solver_before);
    layers.rtn = core::uniformisation_stats_snapshot().since(rtn_before);
    report.spans = take_spans();
    layers.spans = report.spans;
    layers.cpu_utilisation = region.cpu_utilisation;

    const bool identical = same_array(untraced, traced);
    const bool ok = array_ok(untraced) && identical &&
                    same_array(untraced, *reference);
    report.attempted = 1;
    report.failed = ok ? 0 : 1;
    layers.failed_share = ok ? 0.0 : 1.0;
    report.details.add("recomposition_bit_identical", identical);
    report.details.add_u64("generation_threads_observed",
                           threads_under(report.spans, region.span));
    report.details.add("generation_busy_note",
                       "layer *_ms inside the generation region are busy time "
                       "summed over its threads");
    add_per_layer(report, layers);
    report.details.add("per_layer_unit", "one array run");
  }
  report.correct = report.correct && report.failed == 0;
  report.details.add("digest", digest.digest.hex());
  report.details.add_u64("digest_traps", digest.traps);
  report.details.add_u64("digest_accepted_transitions", digest.accepted);
  report.details.add("digest_rtn_min_sense_margin_v",
                     reference->rtn_report.min_sense_margin);
  report.details.add("digest_rtn_any_error", reference->rtn_report.any_error);
  report.details.add_u64("generation_fan_out_threads", fan_out);
  report.details.add_u64("process_threads", live_threads());
  return report;
}

}  // namespace perfbench
