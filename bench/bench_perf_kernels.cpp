// Google-benchmark microbenchmarks for the library's hot kernels:
// uniformisation event generation, trap physics evaluation, FFT/PSD, the
// MNA transient and full SRAM-cell runs. These quantify the efficiency
// claims (uniformisation cost scales with Λ·T; SPICE integration is not
// the bottleneck the paper's ref. [10] suffers from).
#include <benchmark/benchmark.h>

#include "baseline/gillespie.hpp"
#include "baseline/ye_two_stage.hpp"
#include "core/propensity.hpp"
#include "core/rtn_generator.hpp"
#include "core/uniformisation.hpp"
#include "physics/srh_model.hpp"
#include "physics/surface_potential.hpp"
#include "physics/technology.hpp"
#include "physics/trap_profile.hpp"
#include "signal/fft.hpp"
#include "signal/spectral.hpp"
#include "sram/array.hpp"
#include "sram/importance.hpp"
#include "sram/methodology.hpp"
#include "spice/analysis.hpp"
#include "spice/devices.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace samurai;

namespace {

void BM_RngU64(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngU64);

void BM_RngExponential(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(3.0));
}
BENCHMARK(BM_RngExponential);

void BM_SurfacePotentialSolve(benchmark::State& state) {
  const auto tech = physics::technology("90nm");
  const physics::SurfacePotentialSolver solver(tech);
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_psi_s(v));
    v = v > 1.2 ? 0.0 : v + 0.01;
  }
}
BENCHMARK(BM_SurfacePotentialSolve);

void BM_SrhPropensities(benchmark::State& state) {
  const auto tech = physics::technology("90nm");
  const physics::SrhModel model(tech);
  const physics::Trap trap{0.3 * tech.t_ox, 0.6, physics::TrapState::kEmpty};
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.propensities(trap, v));
    v = v > 1.2 ? 0.0 : v + 0.01;
  }
}
BENCHMARK(BM_SrhPropensities);

void BM_MosEvaluate(benchmark::State& state) {
  const auto tech = physics::technology("90nm");
  const physics::MosDevice device(tech, physics::MosType::kNmos,
                                  {220e-9, 90e-9});
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.evaluate(v, 1.0));
    v = v > 1.2 ? 0.0 : v + 0.01;
  }
}
BENCHMARK(BM_MosEvaluate);

void BM_UniformisationPerCandidate(benchmark::State& state) {
  // Measures the per-candidate-event cost of Algorithm 1.
  const core::ConstantPropensity propensity(1e6, 1e6);
  util::Rng rng(2);
  for (auto _ : state) {
    core::UniformisationStats stats;
    benchmark::DoNotOptimize(core::simulate_trap(
        propensity, 0.0, 1e-3, physics::TrapState::kEmpty, rng, {}, &stats));
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(stats.candidates));
  }
}
BENCHMARK(BM_UniformisationPerCandidate);

void BM_GillespieStationary(benchmark::State& state) {
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::gillespie_stationary(
        1e6, 1e6, 0.0, 1e-3, physics::TrapState::kEmpty, rng));
  }
}
BENCHMARK(BM_GillespieStationary);

void BM_YeTwoStage(benchmark::State& state) {
  // Same nominal dwell scale as the uniformisation benchmark above —
  // the cost gap is the paper's efficiency argument against ref. [10].
  util::Rng rng(4);
  baseline::YeTwoStageParams params;
  params.tau_filter = 2e-8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::ye_two_stage(
        params, 0.0, 1e-3, physics::TrapState::kEmpty, rng));
  }
}
BENCHMARK(BM_YeTwoStage);

void BM_BiasPropensityBuild(benchmark::State& state) {
  const auto tech = physics::technology("90nm");
  const physics::SrhModel model(tech);
  const physics::Trap trap{0.3 * tech.t_ox, 0.6, physics::TrapState::kEmpty};
  core::Pwl bias;
  for (int i = 0; i <= 200; ++i) {
    bias.append(i * 1e-10, (i % 2) ? 1.2 : 0.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BiasPropensity(model, trap, bias));
  }
}
BENCHMARK(BM_BiasPropensityBuild);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::complex<double>> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = std::sin(0.01 * i);
  for (auto _ : state) {
    auto copy = data;
    signal::fft(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_WelchPsd(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 65536; ++i) samples.push_back(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::welch_psd(samples, 1e-9, 4096));
  }
}
BENCHMARK(BM_WelchPsd);

void BM_DcOperatingPointSram(benchmark::State& state) {
  const auto tech = physics::technology("90nm");
  for (auto _ : state) {
    spice::Circuit circuit;
    const auto handles = sram::build_6t_cell(circuit, tech, {}, "");
    spice::VoltageSource::dc(circuit, "Vdd", circuit.find_node(handles.vdd),
                             spice::kGround, tech.v_dd);
    spice::VoltageSource::dc(circuit, "Vwl", circuit.find_node(handles.wl),
                             spice::kGround, 0.0);
    spice::VoltageSource::dc(circuit, "Vbl", circuit.find_node(handles.bl),
                             spice::kGround, tech.v_dd);
    spice::VoltageSource::dc(circuit, "Vblb", circuit.find_node(handles.blb),
                             spice::kGround, tech.v_dd);
    spice::DcOptions options;
    options.nodeset[handles.q] = 0.0;
    options.nodeset[handles.qb] = tech.v_dd;
    benchmark::DoNotOptimize(spice::dc_operating_point(circuit, options));
  }
}
BENCHMARK(BM_DcOperatingPointSram);

void BM_SramWriteTransient(benchmark::State& state) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.ops = sram::ops_from_bits({1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sram::run_nominal(config));
  }
}
BENCHMARK(BM_SramWriteTransient);

void BM_FullMethodologySingleWrite(benchmark::State& state) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.ops = sram::ops_from_bits({1});
  config.seed = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sram::run_methodology(config));
  }
}
BENCHMARK(BM_FullMethodologySingleWrite);

// Serial-vs-parallel throughput of the Monte-Carlo paths on the shared
// executor (the thread count is the benchmark argument, so the JSON output
// carries the scaling curve). Results are bit-identical across arguments.
void BM_RunArrayThreads(benchmark::State& state) {
  sram::ArrayConfig config;
  config.cell.tech = physics::technology("90nm");
  config.cell.ops = sram::ops_from_bits({1, 0});
  config.cell.seed = 3;
  config.num_cells = 8;
  config.sigma_vt = 0.02;
  config.seed = 11;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sram::run_array(config));
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(config.num_cells));
  }
}
BENCHMARK(BM_RunArrayThreads)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ImportanceEstimateThreads(benchmark::State& state) {
  sram::ImportanceConfig config;
  config.cell.tech = physics::technology("90nm");
  config.cell.tech.v_dd = 1.05;
  config.cell.sizing.extra_node_cap = 40e-15;
  config.cell.timing.period = 1e-9;
  config.cell.ops = sram::ops_from_bits({1, 0});
  config.sigma_vt = 0.04;
  config.samples = 16;
  config.seed = 6;
  config.with_rtn = false;  // nominal-only: one transient per sample
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sram::estimate_failure_probability(config));
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(config.samples));
  }
}
BENCHMARK(BM_ImportanceEstimateThreads)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Fork-join latency of a trivial 4-participant job on the shared pool:
// the fixed cost each transient sweep of the partitioned engine pays.
void BM_PoolForkJoin(benchmark::State& state) {
  std::vector<double> slots(4, 0.0);
  const std::function<void(std::size_t)> fn = [&slots](std::size_t i) {
    slots[i] += 1.0;
  };
  util::ThreadPool& pool = util::ThreadPool::shared();
  for (auto _ : state) {
    pool.for_indexed(slots.size(), 4, fn);
    benchmark::DoNotOptimize(slots.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PoolForkJoin)->Unit(benchmark::kMicrosecond);

void BM_DeviceRtnGeneration(benchmark::State& state) {
  const auto tech = physics::technology("90nm");
  const physics::SrhModel srh(tech);
  const physics::MosDevice device(tech, physics::MosType::kNmos,
                                  {2.0 * tech.w_min, tech.l_min});
  util::Rng profile_rng(7);
  const auto traps =
      physics::sample_trap_profile(tech, device.geometry(), profile_rng);
  core::RtnGeneratorOptions options;
  options.tf = 2e-8;
  util::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::generate_device_rtn(
        srh, device, traps, core::Pwl::constant(0.9 * tech.v_dd),
        core::Pwl::constant(1e-4), rng, options));
  }
}
BENCHMARK(BM_DeviceRtnGeneration);

}  // namespace

BENCHMARK_MAIN();
