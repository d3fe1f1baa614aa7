// The one Fig. 8 pipeline (spice::run_rtn_transient) and its callers.
//
// Stream conventions: each caller's traces are re-composed from public
// per-step calls (trap profile, bias extraction, generate_device_rtn) on
// the streams DESIGN.md §17 documents and compared bit for bit, so any
// change to how the pipeline derives a stream fails here.
//
// Fan-out: the per-device step fans out over the pool from a plain thread
// and runs serially inside a pool job; both must give the same bits.
//
// Injection policy: injected sources are grid-sampled, so a trace that
// carries no current leaves the second pass bit-identical to the nominal
// one on every caller (DESIGN.md §19).
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "core/rtn_generator.hpp"
#include "osc/ring.hpp"
#include "physics/srh_model.hpp"
#include "physics/trap_profile.hpp"
#include "spice/parser.hpp"
#include "spice/rtn_integration.hpp"
#include "sram/array2d.hpp"
#include "sram/column.hpp"
#include "sram/methodology.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace samurai {
namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_pwl(const core::Pwl& a, const core::Pwl& b) {
  EXPECT_TRUE(same_bits(a.times(), b.times()));
  EXPECT_TRUE(same_bits(a.values(), b.values()));
}

void expect_same_step(const core::StepTrace& a, const core::StepTrace& b) {
  EXPECT_TRUE(same_bits(a.initial_value(), b.initial_value()));
  EXPECT_TRUE(same_bits(a.times(), b.times()));
  EXPECT_TRUE(same_bits(a.values(), b.values()));
}

void expect_same_stats(const core::UniformisationStats& a,
                       const core::UniformisationStats& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.rng_refills, b.rng_refills);
  EXPECT_TRUE(same_bits(a.envelope_integral, b.envelope_integral));
  EXPECT_TRUE(same_bits(a.fixed_bound_integral, b.fixed_bound_integral));
}

void expect_same_traps(const std::vector<physics::Trap>& a,
                       const std::vector<physics::Trap>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i].y_tr, b[i].y_tr)) << "trap " << i;
    EXPECT_TRUE(same_bits(a[i].e_tr, b[i].e_tr)) << "trap " << i;
    EXPECT_EQ(a[i].init_state, b[i].init_state) << "trap " << i;
  }
}

void expect_same_transient(const spice::TransientResult& a,
                           const spice::TransientResult& b) {
  ASSERT_EQ(a.node_names(), b.node_names());
  EXPECT_TRUE(same_bits(a.times(), b.times()));
  for (const auto& node : a.node_names()) {
    EXPECT_TRUE(same_bits(a.voltage_samples(node), b.voltage_samples(node)))
        << "node " << node;
  }
  EXPECT_EQ(std::memcmp(&a.stats(), &b.stats(), sizeof(spice::SolverStats)), 0);
}

/// A second pass that injected nothing, or only zero current, against the
/// nominal: the same times and node values bit for bit and the same solver
/// work. Two counters may differ: the second pass reuses the nominal's
/// workspace (`workspace_allocations`), and `device_loads` also counts each
/// zero-current source's own loads.
void expect_nominal_second_pass(const spice::TransientResult& nominal,
                                const spice::TransientResult& second) {
  ASSERT_EQ(second.node_names(), nominal.node_names());
  EXPECT_TRUE(same_bits(second.times(), nominal.times()));
  for (const auto& node : nominal.node_names()) {
    EXPECT_TRUE(same_bits(second.voltage_samples(node),
                          nominal.voltage_samples(node)))
        << "node " << node;
  }
  auto a = nominal.stats();
  auto b = second.stats();
  EXPECT_GE(b.device_loads, a.device_loads);
  a.workspace_allocations = b.workspace_allocations = 0;
  a.device_loads = b.device_loads = 0;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(spice::SolverStats)), 0);
}

/// One device re-composed from the public per-step calls on the given
/// streams of Rng(seed).
struct Recomposed {
  std::vector<physics::Trap> traps;
  core::Pwl v_gs, i_d;
  core::DeviceRtnResult rtn;
};

Recomposed recompose(const spice::TransientResult& nominal,
                     const spice::Circuit& circuit, const spice::Mosfet& mosfet,
                     std::uint64_t seed, std::uint64_t profile_stream,
                     std::uint64_t trap_stream, core::RtnGeneratorOptions gen,
                     const physics::TrapProfileOptions& profile = {}) {
  const auto& tech = mosfet.model().tech();
  const auto& geometry = mosfet.model().geometry();
  Recomposed out;
  const util::Rng rng(seed);
  util::Rng profile_rng = rng.split(profile_stream);
  out.traps = physics::sample_trap_profile(tech, geometry, profile_rng, profile);
  spice::extract_device_bias(nominal, circuit, mosfet, out.v_gs, out.i_d);
  util::Rng trap_rng = rng.split(trap_stream);
  out.rtn = core::generate_device_rtn(
      physics::SrhModel(tech),
      physics::MosDevice(tech, physics::MosType::kNmos, geometry), out.traps,
      out.v_gs, out.i_d, trap_rng, gen);
  return out;
}

void expect_trace_matches(const Recomposed& expected,
                          const spice::DeviceRtnTrace& trace) {
  expect_same_traps(expected.traps, trace.traps);
  expect_same_step(expected.rtn.n_filled, trace.n_filled);
  expect_same_pwl(expected.rtn.i_rtn, trace.i_rtn);
  expect_same_stats(expected.rtn.stats, trace.stats);
}

// ------------------------------------------------------ stream conventions

TEST(RtnPipelineStreams, MethodologyUsesTransistorIndexedStreams) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.ops = sram::ops_from_bits({1, 0});
  config.seed = 11;
  config.rtn_scale = 30.0;
  // Non-default settings, so the test also sees them reach every device.
  config.profile.equilibrium_bias = 0.45;
  config.uniformisation.use_majorant = false;
  const auto result = sram::run_methodology(config);
  ASSERT_EQ(result.rtn.size(), 6u);

  spice::Circuit circuit;
  const auto handles = sram::build_6t_cell(circuit, config.tech, config.sizing,
                                           "", config.vth_shifts);
  core::RtnGeneratorOptions gen;
  gen.tf = result.pattern.t_end;
  gen.amplitude_scale = config.rtn_scale;
  gen.uniformisation = config.uniformisation;
  for (int m = 1; m <= 6; ++m) {
    SCOPED_TRACE("M" + std::to_string(m));
    const auto& entry = result.rtn[static_cast<std::size_t>(m - 1)];
    const auto m_tag = static_cast<std::uint64_t>(m);
    const auto expected =
        recompose(result.nominal, circuit, *handles.mosfet(m), config.seed,
                  m_tag * 101, m_tag * 977 + 13, gen, config.profile);
    EXPECT_EQ(entry.name, "M" + std::to_string(m));
    expect_same_traps(expected.traps, entry.traps);
    expect_same_pwl(expected.v_gs, entry.v_gs);
    expect_same_pwl(expected.i_d, entry.i_d);
    expect_same_step(expected.rtn.n_filled, entry.n_filled);
    expect_same_pwl(expected.rtn.i_rtn, entry.i_rtn);
    expect_same_stats(expected.rtn.stats, entry.stats);
  }
}

TEST(RtnPipelineStreams, ArrayUsesFlatIndexSeeds) {
  sram::Array2dConfig config;
  config.tech = physics::technology("90nm");
  config.rows = 2;
  config.cols = 2;
  config.initial_bits = {0, 1, 1, 0};
  config.ops = {sram::ArrayOp::write(0, {1, 0}), sram::ArrayOp::read(0)};
  const std::uint64_t seed = 33;
  const auto result = sram::run_array2d_rtn(config, seed, 2.0);
  ASSERT_EQ(result.rtn.traces.size(), 4u);

  spice::Circuit circuit;
  const auto build = sram::build_array2d(circuit, config);
  const auto options = sram::array2d_transient_options(config);
  core::RtnGeneratorOptions gen;
  gen.t0 = options.t_start;
  gen.tf = options.t_stop;
  gen.amplitude_scale = 2.0;
  for (std::size_t flat = 0; flat < 4; ++flat) {
    SCOPED_TRACE("cell " + std::to_string(flat));
    const auto& trace = result.rtn.traces[flat];
    EXPECT_EQ(trace.device,
              sram::array_cell_prefix(flat / 2, flat % 2) + "M5");
    EXPECT_EQ(trace.v_gs.size(), 0u);  // arrays keep no bias waveforms
    EXPECT_EQ(trace.i_d.size(), 0u);
    expect_trace_matches(recompose(result.rtn.nominal, circuit,
                                   *build.cells[flat].mosfet(5),
                                   seed + 1000 * flat + 5, 101, 977, gen),
                         trace);
  }
}

TEST(RtnPipelineStreams, NetlistRtnCardUsesDefaultStreams) {
  const char* deck = R"(two rtn cards
Vdd vdd 0 DC 1.2
Vg g 0 PWL(0 0.4 10n 0.8)
R1 vdd out 20k
M1 out g 0 0 nfet W=220n L=90n
M2 out g 0 0 nfet W=110n L=90n
.model nfet nmos node=90nm
.rtn M2 scale=20 seed=9
.rtn M1 scale=30 seed=7
.tran 20p 20n
.end
)";
  const auto result = spice::run_netlist_rtn(deck);
  ASSERT_EQ(result.traces.size(), 2u);
  const auto parsed = spice::parse_netlist(deck);
  core::RtnGeneratorOptions gen;
  gen.t0 = parsed.tran.t_start;
  gen.tf = parsed.tran.t_stop;
  gen.amplitude_scale = 30.0;
  const auto* m1 = parsed.circuit->find<spice::Mosfet>("M1");
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(result.traces[1].device, "M1");
  expect_trace_matches(
      recompose(result.nominal, *parsed.circuit, *m1, 7, 101, 977, gen),
      result.traces[1]);
}

// ------------------------------------------------------------- the pipeline

const char* kInverterDeck = R"(inverter
Vdd vdd 0 DC 1.2
Vin in 0 PWL(0 0 2n 0 2.1n 1.2)
M1 out in 0 0 nfet W=220n L=90n
M2 out in vdd vdd pfet W=440n L=90n
C1 out 0 2f
.model nfet nmos node=90nm
.model pfet pmos node=90nm
.tran 10p 5n
.end
)";

spice::RtnTransientResult run_inverter(
    const std::vector<spice::RtnRequest>& requests,
    const spice::RtnPipelineOptions& pipeline = {}) {
  const auto probe = spice::parse_netlist(kInverterDeck);
  return spice::run_rtn_transient(
      [] { return spice::parse_netlist(kInverterDeck).circuit; }, probe.tran,
      requests, pipeline);
}

TEST(RtnPipeline, RejectsRepeatedAndUnknownDevices) {
  spice::RtnRequest m1;
  m1.device = "M1";
  EXPECT_THROW(run_inverter({m1, m1}), std::invalid_argument);
  spice::RtnRequest missing;
  missing.device = "M7";
  EXPECT_THROW(run_inverter({m1, missing}), std::invalid_argument);
  spice::RtnRequest capacitor;
  capacitor.device = "C1";
  EXPECT_THROW(run_inverter({capacitor}), std::invalid_argument);
}

TEST(RtnPipeline, UninjectedRequestsLeaveTheCircuitNominal) {
  spice::RtnRequest m1;
  m1.device = "M1";
  m1.scale = 100.0;
  m1.inject = false;
  spice::RtnRequest m2 = m1;
  m2.device = "M2";
  spice::RtnPipelineOptions pipeline;
  pipeline.keep_bias = true;
  const auto uninjected = run_inverter({m1, m2}, pipeline);
  for (const auto& trace : uninjected.traces) {
    EXPECT_GT(trace.v_gs.size(), 0u);
    EXPECT_GT(trace.i_d.size(), 0u);
  }
  // The same deck with `.rtn` cards of zero scale: both sources are
  // injected and carry no current.
  std::string deck = kInverterDeck;
  deck.insert(deck.find(".end"),
              ".rtn M1 scale=0 seed=3\n.rtn M2 scale=0 seed=4\n");
  const auto zero_scale = spice::run_netlist_rtn(deck);

  for (const auto* result : {&uninjected, &zero_scale}) {
    SCOPED_TRACE(result == &uninjected ? "uninjected" : "scale=0");
    ASSERT_EQ(result->traces.size(), 2u);
    for (const auto& trace : result->traces) EXPECT_FALSE(trace.traps.empty());
    // Nothing injected: the second pass solves the nominal circuit again.
    expect_nominal_second_pass(result->nominal, result->with_rtn);
    EXPECT_GT(result->nominal_seconds, 0.0);
    EXPECT_GE(result->generation_seconds, 0.0);
    EXPECT_GT(result->injected_seconds, 0.0);
  }
}

// ---------------------------------------------------- zero-amplitude identity

TEST(RtnZeroAmplitude, MethodologySecondPassIsTheNominal) {
  sram::MethodologyConfig config;
  config.tech = physics::technology("90nm");
  config.ops = sram::ops_from_bits({1, 0, 1});
  config.seed = 5;
  config.rtn_scale = 0.0;
  const auto result = sram::run_methodology(config);
  expect_nominal_second_pass(result.nominal, result.with_rtn);
  ASSERT_EQ(result.rtn_report.ops.size(), result.nominal_report.ops.size());
  for (std::size_t k = 0; k < result.nominal_report.ops.size(); ++k) {
    EXPECT_EQ(result.rtn_report.ops[k].outcome,
              result.nominal_report.ops[k].outcome);
    EXPECT_TRUE(same_bits(result.rtn_report.ops[k].q_at_slot_end,
                          result.nominal_report.ops[k].q_at_slot_end));
  }
}

TEST(RtnZeroAmplitude, ColumnSecondPassIsTheNominal) {
  sram::ColumnConfig config;
  config.tech = physics::technology("90nm");
  config.num_cells = 4;
  config.initial_bits = {0, 1, 1, 0};
  config.ops = {sram::ColumnOp::write(0, 1), sram::ColumnOp::read(0),
                sram::ColumnOp::read(2)};
  const auto result = sram::run_column_rtn(config, 12, 0.0);
  ASSERT_EQ(result.rtn.traces.size(), 24u);
  expect_nominal_second_pass(result.rtn.nominal, result.rtn.with_rtn);
  ASSERT_EQ(result.rtn_report.reads.size(), result.nominal_report.reads.size());
  for (std::size_t i = 0; i < result.nominal_report.reads.size(); ++i) {
    EXPECT_TRUE(same_bits(result.rtn_report.reads[i].sense_margin,
                          result.nominal_report.reads[i].sense_margin));
  }
}

TEST(RtnZeroAmplitude, RingPeriodsAreTheNominals) {
  osc::RingConfig config;
  config.tech = physics::technology("90nm");
  config.stages = 3;
  config.t_stop = 5e-9;
  const auto result = osc::ring_rtn_analysis(config, 5, 0.0);
  ASSERT_GT(result.nominal.cycles, 5u);
  EXPECT_EQ(result.frequency_shift_ppm, 0.0);
  EXPECT_EQ(result.with_rtn.cycles, result.nominal.cycles);
  EXPECT_TRUE(same_bits(result.with_rtn.mean, result.nominal.mean));
  EXPECT_TRUE(same_bits(result.with_rtn.stddev, result.nominal.stddev));
  EXPECT_TRUE(same_bits(result.with_rtn.periods, result.nominal.periods));
}

// ----------------------------------------------------------------- fan-out

TEST(RtnPipelineFanOut, ColumnIsBitIdenticalInsideAPoolJob) {
  sram::ColumnConfig config;
  config.tech = physics::technology("90nm");
  config.num_cells = 4;
  config.initial_bits = {0, 1, 1, 0};
  config.ops = {sram::ColumnOp::write(0, 1), sram::ColumnOp::read(0),
                sram::ColumnOp::read(1), sram::ColumnOp::read(3)};
  // From this thread the 24 devices fan out over the pool (on a host with
  // more than one CPU); from inside a pool job the same call runs them
  // serially.
  const auto fanned = sram::run_column_rtn(config, 12, 60.0);
  sram::ColumnRtnResult serial;
  util::parallel_for_indexed(
      2,
      [&](std::size_t i) {
        if (i == 0) serial = sram::run_column_rtn(config, 12, 60.0);
      },
      2);

  expect_same_transient(fanned.rtn.nominal, serial.rtn.nominal);
  expect_same_transient(fanned.rtn.with_rtn, serial.rtn.with_rtn);
  ASSERT_EQ(fanned.rtn.traces.size(), 24u);
  ASSERT_EQ(serial.rtn.traces.size(), 24u);
  for (std::size_t k = 0; k < fanned.rtn.traces.size(); ++k) {
    SCOPED_TRACE("trace " + std::to_string(k));
    const auto& a = fanned.rtn.traces[k];
    const auto& b = serial.rtn.traces[k];
    EXPECT_EQ(a.device, b.device);
    expect_same_traps(a.traps, b.traps);
    expect_same_step(a.n_filled, b.n_filled);
    expect_same_pwl(a.i_rtn, b.i_rtn);
    expect_same_stats(a.stats, b.stats);
  }
  EXPECT_EQ(fanned.nominal_report.reads.size(), 3u);
  const auto same_report = [](const sram::ColumnReport& a,
                              const sram::ColumnReport& b) {
    ASSERT_EQ(a.reads.size(), b.reads.size());
    ASSERT_EQ(a.writes.size(), b.writes.size());
    EXPECT_EQ(a.any_error, b.any_error);
    EXPECT_TRUE(same_bits(a.min_sense_margin, b.min_sense_margin));
    for (std::size_t i = 0; i < a.reads.size(); ++i) {
      EXPECT_EQ(a.reads[i].sensed, b.reads[i].sensed);
      EXPECT_EQ(a.reads[i].disturbed, b.reads[i].disturbed);
      EXPECT_TRUE(same_bits(a.reads[i].sense_margin, b.reads[i].sense_margin));
    }
    for (std::size_t i = 0; i < a.writes.size(); ++i) {
      EXPECT_EQ(a.writes[i].ok, b.writes[i].ok);
    }
  };
  same_report(fanned.nominal_report, serial.nominal_report);
  same_report(fanned.rtn_report, serial.rtn_report);
}

}  // namespace
}  // namespace samurai
