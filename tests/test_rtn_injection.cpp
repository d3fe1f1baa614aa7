// The error bound of grid-sampled RTN injection (DESIGN.md §19).
//
// The injected sources are grid-sampled: the solver reads I_RTN(t) at the
// steps the circuit and the step controller choose, and the trace's
// corners are not breakpoints. The bound: against a rerun of the same
// circuit at dt_max/10, the injected pass errs at slot end by no more
// than 1.25x what the nominal pass errs against its own dt_max/10 rerun.
// The injected rerun re-injects each sample's own traces: they depend on
// the nominal bias, so regenerating them would compare two realisations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/shard.hpp"
#include "spice/devices.hpp"
#include "sram/methodology.hpp"
#include "util/rng.hpp"

namespace samurai {
namespace {

/// run_methodology's circuit and transient, rebuilt by hand at `dt_max`,
/// with `result`'s six I_RTN traces injected opposing each channel when
/// `inject` is set.
spice::TransientResult rerun(const sram::MethodologyConfig& config,
                             const sram::MethodologyResult& result,
                             bool inject, double dt_max) {
  spice::Circuit circuit;
  const auto handles = sram::build_6t_cell(circuit, config.tech, config.sizing,
                                           "", config.vth_shifts);
  const auto node = [&](const std::string& name) {
    return circuit.find_node(name);
  };
  spice::VoltageSource::dc(circuit, "Vdd", node(handles.vdd), spice::kGround,
                           config.tech.v_dd);
  circuit.add<spice::VoltageSource>(circuit, "Vwl", node(handles.wl),
                                    spice::kGround, result.pattern.wl);
  circuit.add<spice::VoltageSource>(circuit, "Vbl", node(handles.bl),
                                    spice::kGround, result.pattern.bl);
  circuit.add<spice::VoltageSource>(circuit, "Vblb", node(handles.blb),
                                    spice::kGround, result.pattern.blb);
  if (inject) {
    for (int m = 1; m <= 6; ++m) {
      const auto* fet = handles.mosfet(m);
      circuit.add<spice::CurrentSource>(
          "Irtn_M" + std::to_string(m), fet->drain(), fet->source(),
          result.rtn[static_cast<std::size_t>(m - 1)].i_rtn.scaled(-1.0));
    }
  }
  spice::TransientOptions options = config.transient;
  options.t_stop = result.pattern.t_end;
  options.dt_max = dt_max;
  options.dc.nodeset[handles.q] = 0.0;
  options.dc.nodeset[handles.qb] = config.tech.v_dd;
  options.dc.nodeset[handles.vdd] = config.tech.v_dd;
  options.dc.nodeset[handles.bl] = config.tech.v_dd;
  options.dc.nodeset[handles.blb] = config.tech.v_dd;
  return spice::transient(circuit, options);
}

bool same_transient(const spice::TransientResult& a,
                    const spice::TransientResult& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  if (a.node_names() != b.node_names() || !same(a.times(), b.times())) {
    return false;
  }
  for (const auto& name : a.node_names()) {
    if (!same(a.voltage_samples(name), b.voltage_samples(name))) return false;
  }
  return true;
}

/// One pass against its dt_max/10 rerun, over a set of samples.
struct PassError {
  double max_dq = 0.0;    ///< largest |q(slot end) - q_fine(slot end)|, V
  std::size_t flips = 0;  ///< ops whose outcome differs from the rerun's
  std::size_t ops = 0;

  void add(const sram::PatternReport& pass, const sram::PatternReport& fine) {
    ASSERT_EQ(pass.ops.size(), fine.ops.size());
    for (std::size_t k = 0; k < pass.ops.size(); ++k) {
      max_dq = std::max(max_dq, std::abs(pass.ops[k].q_at_slot_end -
                                         fine.ops[k].q_at_slot_end));
      flips += pass.ops[k].outcome != fine.ops[k].outcome ? 1 : 0;
      ++ops;
    }
  }
};

struct InjectionError {
  PassError nominal, injected;
};

/// Both passes of each sample against their dt_max/10 reruns. The first
/// sample also checks that `rerun` at the library's own dt_max rebuilds
/// both passes bit for bit, so the reruns differ from them in dt_max only.
InjectionError measure(const std::vector<sram::MethodologyConfig>& samples) {
  InjectionError error;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    SCOPED_TRACE("sample " + std::to_string(s));
    const auto& config = samples[s];
    const auto result = sram::run_methodology(config);
    const double dt_max = config.timing.period / 40.0;
    if (s == 0) {
      EXPECT_TRUE(same_transient(rerun(config, result, false, dt_max),
                                 result.nominal));
      EXPECT_TRUE(same_transient(rerun(config, result, true, dt_max),
                                 result.with_rtn));
    }
    sram::DetectorOptions detector = config.detector;
    detector.v_dd = config.tech.v_dd;
    const auto fine_report = [&](bool inject) {
      return sram::check_pattern(
          rerun(config, result, inject, dt_max / 10.0).voltage(result.q_node),
          result.pattern, detector);
    };
    error.nominal.add(result.nominal_report, fine_report(false));
    error.injected.add(result.rtn_report, fine_report(true));
  }
  return error;
}

void report(const char* name, const InjectionError& error) {
  std::printf("[injection] %s, %zu ops: nominal max|dq| %.3f mV, %zu flips; "
              "injected max|dq| %.3f mV, %zu flips; ratio %.3f\n",
              name, error.nominal.ops, error.nominal.max_dq * 1e3,
              error.nominal.flips, error.injected.max_dq * 1e3,
              error.injected.flips,
              error.injected.max_dq / error.nominal.max_dq);
}

TEST(RtnInjection, GridSampledErrIsTheNominalsErr) {
  // perfbench's `methodology` workload at seed 1: 90 nm, V_dd 0.9, 40 fF,
  // 1 ns period, pattern [1,1,0,1,0,1,0,0,1], RTN x30; its first 8 samples.
  std::vector<sram::MethodologyConfig> methodology;
  for (std::uint64_t k = 0; k < 8; ++k) {
    sram::MethodologyConfig config;
    config.tech = physics::technology("90nm");
    config.tech.v_dd = 0.9;
    config.sizing.extra_node_cap = 40e-15;
    config.timing.period = 1e-9;
    config.ops = sram::ops_from_bits({1, 1, 0, 1, 0, 1, 0, 0, 1});
    config.rtn_scale = 30.0;
    config.seed = util::Rng(1).split(k + 1).next_u64();
    methodology.push_back(config);
  }
  const auto m_error = measure(methodology);
  report("methodology", m_error);
  EXPECT_LE(m_error.injected.max_dq, 1.25 * m_error.nominal.max_dq);
  EXPECT_GT(m_error.nominal.max_dq, 0.0);
  EXPECT_EQ(m_error.nominal.flips, 0u);
  EXPECT_EQ(m_error.injected.flips, 0u);

  // perfbench's `campaign_rtn` cell at seed 1: bits "10", V_dd 0.97, RTN
  // x30, sigma_VT 30 mV, M1/M2 shifted 90 mV; its first 16 importance
  // samples, drawn as sram::evaluate_importance_sample draws them.
  campaign::Manifest manifest;
  manifest.seed = util::Rng(1).split(1).next_u64();
  manifest.node = "90nm";
  manifest.v_dd = 0.97;
  manifest.bits = "10";
  manifest.rtn_scale = 30.0;
  manifest.sigma_vt = 0.03;
  manifest.shift[0] = manifest.shift[1] = 0.09;
  const auto importance = campaign::importance_config_from(manifest);
  std::vector<sram::MethodologyConfig> cell;
  for (std::size_t index = 0; index < 16; ++index) {
    util::Rng sample_rng = util::Rng(importance.seed).split(index + 1);
    sram::MethodologyConfig config = importance.cell;
    config.seed = sample_rng.next_u64();
    for (int m = 1; m <= 6; ++m) {
      const std::string name = "M" + std::to_string(m);
      const auto it = importance.shift.find(name);
      const double shift = it == importance.shift.end() ? 0.0 : it->second;
      config.vth_shifts[name] = sample_rng.normal(shift, importance.sigma_vt);
    }
    cell.push_back(config);
  }
  const auto c_error = measure(cell);
  report("campaign_rtn", c_error);
  EXPECT_LE(c_error.injected.max_dq, 1.25 * c_error.nominal.max_dq);
  EXPECT_GT(c_error.nominal.max_dq, 0.0);
}

}  // namespace
}  // namespace samurai
