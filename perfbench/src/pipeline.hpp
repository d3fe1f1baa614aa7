// Traced re-compositions of the library's RTN pipeline.
//
// Each function here rebuilds one public entry point from the public
// per-layer calls it makes, with a span (trace.hpp) around every call, so
// the traced run attributes time to layers without instrumenting the
// library. The workloads assert that every re-composition reproduces its
// entry point's outputs bit for bit; a library change that makes them
// drift fails the benchmark's output check instead of silently skewing the
// split.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/rtn_generator.hpp"
#include "physics/mos_device.hpp"
#include "physics/srh_model.hpp"
#include "physics/trap.hpp"
#include "spice/analysis.hpp"
#include "spice/rtn_integration.hpp"
#include "sram/methodology.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = samurai::core;
namespace physics = samurai::physics;
namespace spice = samurai::spice;
namespace sram = samurai::sram;
namespace util = samurai::util;

/// Work the traced pipeline did that no library counter records. All of
/// them are computed by the benchmark, not measured inside the library.
struct PipelineCounts {
  std::atomic<std::uint64_t> srh_setups{0};       ///< SrhModel constructions
  std::atomic<std::uint64_t> traps_drawn{0};      ///< traps sampled
  std::atomic<std::uint64_t> schedule_points{0};  ///< Σ BiasSchedule sizes
  std::atomic<std::uint64_t> srh_evals{0};        ///< Σ traps × schedule points
};

/// core::generate_device_rtn with options.threads == 1, re-composed:
/// BiasSchedule::build, then per trap a BiasPropensity and simulate_trap on
/// rng.split(i + 1), then the Eq. 3 render.
core::DeviceRtnResult traced_device_rtn(const physics::SrhModel& model,
                                        const physics::MosDevice& device,
                                        const std::vector<physics::Trap>& traps,
                                        const core::Pwl& v_gs,
                                        const core::Pwl& i_d, util::Rng& rng,
                                        const core::RtnGeneratorOptions& options,
                                        PipelineCounts& counts);

/// sram::run_methodology, re-composed on circuits the benchmark owns.
sram::MethodologyResult traced_methodology(const sram::MethodologyConfig& config,
                                           PipelineCounts& counts);

/// Bit-for-bit equality of pipeline outputs (doubles compared by bits).
bool same_double(double a, double b);
bool same_transient(const spice::TransientResult& a,
                    const spice::TransientResult& b);
bool same_device_rtn(const core::DeviceRtnResult& a,
                     const core::DeviceRtnResult& b);
bool same_traps(const std::vector<physics::Trap>& a,
                const std::vector<physics::Trap>& b);
bool same_step(const core::StepTrace& a, const core::StepTrace& b);
bool same_pwl(const core::Pwl& a, const core::Pwl& b);
bool same_stats(const core::UniformisationStats& a,
                const core::UniformisationStats& b);
bool same_stats(const spice::SolverStats& a, const spice::SolverStats& b);
bool same_report(const sram::PatternReport& a, const sram::PatternReport& b);
bool same_methodology(const sram::MethodologyResult& a,
                      const sram::MethodologyResult& b);

}  // namespace perfbench
