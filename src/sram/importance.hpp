// Importance sampling for rare SRAM failures.
//
// The paper notes RTN-induced write errors are "extremely rare events";
// array bit-error rates live at 4-6 sigma of the local-variation
// distribution where naive Monte-Carlo needs millions of cells. The
// standard industry remedy is mean-shift importance sampling: draw the
// per-transistor V_T offsets from a distribution biased toward the
// failure region and re-weight each sample by its likelihood ratio, which
// leaves the estimator unbiased while concentrating samples where
// failures happen.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sram/methodology.hpp"

namespace samurai::sram {

struct ImportanceConfig {
  MethodologyConfig cell;   ///< pattern, tech, rtn_scale, ...
  double sigma_vt = 0.03;   ///< per-transistor V_T variation (1 sigma), V
  /// Mean shift of the biasing distribution per transistor ("M1".."M6",
  /// volts). Empty = naive Monte-Carlo.
  std::map<std::string, double> shift;
  std::size_t samples = 200;
  std::uint64_t seed = 1;
  bool count_slow_as_fail = false;
  bool with_rtn = true;     ///< judge the RTN run (false: nominal run)
  /// Worker threads. Every sample derives its randomness from
  /// `rng.split(n + 1)` and the estimator reduces per-sample terms in
  /// index order, so any thread count is bit-identical to the serial run.
  std::size_t threads = 1;
};

struct ImportanceResult {
  double failure_probability = 0.0;  ///< unbiased estimate
  double standard_error = 0.0;
  std::size_t failures_observed = 0; ///< raw failing samples
  double effective_sample_size = 0.0;///< (Σw)² / Σw² over all samples
  std::size_t samples = 0;
};

/// Estimate the probability that a random cell (V_T offsets ~ N(0, σ²)
/// per transistor, trap population per seed) fails the write pattern.
ImportanceResult estimate_failure_probability(const ImportanceConfig& config);

/// One importance sample: likelihood-ratio weight and pass/fail verdict.
struct ImportanceSample {
  double weight = 0.0;
  bool failed = false;
};

/// Evaluate sample `index` of the stream defined by `config`. This is the
/// loop body of `estimate_failure_probability`: the sample depends only on
/// (config, index) through `Rng(config.seed).split(index + 1)`, so external
/// drivers (the campaign runtime's shards) can partition [0, samples)
/// arbitrarily and still reproduce the in-process estimator bit-exactly.
ImportanceSample evaluate_importance_sample(const ImportanceConfig& config,
                                            std::size_t index);

/// Evaluate samples [first, first + count) of the same stream through the
/// batched fixed-grid transient engine. Requires `config.with_rtn == false`
/// (the RTN-injected run couples each lane to its own generated traces and
/// stays scalar): the verdict then depends only on the nominal transient,
/// so the whole SAMURAI phase is skipped and K cells share one lock-step
/// solve. Each sample draws its V_T offsets from exactly the stream
/// `evaluate_importance_sample` uses, so weights are bit-identical to the
/// scalar evaluator; verdicts come from the fixed-grid (not adaptive)
/// nominal waveform and are independent of how indices are grouped into
/// batches (all lanes share one breakpoint set, hence one step sequence).
std::vector<ImportanceSample> evaluate_importance_batch(
    const ImportanceConfig& config, std::size_t first, std::size_t count);

}  // namespace samurai::sram
