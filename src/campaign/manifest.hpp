// Campaign manifests: the serialisable description of one Monte-Carlo
// yield campaign.
//
// A manifest is deliberately *flat* — technology node, pattern bits and
// sweep knobs rather than a full `MethodologyConfig` — so it can round-trip
// through JSON and be diffed by eye. The runner expands it into the
// concrete `sram::*Config` deterministically (shard.cpp), which is what
// makes "same manifest ⇒ same campaign, bit for bit" a checkable contract.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace samurai::campaign {

enum class CampaignKind {
  kImportance,  ///< per-sample importance-sampled write-failure estimate
  kArrayYield,  ///< per-cell array Monte-Carlo (bit-error rate)
  kVmin,        ///< per-replica V_min sweeps (margin distribution)
};

std::string to_string(CampaignKind kind);
CampaignKind kind_from_string(const std::string& name);  ///< throws

struct Manifest {
  CampaignKind kind = CampaignKind::kImportance;
  std::string name = "campaign";
  std::uint64_t seed = 1;
  std::uint64_t budget = 1000;    ///< total sample budget
  std::uint64_t shard_size = 100; ///< samples per shard (checkpoint grain)
  std::uint64_t threads = 1;      ///< worker threads within a shard
  /// Monte-Carlo lanes per batched transient call. 1 = scalar samples.
  /// > 1 routes each group of `batch` consecutive sample indices through
  /// the lock-step batched fixed-grid engine (spice/batch.hpp); only valid
  /// for kImportance with with_rtn = false (the nominal-only workload whose
  /// lanes share one topology and breakpoint set). Sample outcomes are
  /// independent of the grouping, so `batch` is a throughput knob — but the
  /// batched path integrates on the fixed grid, so estimates match scalar
  /// fixed-grid runs, not adaptive-step ones.
  std::uint64_t batch = 1;

  // Sequential early stopping: stop once the relative confidence-interval
  // half-width (z·SE / estimate) drops to the target. 0 = run the budget.
  double target_rel_half_width = 0.0;
  double confidence_z = 1.959963984540054;  ///< 95 % two-sided
  std::uint64_t min_samples = 0;  ///< never stop before this many samples

  // Workload knobs, mirroring what the benches/examples configure.
  std::string node = "90nm";
  double v_dd = 0.0;               ///< 0 = node default
  std::string bits = "10";         ///< write pattern
  double rtn_scale = 30.0;
  double extra_node_cap = 40e-15;  ///< F
  double period = 1e-9;            ///< s, per pattern op
  double sigma_vt = 0.03;          ///< V, per-transistor variation (1σ)
  std::array<double, 6> shift{};   ///< mean shifts for M1..M6, V
  bool count_slow_as_fail = false;
  bool with_rtn = true;

  // Array footprint (kArrayYield). 0/0 = derive the population from the
  // sample budget (one cell per sample, the historical behaviour). When
  // set, the campaign samples cells of a fixed R×C array, so the budget
  // must not exceed rows·cols.
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;

  // kVmin only.
  double v_lo = 0.7;
  double v_hi = 0.0;               ///< 0 = node default V_dd
  double resolution = 0.025;
  std::uint64_t rtn_seeds = 1;     ///< trap draws per supply point

  std::uint64_t shard_count() const;
  /// Throws std::invalid_argument if the manifest cannot run.
  void validate() const;

  std::string to_json() const;
  static Manifest from_json(const std::string& text);  ///< throws
};

}  // namespace samurai::campaign
