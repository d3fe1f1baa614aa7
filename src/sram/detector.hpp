// Write-error and slow-down detection (paper Fig. 5 distinguishes three
// outcomes: clean write, slowed write, write error).
#pragma once

#include <optional>
#include <vector>

#include "core/waveform.hpp"
#include "sram/pattern.hpp"

namespace samurai::sram {

enum class OpOutcome { kOk, kSlow, kError };

struct OpReport {
  Op op = Op::kHold;
  int expected_bit = -1;              ///< -1 when the op doesn't set a value
  OpOutcome outcome = OpOutcome::kOk;
  double q_at_slot_end = 0.0;         ///< V
  /// Time after WL de-assertion at which Q settled to the expected value
  /// (only meaningful for writes); unset if it never settled in the slot.
  std::optional<double> settle_after_wl;
};

struct PatternReport {
  std::vector<OpReport> ops;
  bool any_error = false;
  bool any_slow = false;
};

/// |Q - target| must be below this fraction of v_dd to count as settled.
inline constexpr double kSettleFrac = 0.15;

struct DetectorOptions {
  double v_dd = 1.0;
  /// A write counts as "slow" if Q settles only later than this fraction
  /// of the slot period after WL turns off.
  double slow_margin_frac = 0.05;
};

/// Analyse a storage-node waveform Q(t) against the driven pattern.
/// The expected bit tracks writes; reads and holds must preserve it.
PatternReport check_pattern(const core::Pwl& q, const PatternWaveforms& pattern,
                            const DetectorOptions& options);

}  // namespace samurai::sram
