#include "sram/detector.hpp"

#include <cmath>
#include <stdexcept>

namespace samurai::sram {

PatternReport check_pattern(const core::Pwl& q, const PatternWaveforms& pattern,
                            const DetectorOptions& options) {
  if (!(options.v_dd > 0.0)) throw std::invalid_argument("check_pattern: v_dd <= 0");
  PatternReport report;
  report.ops.reserve(pattern.ops.size());

  const double tol = kSettleFrac * options.v_dd;
  int expected_bit = -1;  // unknown until the first write

  for (std::size_t k = 0; k < pattern.ops.size(); ++k) {
    OpReport op_report;
    op_report.op = pattern.ops[k];
    if (op_report.op == Op::kWrite0) expected_bit = 0;
    if (op_report.op == Op::kWrite1) expected_bit = 1;
    op_report.expected_bit = expected_bit;

    const double slot_end =
        pattern.slot_start(k) + pattern.timing.period - 1e-15;
    op_report.q_at_slot_end = q.eval(slot_end);

    if (expected_bit < 0) {  // nothing written yet: nothing to verify
      report.ops.push_back(op_report);
      continue;
    }
    const double target = expected_bit ? options.v_dd : 0.0;
    const bool correct_at_end =
        std::abs(op_report.q_at_slot_end - target) <= tol;

    if (!correct_at_end) {
      op_report.outcome = OpOutcome::kError;
      report.any_error = true;
      report.ops.push_back(op_report);
      continue;
    }

    const bool is_write =
        op_report.op == Op::kWrite0 || op_report.op == Op::kWrite1;
    if (is_write) {
      // Find when Q settles (and stays settled) after WL de-assertion.
      const double wl_off = pattern.wl_off_time(k);
      double settle_time = slot_end;  // pessimistic default
      // Scan backwards: the settle point is the last time |Q - target|
      // exceeded tol, clipped to wl_off.
      const auto& ts = q.times();
      const auto& vs = q.values();
      double last_bad = wl_off;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i] < pattern.slot_start(k) || ts[i] > slot_end) continue;
        if (std::abs(vs[i] - target) > tol && ts[i] > last_bad) {
          last_bad = ts[i];
        }
      }
      settle_time = last_bad;
      op_report.settle_after_wl = std::max(0.0, settle_time - wl_off);
      if (*op_report.settle_after_wl >
          options.slow_margin_frac * pattern.timing.period) {
        op_report.outcome = OpOutcome::kSlow;
        report.any_slow = true;
      }
    }
    report.ops.push_back(op_report);
  }
  return report;
}

}  // namespace samurai::sram
