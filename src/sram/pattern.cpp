#include "sram/pattern.hpp"

#include <stdexcept>

namespace samurai::sram {

std::string op_name(Op op) {
  switch (op) {
    case Op::kWrite0: return "W0";
    case Op::kWrite1: return "W1";
    case Op::kRead: return "RD";
    case Op::kHold: return "HD";
  }
  return "??";
}

std::vector<Op> ops_from_bits(const std::vector<int>& bits) {
  std::vector<Op> ops;
  ops.reserve(bits.size());
  for (int bit : bits) ops.push_back(bit ? Op::kWrite1 : Op::kWrite0);
  return ops;
}

double PatternWaveforms::slot_start(std::size_t k) const {
  return static_cast<double>(k) * timing.period;
}

double PatternWaveforms::wl_off_time(std::size_t k) const {
  return slot_start(k) +
         (timing.wl_delay_frac + timing.wl_high_frac) * timing.period +
         timing.edge;
}

void drive_to(core::Pwl& wave, double t, double edge, double value) {
  const double current = wave.values().empty() ? value : wave.values().back();
  if (current == value) return;
  if (t > wave.back_time()) wave.append(t, current);
  wave.append(t + edge, value);
}

PatternWaveforms build_pattern(const std::vector<Op>& ops, double v_dd,
                               const PatternTiming& timing) {
  if (ops.empty()) throw std::invalid_argument("build_pattern: empty op list");
  if (!(timing.wl_delay_frac + timing.wl_high_frac < 1.0)) {
    throw std::invalid_argument("build_pattern: WL window exceeds the slot");
  }
  PatternWaveforms wf;
  wf.ops = ops;
  wf.timing = timing;
  wf.t_end = static_cast<double>(ops.size()) * timing.period;
  wf.wl.append(0.0, 0.0);
  wf.bl.append(0.0, v_dd);
  wf.blb.append(0.0, v_dd);

  for (std::size_t k = 0; k < ops.size(); ++k) {
    const double start = static_cast<double>(k) * timing.period;
    const double wl_on = start + timing.wl_delay_frac * timing.period;
    const double wl_off =
        start + (timing.wl_delay_frac + timing.wl_high_frac) * timing.period;
    const Op op = ops[k];

    // Bitlines settle at the slot start, before WL rises.
    switch (op) {
      case Op::kWrite0:
        drive_to(wf.bl, start, timing.edge, 0.0);
        drive_to(wf.blb, start, timing.edge, v_dd);
        break;
      case Op::kWrite1:
        drive_to(wf.bl, start, timing.edge, v_dd);
        drive_to(wf.blb, start, timing.edge, 0.0);
        break;
      case Op::kRead:
        drive_to(wf.bl, start, timing.edge, v_dd);
        drive_to(wf.blb, start, timing.edge, v_dd);
        break;
      case Op::kHold:
        break;
    }
    if (op != Op::kHold) {
      drive_to(wf.wl, wl_on, timing.edge, v_dd);
      drive_to(wf.wl, wl_off, timing.edge, 0.0);
    }
    // Release bitlines to the idle level after the wordline closes.
    const double release = wl_off + 2.0 * timing.edge;
    if (release < start + timing.period) {
      drive_to(wf.bl, release, timing.edge, v_dd);
      drive_to(wf.blb, release, timing.edge, v_dd);
    }
  }
  return wf;
}

}  // namespace samurai::sram
