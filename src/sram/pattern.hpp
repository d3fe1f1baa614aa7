// Read/write test patterns: the operation sequences driven onto WL/BL/BLB
// (paper Fig. 4 left shows one write-1 slot; Fig. 8 drives the bit pattern
// [1,1,0,1,0,1,0,0,1]).
#pragma once

#include <string>
#include <vector>

#include "core/waveform.hpp"

namespace samurai::sram {

enum class Op { kWrite0, kWrite1, kRead, kHold };

/// Human-readable op name ("W0", "W1", "RD", "HD").
std::string op_name(Op op);

/// Ops for a bit pattern: each bit becomes a write of that value.
std::vector<Op> ops_from_bits(const std::vector<int>& bits);

struct PatternTiming {
  double period = 2e-9;        ///< one op slot, s
  double wl_delay_frac = 0.2;  ///< WL rises this far into the slot
  double wl_high_frac = 0.5;   ///< WL stays high this fraction of the slot
  double edge = 50e-12;        ///< rise/fall time of WL and BL edges, s
};

struct PatternWaveforms {
  core::Pwl wl;   ///< wordline drive
  core::Pwl bl;   ///< bitline drive
  core::Pwl blb;  ///< complementary bitline drive
  double t_end = 0.0;
  std::vector<Op> ops;
  PatternTiming timing;

  /// Slot boundaries for op k: [slot_start(k), slot_start(k)+period).
  double slot_start(std::size_t k) const;
  /// Time WL is de-asserted (fully low) in slot k.
  double wl_off_time(std::size_t k) const;
};

/// Append a transition to `wave` at time t over `edge` seconds, if `value`
/// differs from its current level. Shared by the cell pattern and the
/// column's and the array's control waveforms.
void drive_to(core::Pwl& wave, double t, double edge, double value);

/// Build the drive waveforms for an op sequence at supply v_dd.
/// Writes drive BL/BLB differentially; reads drive both bitlines to v_dd
/// (a strongly driven read: the classic read-disturb stimulus); holds keep
/// WL low. Bitlines idle at v_dd between ops.
PatternWaveforms build_pattern(const std::vector<Op>& ops, double v_dd,
                               const PatternTiming& timing = {});

}  // namespace samurai::sram
