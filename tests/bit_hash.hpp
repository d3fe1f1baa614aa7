// FNV-1a over the exact bit patterns of simulation outputs, for golden
// tests that pin a refactor to the previous results bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/waveform.hpp"
#include "physics/trap.hpp"
#include "spice/analysis.hpp"

namespace samurai {

/// FNV-1a over the bit patterns of everything added.
class BitHash {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (double value : values) add(value);
  }
  void add(const std::string& text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (char c : text) add(static_cast<std::uint64_t>(c));
  }
  void add(const spice::TransientResult& result) {
    add(result.times());
    for (const auto& node : result.node_names()) {
      add(node);
      add(result.voltage_samples(node));
    }
    for (const auto& counter : spice::kSolverCounters) {
      add(result.stats().*counter.field);
    }
  }
  void add(const std::vector<physics::Trap>& traps) {
    add(static_cast<std::uint64_t>(traps.size()));
    for (const auto& trap : traps) {
      add(trap.y_tr);
      add(trap.e_tr);
      add(static_cast<std::uint64_t>(trap.init_state));
    }
  }
  void add(const core::StepTrace& trace) {
    add(trace.initial_value());
    add(trace.times());
    add(trace.values());
  }
  void add(const core::Pwl& waveform) {
    add(waveform.times());
    add(waveform.values());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace samurai
