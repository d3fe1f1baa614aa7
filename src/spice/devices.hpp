// Concrete circuit devices: linear elements, independent sources and the
// MOSFET (EKV-style DC model from src/physics plus companion-model
// capacitances).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "core/waveform.hpp"
#include "physics/mos_device.hpp"
#include "spice/circuit.hpp"

namespace samurai::spice {

class Resistor final : public Device {
 public:
  Resistor(std::string name, int node_p, int node_n, double resistance);
  void load(const LoadContext& ctx) override;
  bool is_linear() const noexcept override { return true; }

 private:
  int p_, n_;
  double g_;
};

/// Linear capacitor integrated with the companion model i = a0·Δq + ci·i_n.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, int node_p, int node_n, double capacitance);
  void load(const LoadContext& ctx) override;
  bool is_linear() const noexcept override { return true; }
  void commit(std::span<const double> x, double a0, double ci) override;
  void reset_history() override;

 private:
  double voltage(std::span<const double> x) const;
  int p_, n_;
  double c_;
  double q_prev_ = 0.0;
  double i_prev_ = 0.0;
};

/// Independent voltage source with a PWL (or constant) waveform. Adds one
/// branch-current unknown.
class VoltageSource final : public Device {
 public:
  VoltageSource(Circuit& circuit, std::string name, int node_p, int node_n,
                core::Pwl waveform);
  static VoltageSource& dc(Circuit& circuit, std::string name, int node_p,
                           int node_n, double value);

  void load(const LoadContext& ctx) override;
  bool is_linear() const noexcept override { return true; }
  void collect_breakpoints(std::vector<double>& breakpoints) const override;

  /// Index of this source's current unknown in x (current flows from the
  /// + node through the source to the - node).
  int branch_index() const;
  double value_at(double t) const { return waveform_.eval(t); }

 private:
  Circuit* circuit_;
  int p_, n_, branch_;
  core::Pwl waveform_;
};

/// Independent current source; positive current flows from the + node
/// through the source into the - node (SPICE convention). This is the
/// device that injects SAMURAI's I_RTN traces (paper Fig. 4 right).
///
/// Grid-sampled by default: the solver reads the waveform at whatever
/// steps the rest of the circuit and the step controller choose, and its
/// PWL corners are not breakpoints. An injected RTN trace carries hundreds
/// of envelope samples and trap corners per device; landing on each would
/// make the injected pass step on a different and much finer grid than the
/// nominal one (DESIGN.md §15, §19).
class CurrentSource final : public Device {
 public:
  CurrentSource(std::string name, int node_p, int node_n, core::Pwl waveform);
  void load(const LoadContext& ctx) override;
  bool is_linear() const noexcept override { return true; }
  void collect_breakpoints(std::vector<double>& breakpoints) const override;
  void set_waveform(core::Pwl waveform) { waveform_ = std::move(waveform); }
  /// true: every PWL corner becomes a step breakpoint. For stimuli whose
  /// corners are the point: the netlist `I` card, the ring's start-up kick
  /// and the Fig. 5 glitch pulse, whose 5-10 ps edges a grid step would
  /// otherwise straddle.
  void set_emit_breakpoints(bool emit) noexcept { emit_breakpoints_ = emit; }

 private:
  int p_, n_;
  core::Pwl waveform_;
  bool emit_breakpoints_ = false;
};

/// Current source whose value is an arbitrary function of time, used by
/// the bi-directionally coupled simulation where the injected RTN current
/// is produced on the fly from the evolving trap states.
class CallbackCurrentSource final : public Device {
 public:
  CallbackCurrentSource(std::string name, int node_p, int node_n,
                        std::function<double(double)> current_of_t);
  void load(const LoadContext& ctx) override;
  bool is_linear() const noexcept override { return true; }

 private:
  int p_, n_;
  std::function<double(double)> current_;
};

/// Four-terminal MOSFET: EKV-style DC current plus constant gate/junction
/// capacitances (Meyer-style split) integrated as companion elements.
class Mosfet final : public Device {
 public:
  Mosfet(std::string name, int drain, int gate, int source, int bulk,
         physics::MosDevice model);

  void load(const LoadContext& ctx) override;
  void commit(std::span<const double> x, double a0, double ci) override;
  void reset_history() override;
  /// The channel evaluation reads exactly the four terminal voltages and
  /// its stamps satisfy the purity/single-add contract (see Device), so
  /// the MOSFET is elidable in the activity-partitioned engine.
  std::span<const int> nonlinear_inputs() const override {
    return {terminals_.data(), terminals_.size()};
  }

  /// Stamp the channel (residual + 8 Jacobian entries) for an operating
  /// point that was already evaluated — the batched transient engine
  /// evaluates all lanes' channels in one SoA sweep, then replays each
  /// lane's stamps in device order through this hook. `load` goes through
  /// the same code, so the two paths emit identical stamp sequences.
  void stamp_channel(const LoadContext& ctx,
                     const physics::MosOperatingPoint& op) const;

  const physics::MosDevice& model() const noexcept { return model_; }
  int drain() const noexcept { return d_; }
  int gate() const noexcept { return g_; }
  int source() const noexcept { return s_; }
  int bulk() const noexcept { return b_; }

 private:
  struct ChargeElement {
    int p = kGround;
    int n = kGround;
    double cap = 0.0;
    double q_prev = 0.0;
    double i_prev = 0.0;
  };
  static double elem_voltage(const ChargeElement& e, std::span<const double> x);
  void load_charge(const LoadContext& ctx, ChargeElement& e);
  static void commit_charge(ChargeElement& e, std::span<const double> x,
                            double a0, double ci);

  int d_, g_, s_, b_;
  std::array<int, 4> terminals_{};  ///< {d, g, s, b} for nonlinear_inputs
  physics::MosDevice model_;
  std::vector<ChargeElement> charges_;
};

/// Helper: build a PULSE-style PWL waveform (v0 -> v1 pulses), matching
/// SPICE's PULSE(v0 v1 delay rise width fall period) repeated `cycles`
/// times.
core::Pwl pulse_waveform(double v0, double v1, double delay, double rise,
                         double width, double fall, double period,
                         std::size_t cycles);

}  // namespace samurai::spice
