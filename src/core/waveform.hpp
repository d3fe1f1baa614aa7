// Waveform value types shared between SAMURAI and the circuit simulator:
//
//  * `Pwl`       — piecewise-linear waveform (SPICE node voltages, biases,
//                  PWL sources). Continuous, clamped outside its span.
//  * `StepTrace` — right-continuous piecewise-constant trace (trap
//                  occupancy counts, telegraph signals).
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

namespace samurai::core {

/// Piecewise-linear waveform over strictly increasing time points.
class Pwl {
 public:
  Pwl() = default;
  Pwl(std::vector<double> times, std::vector<double> values);
  // The hint cursor is atomic (it may be updated from concurrent const
  // eval calls), which forfeits the compiler-generated copy/move.
  Pwl(const Pwl& other);
  Pwl(Pwl&& other) noexcept;
  Pwl& operator=(const Pwl& other);
  Pwl& operator=(Pwl&& other) noexcept;

  /// A constant waveform (evaluates to `value` everywhere).
  static Pwl constant(double value);

  double eval(double t) const;
  double back_time() const { return times_.empty() ? 0.0 : times_.back(); }
  bool is_constant() const { return times_.size() <= 1; }

  const std::vector<double>& times() const noexcept { return times_; }
  const std::vector<double>& values() const noexcept { return values_; }
  std::size_t size() const noexcept { return values_.size(); }

  /// Append a breakpoint; time must exceed the current last time.
  void append(double t, double v);

  /// Sample onto an arbitrary grid.
  std::vector<double> sample(std::span<const double> grid) const;

  /// Pointwise scale (returns a new waveform).
  Pwl scaled(double factor) const;

 private:
  /// Last-segment cache for forward sweeps. `eval` is const but updates
  /// the cursor, and one waveform may be evaluated from many threads (the
  /// Monte-Carlo paths share extracted bias waveforms), so the cursor is a
  /// relaxed atomic: a stale or torn-free concurrent value only changes
  /// where the segment search starts, never the result.
  mutable std::atomic<std::size_t> hint_{0};

  std::vector<double> times_;
  std::vector<double> values_;
};

/// Right-continuous step function: value(i) holds on [time(i), time(i+1)),
/// and value.back() holds from time.back() onward; value is
/// `initial_value` before time.front(). Used for occupancy counts.
class StepTrace {
 public:
  StepTrace() = default;
  StepTrace(double initial_value, std::vector<double> times,
            std::vector<double> values);

  double eval(double t) const;
  double initial_value() const noexcept { return initial_; }
  const std::vector<double>& times() const noexcept { return times_; }
  const std::vector<double>& values() const noexcept { return values_; }
  std::size_t num_steps() const noexcept { return times_.size(); }

  std::vector<double> sample(std::span<const double> grid) const;

  /// Time-weighted mean over [t0, t1].
  double time_average(double t0, double t1) const;

  /// The paper's Algorithm-1 output convention: parallel [times, states]
  /// arrays with duplicated time points at each step so the trace plots as
  /// a telegraph waveform. Includes the endpoints t0 and t1.
  void to_paper_arrays(double t0, double t1, std::vector<double>& times,
                       std::vector<double>& states) const;

 private:
  double initial_ = 0.0;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace samurai::core
