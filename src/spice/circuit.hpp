// Circuit container and the device stamping interface — a compact MNA
// framework in the style of (and substituting for) the paper's SpiceOPUS.
//
// Unknown vector x = [node voltages (ground excluded) ; branch currents].
// Devices stamp the Newton system J·Δx = -f, where f is the vector of KCL
// residuals (sum of currents *leaving* each node) plus branch equations.
// Energy-storage elements use companion models: the integrator supplies
// a0 and ci such that i(t_{n+1}) = a0·(q_{n+1} - q_n) + ci·i_n
// (a0 = 1/h, ci = 0 for backward Euler; a0 = 2/h, ci = -1 for trapezoidal;
// a0 = 0 for DC, which opens all charge branches).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/matrix.hpp"

namespace samurai::spice {

/// Ground node id. Stamps to ground are dropped by StampSink::stamp.
inline constexpr int kGround = -1;

/// Which part of a device the solver is asking for. The transient fast
/// path loads the affine ("linear") part of every device once per step at
/// x = 0 — yielding the constant Jacobian stamps and the residual offset
/// f(0) — and then re-loads only the nonlinear parts (MOSFET channels)
/// inside the Newton iteration on top of a memcpy of the cached base.
enum class LoadScope {
  kLinear,     ///< only stamps affine in x with x-independent Jacobian
  kNonlinear,  ///< only stamps whose Jacobian depends on the iterate
};

struct LoadContext {
  double time = 0.0;
  double a0 = 0.0;  ///< companion coefficient, 0 in DC
  double ci = 0.0;  ///< history-current coefficient (0 for BE, -1 for TRAP)
  /// Jacobian stamping target. Dense solves bind it to a DenseMatrix;
  /// the sparse path binds recorded slot-pointer programs (see StampSink).
  StampSink* jacobian = nullptr;
  /// Residual target: a vector on the direct paths, a recorded program or
  /// a device's capture slice in the partitioned engine (ResidualSink).
  ResidualSink* residual = nullptr;
  std::span<const double> x;
  LoadScope scope = LoadScope::kLinear;
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Stamp Jacobian and residual at the current iterate, honouring
  /// `ctx.scope`: a kLinear call must stamp exactly the affine-in-x part
  /// (so that at x = 0 the residual is the device's constant offset), a
  /// kNonlinear call exactly the rest.
  ///
  /// Stamp-sequence contract (sparse slot replay): for a fixed scope and
  /// a fixed truth value of `a0 == 0`, the sequence of jacobian->stamp
  /// calls — count, order and (row, col) targets — and the sequence of
  /// residual->add rows must not depend on `ctx.x`, `ctx.time` or the
  /// stamped values. The sparse solver records each program once per
  /// topology and replays it through resolved value-slot pointers (the
  /// partitioned engine also captures residual adds by program
  /// position); a data-dependent sequence would desync the replay cursor
  /// (checked after every device loop).
  ///
  /// In the activity-partitioned engine, different devices' load and
  /// commit calls run concurrently on the shared pool (one task per
  /// device at a time), so a device may share only read-only state with
  /// other devices.
  virtual void load(const LoadContext& ctx) = 0;

  /// True when the device's *entire* load is affine in x with a Jacobian
  /// that depends only on (a0, ci) — R, C and independent sources. Such
  /// devices are skipped entirely inside the Newton iteration; partially
  /// linear devices (the MOSFET's constant companion capacitances) split
  /// their work across the kLinear/kNonlinear scopes instead.
  virtual bool is_linear() const noexcept { return false; }

  /// Nodes of x that the device's kNonlinear load reads — the elision
  /// contract for the activity-partitioned engine. A non-empty return
  /// promises that the kNonlinear stamps (Jacobian values *and* residual
  /// contributions) are a pure function of x at exactly these indices —
  /// independent of time, a0/ci and any committed history. Under that
  /// promise the engine may replay a cached snapshot of the stamps
  /// whenever x at these indices is unchanged (bit-identical at
  /// tolerance 0). Ground (negative) entries are permitted and ignored.
  /// The default empty span opts the device out of elision entirely.
  virtual std::span<const int> nonlinear_inputs() const { return {}; }

  /// Record charge/current history after a step is accepted. `a0`/`ci`
  /// are the coefficients the *accepted* step was integrated with.
  virtual void commit(std::span<const double> x, double a0, double ci);

  /// Forget all history (called before a fresh transient).
  virtual void reset_history();

  /// Contribute mandatory time points (source corners, trace switches).
  virtual void collect_breakpoints(std::vector<double>& breakpoints) const;

 private:
  std::string name_;
};

class Circuit {
 public:
  /// Get-or-create a node id. "0" and "gnd" name the ground node.
  int node(const std::string& name);

  /// Allocate a branch-current unknown; returns its index in x.
  int alloc_branch();

  /// Construct and register a device.
  template <typename DeviceT, typename... Args>
  DeviceT& add(Args&&... args) {
    auto device = std::make_unique<DeviceT>(std::forward<Args>(args)...);
    DeviceT& ref = *device;
    devices_.push_back(std::move(device));
    return ref;
  }

  std::size_t num_nodes() const noexcept { return node_names_.size(); }
  /// Size of the MNA unknown vector.
  std::size_t system_size() const noexcept { return num_nodes() + num_branches_; }
  /// Branch unknowns live after the node voltages in x.
  std::size_t branch_offset() const noexcept { return num_nodes(); }
  /// Index of branch `b` in x (call after all nodes are created).
  int branch_index(int branch) const {
    return static_cast<int>(branch_offset()) + branch;
  }

  const std::string& node_name(int id) const { return node_names_.at(static_cast<std::size_t>(id)); }
  const std::vector<std::string>& node_names() const noexcept { return node_names_; }
  bool has_node(const std::string& name) const { return node_ids_.count(name) != 0; }
  int find_node(const std::string& name) const;

  std::span<const std::unique_ptr<Device>> devices() const {
    return {devices_.data(), devices_.size()};
  }
  std::span<std::unique_ptr<Device>> devices() {
    return {devices_.data(), devices_.size()};
  }

  /// Find a device by name; returns nullptr if absent or wrong type.
  template <typename DeviceT>
  DeviceT* find(const std::string& name) {
    for (auto& device : devices_) {
      if (device->name() == name) return dynamic_cast<DeviceT*>(device.get());
    }
    return nullptr;
  }

 private:
  std::unordered_map<std::string, int> node_ids_;
  std::vector<std::string> node_names_;
  std::size_t num_branches_ = 0;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace samurai::spice
