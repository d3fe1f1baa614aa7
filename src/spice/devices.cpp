#include "spice/devices.hpp"

#include <cmath>
#include <stdexcept>

namespace samurai::spice {

namespace {

double node_value(std::span<const double> x, int id) {
  return id < 0 ? 0.0 : x[static_cast<std::size_t>(id)];
}

void add_residual(ResidualSink& f, int id, double value) { f.add(id, value); }

}  // namespace

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, int node_p, int node_n, double resistance)
    : Device(std::move(name)), p_(node_p), n_(node_n) {
  if (!(resistance > 0.0)) throw std::invalid_argument("Resistor: R <= 0");
  g_ = 1.0 / resistance;
}

void Resistor::load(const LoadContext& ctx) {
  if (ctx.scope == LoadScope::kNonlinear) return;
  const double v = node_value(ctx.x, p_) - node_value(ctx.x, n_);
  const double i = g_ * v;
  add_residual(*ctx.residual, p_, i);
  add_residual(*ctx.residual, n_, -i);
  if (ctx.jacobian->discarding()) return;
  ctx.jacobian->stamp(p_, p_, g_);
  ctx.jacobian->stamp(p_, n_, -g_);
  ctx.jacobian->stamp(n_, p_, -g_);
  ctx.jacobian->stamp(n_, n_, g_);
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, int node_p, int node_n, double capacitance)
    : Device(std::move(name)), p_(node_p), n_(node_n), c_(capacitance) {
  if (!(capacitance >= 0.0)) throw std::invalid_argument("Capacitor: C < 0");
}

double Capacitor::voltage(std::span<const double> x) const {
  return node_value(x, p_) - node_value(x, n_);
}

void Capacitor::load(const LoadContext& ctx) {
  if (ctx.scope == LoadScope::kNonlinear) return;
  // DC: open circuit. The early return drops this device's stamps from
  // the a0 == 0 program entirely, which is why the sparse solver records
  // separate stamp programs per (scope, a0 == 0) — see Device::load.
  if (ctx.a0 == 0.0) return;
  const double q = c_ * voltage(ctx.x);
  const double i = ctx.a0 * (q - q_prev_) + ctx.ci * i_prev_;
  add_residual(*ctx.residual, p_, i);
  add_residual(*ctx.residual, n_, -i);
  if (ctx.jacobian->discarding()) return;
  const double geq = ctx.a0 * c_;
  ctx.jacobian->stamp(p_, p_, geq);
  ctx.jacobian->stamp(p_, n_, -geq);
  ctx.jacobian->stamp(n_, p_, -geq);
  ctx.jacobian->stamp(n_, n_, geq);
}

void Capacitor::commit(std::span<const double> x, double a0, double ci) {
  const double q = c_ * voltage(x);
  i_prev_ = a0 * (q - q_prev_) + ci * i_prev_;
  q_prev_ = q;
}

void Capacitor::reset_history() {
  q_prev_ = 0.0;
  i_prev_ = 0.0;
}

// ----------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(Circuit& circuit, std::string name, int node_p,
                             int node_n, core::Pwl waveform)
    : Device(std::move(name)),
      circuit_(&circuit),
      p_(node_p),
      n_(node_n),
      branch_(circuit.alloc_branch()),
      waveform_(std::move(waveform)) {}

VoltageSource& VoltageSource::dc(Circuit& circuit, std::string name, int node_p,
                                 int node_n, double value) {
  return circuit.add<VoltageSource>(circuit, std::move(name), node_p, node_n,
                                    core::Pwl::constant(value));
}

int VoltageSource::branch_index() const { return circuit_->branch_index(branch_); }

void VoltageSource::load(const LoadContext& ctx) {
  if (ctx.scope == LoadScope::kNonlinear) return;
  const int br = branch_index();
  const double i_branch = node_value(ctx.x, br);
  // KCL: branch current leaves the + node and enters the - node.
  add_residual(*ctx.residual, p_, i_branch);
  add_residual(*ctx.residual, n_, -i_branch);
  // Branch equation: v(p) - v(n) = V(t).
  const double v = node_value(ctx.x, p_) - node_value(ctx.x, n_);
  add_residual(*ctx.residual, br, v - waveform_.eval(ctx.time));
  if (ctx.jacobian->discarding()) return;
  ctx.jacobian->stamp(p_, br, 1.0);
  ctx.jacobian->stamp(n_, br, -1.0);
  ctx.jacobian->stamp(br, p_, 1.0);
  ctx.jacobian->stamp(br, n_, -1.0);
}

void VoltageSource::collect_breakpoints(std::vector<double>& breakpoints) const {
  if (!waveform_.is_constant()) {
    breakpoints.insert(breakpoints.end(), waveform_.times().begin(),
                       waveform_.times().end());
  }
}

// ----------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, int node_p, int node_n,
                             core::Pwl waveform)
    : Device(std::move(name)), p_(node_p), n_(node_n), waveform_(std::move(waveform)) {}

void CurrentSource::load(const LoadContext& ctx) {
  if (ctx.scope == LoadScope::kNonlinear) return;
  const double i = waveform_.eval(ctx.time);
  add_residual(*ctx.residual, p_, i);
  add_residual(*ctx.residual, n_, -i);
}

void CurrentSource::collect_breakpoints(std::vector<double>& breakpoints) const {
  if (emit_breakpoints_ && !waveform_.is_constant()) {
    breakpoints.insert(breakpoints.end(), waveform_.times().begin(),
                       waveform_.times().end());
  }
}

// --------------------------------------------------- CallbackCurrentSource

CallbackCurrentSource::CallbackCurrentSource(std::string name, int node_p,
                                             int node_n,
                                             std::function<double(double)> current_of_t)
    : Device(std::move(name)), p_(node_p), n_(node_n), current_(std::move(current_of_t)) {
  if (!current_) throw std::invalid_argument("CallbackCurrentSource: null callback");
}

void CallbackCurrentSource::load(const LoadContext& ctx) {
  if (ctx.scope == LoadScope::kNonlinear) return;
  const double i = current_(ctx.time);
  add_residual(*ctx.residual, p_, i);
  add_residual(*ctx.residual, n_, -i);
}

// ------------------------------------------------------------------ Mosfet

Mosfet::Mosfet(std::string name, int drain, int gate, int source, int bulk,
               physics::MosDevice model)
    : Device(std::move(name)), d_(drain), g_(gate), s_(source), b_(bulk),
      terminals_{drain, gate, source, bulk}, model_(std::move(model)) {
  const auto& geom = model_.geometry();
  const double c_gate = model_.tech().c_ox() * geom.width * geom.length;
  // Meyer-style constant split: half the gate capacitance to each of
  // source and drain plus ~20% overlap, ~40% junction caps to bulk.
  const double c_gs = 0.5 * c_gate + 0.2 * c_gate;
  const double c_gd = 0.5 * c_gate + 0.2 * c_gate;
  const double c_j = 0.4 * c_gate;
  charges_ = {
      {g_, s_, c_gs, 0.0, 0.0},
      {g_, d_, c_gd, 0.0, 0.0},
      {d_, b_, c_j, 0.0, 0.0},
      {s_, b_, c_j, 0.0, 0.0},
  };
}

double Mosfet::elem_voltage(const ChargeElement& e, std::span<const double> x) {
  return node_value(x, e.p) - node_value(x, e.n);
}

void Mosfet::load_charge(const LoadContext& ctx, ChargeElement& e) {
  if (ctx.a0 == 0.0) return;
  const double q = e.cap * elem_voltage(e, ctx.x);
  const double i = ctx.a0 * (q - e.q_prev) + ctx.ci * e.i_prev;
  add_residual(*ctx.residual, e.p, i);
  add_residual(*ctx.residual, e.n, -i);
  if (ctx.jacobian->discarding()) return;
  const double geq = ctx.a0 * e.cap;
  ctx.jacobian->stamp(e.p, e.p, geq);
  ctx.jacobian->stamp(e.p, e.n, -geq);
  ctx.jacobian->stamp(e.n, e.p, -geq);
  ctx.jacobian->stamp(e.n, e.n, geq);
}

void Mosfet::commit_charge(ChargeElement& e, std::span<const double> x,
                           double a0, double ci) {
  const double q = e.cap * elem_voltage(e, x);
  e.i_prev = a0 * (q - e.q_prev) + ci * e.i_prev;
  e.q_prev = q;
}

void Mosfet::load(const LoadContext& ctx) {
  // The constant companion capacitances are the MOSFET's affine part: they
  // belong to the cached base, so the Newton iteration re-stamps only the
  // channel.
  if (ctx.scope == LoadScope::kLinear) {
    for (auto& charge : charges_) load_charge(ctx, charge);
    return;
  }

  const double vd = node_value(ctx.x, d_);
  const double vg = node_value(ctx.x, g_);
  const double vs = node_value(ctx.x, s_);
  const double vb = node_value(ctx.x, b_);
  const auto op = model_.evaluate(vg - vs, vd - vs, vb - vs);
  stamp_channel(ctx, op);
}

void Mosfet::stamp_channel(const LoadContext& ctx,
                           const physics::MosOperatingPoint& op) const {
  // Channel current i_d flows drain -> source inside the device, so it
  // leaves the drain node and enters the source node.
  add_residual(*ctx.residual, d_, op.i_d);
  add_residual(*ctx.residual, s_, -op.i_d);
  const double gm = op.g_m;
  const double gds = op.g_ds;
  const double gmb = op.g_mb;
  const double gs_total = -(gm + gds + gmb);
  ctx.jacobian->stamp(d_, g_, gm);
  ctx.jacobian->stamp(d_, d_, gds);
  ctx.jacobian->stamp(d_, b_, gmb);
  ctx.jacobian->stamp(d_, s_, gs_total);
  ctx.jacobian->stamp(s_, g_, -gm);
  ctx.jacobian->stamp(s_, d_, -gds);
  ctx.jacobian->stamp(s_, b_, -gmb);
  ctx.jacobian->stamp(s_, s_, -gs_total);
}

void Mosfet::commit(std::span<const double> x, double a0, double ci) {
  for (auto& charge : charges_) commit_charge(charge, x, a0, ci);
}

void Mosfet::reset_history() {
  for (auto& charge : charges_) {
    charge.q_prev = 0.0;
    charge.i_prev = 0.0;
  }
}

// --------------------------------------------------------------- waveforms

core::Pwl pulse_waveform(double v0, double v1, double delay, double rise,
                         double width, double fall, double period,
                         std::size_t cycles) {
  if (!(rise > 0.0) || !(fall > 0.0) || !(width > 0.0) ||
      !(period >= rise + width + fall)) {
    throw std::invalid_argument("pulse_waveform: inconsistent timing");
  }
  core::Pwl wave;
  wave.append(0.0, v0);
  double t = delay;
  if (t > 0.0) wave.append(t, v0);
  for (std::size_t c = 0; c < cycles; ++c) {
    const double start = delay + static_cast<double>(c) * period;
    if (start > wave.back_time()) wave.append(start, v0);
    wave.append(start + rise, v1);
    wave.append(start + rise + width, v1);
    wave.append(start + rise + width + fall, v0);
  }
  return wave;
}

}  // namespace samurai::spice
