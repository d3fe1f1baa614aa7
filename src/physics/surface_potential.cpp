#include "physics/surface_potential.hpp"

#include <cmath>

#include "physics/constants.hpp"

namespace samurai::physics {

SurfacePotentialSolver::SurfacePotentialSolver(const Technology& tech)
    : v_fb_(tech.v_fb),
      t_ox_(tech.t_ox),
      phi_t_(tech.phi_t()),
      phi_f_(tech.phi_f()),
      gamma_b_(tech.gamma_body()) {}

double SurfacePotentialSolver::gate_voltage_of_psi(double psi) const {
  const double u = psi / phi_t_;
  // Clamp the exponentials: beyond ~40 φ_t the charge term is astronomically
  // large and bisection will never go there anyway.
  const double eu = std::exp(std::min(-u, 60.0));
  const double inv = std::exp(-2.0 * phi_f_ / phi_t_) *
                     (std::exp(std::min(u, 60.0)) - u - 1.0);
  const double h = (eu + u - 1.0) + inv;
  const double charge = gamma_b_ * std::sqrt(std::max(phi_t_ * h, 0.0));
  return v_fb_ + psi + (psi >= 0.0 ? charge : -charge);
}

double SurfacePotentialSolver::solve_psi_s(double v_gb) const {
  // The map ψ_s -> V_gb is strictly increasing; bracket and bisect.
  double lo = -1.5;
  double hi = 2.0 * phi_f_ + 30.0 * phi_t_;
  if (gate_voltage_of_psi(lo) >= v_gb) return lo;
  if (gate_voltage_of_psi(hi) <= v_gb) return hi;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // Once the midpoint rounds onto an end of the bracket, every later
    // iteration recomputes the same midpoint and leaves the result at it:
    // stopping here returns the bits the full 80 iterations would.
    if (mid == lo || mid == hi) break;
    if (gate_voltage_of_psi(mid) < v_gb) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

SurfaceState SurfacePotentialSolver::solve(double v_gb) const {
  SurfaceState state;
  state.psi_s = solve_psi_s(v_gb);
  state.f_ox = (v_gb - v_fb_ - state.psi_s) / t_ox_;
  // Surface electron concentration n_s = n_i exp((ψ_s - φ_F)/φ_t), so the
  // Fermi level sits q(ψ_s - φ_F) above the intrinsic level (in eV, since
  // φ in volts maps 1:1 to eV).
  state.ef_minus_ei = state.psi_s - phi_f_;
  return state;
}

}  // namespace samurai::physics
