// Surface-potential solver for a bulk MOS structure.
//
// The trap propensity ratio β(t) (paper Eq. 2) needs the surface Fermi
// alignment E_F - E_i and the oxide field F_ox at the instantaneous gate
// bias; both follow from the surface potential ψ_s(V_gs). We solve the
// classic charge-sheet implicit equation
//
//   V_gs = V_fb + ψ_s + sign(ψ_s) γ_b sqrt(φ_t h(ψ_s))
//   h(ψ) = (e^{-ψ/φt} + ψ/φt - 1) + e^{-2φF/φt} (e^{ψ/φt} - ψ/φt - 1)
//
// by bisection (the RHS is strictly monotone in ψ_s).
#pragma once

#include "physics/technology.hpp"

namespace samurai::physics {

struct SurfaceState {
  double psi_s;       ///< surface potential, V
  double f_ox;        ///< oxide field (V_gs - V_fb - ψ_s)/t_ox, V/m
  double ef_minus_ei; ///< E_F - E_i at the interface, eV
};

class SurfacePotentialSolver {
 public:
  explicit SurfacePotentialSolver(const Technology& tech);

  /// Solve for ψ_s at gate-to-bulk bias `v_gb` (volts). Accurate to
  /// ~1e-9 V over the accumulation → strong-inversion range.
  double solve_psi_s(double v_gb) const;

  /// Full surface state (ψ_s, oxide field, Fermi alignment).
  SurfaceState solve(double v_gb) const;

  /// The charge-sheet map ψ_s -> V_gb that solve_psi_s inverts (strictly
  /// increasing in ψ_s).
  double gate_voltage_of_psi(double psi) const;

 private:
  double v_fb_;
  double t_ox_;
  double phi_t_;
  double phi_f_;
  double gamma_b_;
};

}  // namespace samurai::physics
