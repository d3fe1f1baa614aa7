// Shockley-Read-Hall-style capture/emission propensity model for oxide
// traps — the paper's Eqs. (1) and (2):
//
//   λ_c(t) + λ_e(t) = 1 / (τ0 e^{γ y_tr})                      (Eq. 1)
//   β(t) = λ_e(t)/λ_c(t) = g e^{(E_T - E_F)/kT}                (Eq. 2)
//
// The bias dependence enters through E_T - E_F: the trap level E_T shifts
// with the oxide field (lever arm q F_ox y_tr) while the channel Fermi
// level E_F moves with the surface potential:
//
//   E_T - E_F |_t = E_tr - F_ox(t)·y_tr - (E_F - E_i)(V_gs(t))   [eV]
//
// Both F_ox and E_F - E_i come from the SurfacePotentialSolver, through a
// surface-state table that depends only on the technology and is shared
// by every model of it (see SurfaceTable).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "physics/surface_potential.hpp"
#include "physics/technology.hpp"
#include "physics/trap.hpp"

namespace samurai::physics {

struct Propensities {
  double lambda_c;  ///< capture propensity, 1/s (empty -> filled)
  double lambda_e;  ///< emission propensity, 1/s (filled -> empty)
};

/// The surface state tabulated on a uniform bias grid over
/// [lo, lo + step·(size-1)] = [-1, 2·v_dd + 1] V. It reads only v_fb,
/// t_ox, n_a, temperature and v_dd, so SrhModel memoises one immutable
/// table per distinct value of those five fields.
struct SurfaceTable {
  double lo = 0.0;
  double step = 0.0;
  std::vector<double> f_ox;
  std::vector<double> ef_minus_ei;
};

class SrhModel {
 public:
  /// Most surface tables the process-wide memo keeps; the least recently
  /// used is dropped first. Models hold their table by shared_ptr, so an
  /// eviction never invalidates a live model.
  static constexpr std::size_t kMaxMemoisedTables = 16;

  explicit SrhModel(const Technology& tech);

  /// The bias-independent total rate Λ = λ_c + λ_e for a trap at depth
  /// y_tr (paper Eq. 1). This is also a tight uniformisation bound since
  /// max(λ_c, λ_e) <= Λ at all times.
  double total_rate(const Trap& trap) const;

  /// The ratio β = λ_e/λ_c at gate bias v_gs (paper Eq. 2).
  double beta(const Trap& trap, double v_gs) const {
    return beta_at(trap, surface_state(v_gs));
  }

  /// E_T - E_F in eV at gate bias v_gs.
  double trap_fermi_gap(const Trap& trap, double v_gs) const {
    return fermi_gap_at(trap, surface_state(v_gs));
  }

  /// Both propensities at gate bias v_gs.
  Propensities propensities(const Trap& trap, double v_gs) const;

  /// Stationary filled probability 1/(1+β) at constant bias v_gs.
  double stationary_fill(const Trap& trap, double v_gs) const;

  /// Surface state at bias v_gs, interpolated in the shared table (the
  /// solver's bisection is too slow to run per candidate event). Falls
  /// back to the direct solve outside the tabulated range; ψ_s is only
  /// filled by the direct solve.
  SurfaceState surface_state(double v_gs) const;

  /// λ_c = Λ/(1+β) for a trap with total rate `total` = total_rate(trap)
  /// at a surface state from surface_state(). The one λ_c formula:
  /// propensities() and per-trap tabulation both evaluate it, so a table
  /// built from precomputed surface states is bit-identical to calling
  /// propensities() at every bias.
  double capture_rate(const Trap& trap, double total,
                      const SurfaceState& s) const {
    // Guard β=inf via the clamp in beta_at().
    return total / (1.0 + beta_at(trap, s));
  }

  const Technology& tech() const noexcept { return tech_; }

  /// The shared surface-state table behind surface_state().
  const SurfaceTable& surface_table() const noexcept { return *table_; }

  /// Number of tables the memo holds now (at most kMaxMemoisedTables).
  static std::size_t memoised_tables();

 private:
  double fermi_gap_at(const Trap& trap, const SurfaceState& s) const {
    // Oxide-field lever arm: a positive field (inversion) pulls the trap
    // level down relative to the channel by F_ox * y_tr (volts == eV here).
    return trap.e_tr - s.f_ox * trap.y_tr - s.ef_minus_ei;
  }

  double beta_at(const Trap& trap, const SurfaceState& s) const {
    // Clamp the exponent: beyond ±60 kT the trap is frozen either way and
    // exp() would overflow; the clamped value keeps λ's finite and ordered.
    const double x =
        std::clamp(fermi_gap_at(trap, s) / kt_ev_, -500.0, 500.0);
    return tech_.trap_degeneracy * std::exp(x);
  }

  Technology tech_;
  SurfacePotentialSolver surface_;
  double kt_ev_;
  std::shared_ptr<const SurfaceTable> table_;
};

}  // namespace samurai::physics
