#include "physics/srh_model.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <list>
#include <mutex>
#include <stdexcept>

#include "physics/constants.hpp"

namespace samurai::physics {

namespace {

/// Tabulate the surface state over the full bias range any circuit
/// waveform can plausibly visit; 1-2 mV resolution is far below kT.
std::shared_ptr<const SurfaceTable> build_surface_table(
    const Technology& tech) {
  const SurfacePotentialSolver surface(tech);
  auto table = std::make_shared<SurfaceTable>();
  table->lo = -1.0;
  const double table_hi = 2.0 * tech.v_dd + 1.0;
  const std::size_t points = 4096;
  table->step = (table_hi - table->lo) / static_cast<double>(points - 1);
  table->f_ox.reserve(points);
  table->ef_minus_ei.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const SurfaceState s =
        surface.solve(table->lo + table->step * static_cast<double>(i));
    table->f_ox.push_back(s.f_ox);
    table->ef_minus_ei.push_back(s.ef_minus_ei);
  }
  return table;
}

/// The process-wide memo of surface tables, keyed by the bit patterns of
/// the five Technology fields a table reads, so a key matches only when
/// every table input is identical. Each slot is built once, outside the
/// memo lock: concurrent requests for one key wait on the slot's
/// once_flag while other keys build in parallel.
class SurfaceTableMemo {
 public:
  static SurfaceTableMemo& instance() {
    static SurfaceTableMemo memo;
    return memo;
  }

  std::shared_ptr<const SurfaceTable> get(const Technology& tech) {
    const Key key = key_of(tech);
    std::shared_ptr<Slot> slot;
    {
      const std::lock_guard lock(mutex_);
      auto it = slots_.begin();
      while (it != slots_.end() && (*it)->key != key) ++it;
      if (it != slots_.end()) {
        slots_.splice(slots_.begin(), slots_, it);  // most recently used
      } else {
        slots_.push_front(std::make_shared<Slot>(key));
        if (slots_.size() > SrhModel::kMaxMemoisedTables) slots_.pop_back();
      }
      slot = slots_.front();
    }
    std::call_once(slot->once,
                   [&] { slot->table = build_surface_table(tech); });
    return slot->table;
  }

  std::size_t size() {
    const std::lock_guard lock(mutex_);
    return slots_.size();
  }

 private:
  using Key = std::array<std::uint64_t, 5>;

  struct Slot {
    explicit Slot(const Key& k) : key(k) {}
    Key key;
    std::once_flag once;
    std::shared_ptr<const SurfaceTable> table;  ///< written once, in `once`
  };

  static Key key_of(const Technology& tech) {
    return {std::bit_cast<std::uint64_t>(tech.v_fb),
            std::bit_cast<std::uint64_t>(tech.t_ox),
            std::bit_cast<std::uint64_t>(tech.n_a),
            std::bit_cast<std::uint64_t>(tech.temperature),
            std::bit_cast<std::uint64_t>(tech.v_dd)};
  }

  std::mutex mutex_;
  std::list<std::shared_ptr<Slot>> slots_;  ///< guarded by mutex_; MRU first
};

}  // namespace

SrhModel::SrhModel(const Technology& tech)
    : tech_(tech),
      surface_(tech),
      kt_ev_(kBoltzmannEv * tech.temperature),
      table_(SurfaceTableMemo::instance().get(tech)) {}

std::size_t SrhModel::memoised_tables() {
  return SurfaceTableMemo::instance().size();
}

SurfaceState SrhModel::surface_state(double v_gs) const {
  const SurfaceTable& table = *table_;
  const double pos = (v_gs - table.lo) / table.step;
  if (pos < 0.0 || pos >= static_cast<double>(table.f_ox.size() - 1)) {
    return surface_.solve(v_gs);  // outside the table: direct solve
  }
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  SurfaceState s;
  s.f_ox = table.f_ox[i] + frac * (table.f_ox[i + 1] - table.f_ox[i]);
  s.ef_minus_ei = table.ef_minus_ei[i] +
                  frac * (table.ef_minus_ei[i + 1] - table.ef_minus_ei[i]);
  s.psi_s = 0.0;  // not tabulated; derive on demand if ever needed
  return s;
}

double SrhModel::total_rate(const Trap& trap) const {
  if (trap.y_tr < 0.0 || trap.y_tr > tech_.t_ox) {
    throw std::invalid_argument("SrhModel: trap depth outside oxide");
  }
  return 1.0 / (tech_.tau0 * std::exp(tech_.gamma_tunnel * trap.y_tr));
}

Propensities SrhModel::propensities(const Trap& trap, double v_gs) const {
  const double total = total_rate(trap);
  Propensities p;
  p.lambda_c = capture_rate(trap, total, surface_state(v_gs));
  p.lambda_e = total - p.lambda_c;
  return p;
}

double SrhModel::stationary_fill(const Trap& trap, double v_gs) const {
  return 1.0 / (1.0 + beta(trap, v_gs));
}

}  // namespace samurai::physics
