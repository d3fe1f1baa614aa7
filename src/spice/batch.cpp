#include "spice/batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "spice/devices.hpp"
#include "spice/newton_driver.hpp"

namespace samurai::spice {

namespace {

// Mirror of the file-local helper in devices.cpp: the gather must compute
// terminal voltages exactly as Mosfet::load does so batched lanes stay
// bit-identical to their scalar twins.
double node_value(std::span<const double> x, int id) {
  return id < 0 ? 0.0 : x[static_cast<std::size_t>(id)];
}

}  // namespace

namespace detail {

std::vector<TransientResult> NewtonDriver::run_transient_batch(
    std::span<Circuit* const> circuits, const TransientOptions& options,
    BatchWorkspace& bw) {
  if (!(options.t_stop > options.t_start)) {
    throw std::invalid_argument("transient_batch: t_stop <= t_start");
  }
  if (!options.fixed_grid) {
    throw std::invalid_argument(
        "transient_batch: requires options.fixed_grid (the lock-step "
        "contract needs a deterministic shared step plan)");
  }
  if (options.on_step) {
    throw std::invalid_argument(
        "transient_batch: on_step is unsupported (lanes advance together; "
        "run coupled simulations through the scalar transient)");
  }
  if (options.activity.mode != ActivityMode::kOff) {
    throw std::invalid_argument(
        "transient_batch: activity partitioning is unsupported (the SoA "
        "channel sweep evaluates every MOSFET every iteration; use the "
        "scalar transient for partitioned arrays)");
  }
  const std::size_t lanes = circuits.size();
  if (lanes == 0) return {};
  static const std::vector<std::pair<int, double>> kNoPins;

  // ---- Bind one scalar workspace per lane. Snapshot each lane's stats
  // before its attach so the per-lane delta matches a scalar run's.
  bw.lanes_.resize(lanes);
  bw.x_.resize(lanes);
  bw.prev_scaled_.assign(lanes, 0.0);
  std::vector<SolverStats> stats_before(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    stats_before[k] = bw.lanes_[k].stats();
    bw.lanes_[k].attach(*circuits[k], options.solver);
  }

  // ---- Topology checks: every lane must share the shape lane 0 defines,
  // and every nonlinear device must be a MOSFET (the only device the SoA
  // evaluator knows how to batch).
  const std::size_t n = circuits[0]->system_size();
  const std::size_t nodes = circuits[0]->num_nodes();
  std::vector<std::vector<const Mosfet*>> mosfets(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    if (circuits[k]->system_size() != n ||
        circuits[k]->num_nodes() != nodes) {
      throw std::invalid_argument(
          "transient_batch: lane " + std::to_string(k) +
          " does not match lane 0's system size (all lanes must share one "
          "topology)");
    }
    for (const auto& device : circuits[k]->devices()) {
      if (device->is_linear()) continue;
      const auto* fet = dynamic_cast<const Mosfet*>(device.get());
      if (fet == nullptr) {
        throw std::invalid_argument(
            "transient_batch: non-MOSFET nonlinear device '" +
            device->name() + "' in lane " + std::to_string(k));
      }
      mosfets[k].push_back(fet);
    }
    if (mosfets[k].size() != mosfets[0].size()) {
      throw std::invalid_argument(
          "transient_batch: lane " + std::to_string(k) +
          " has a different MOSFET count than lane 0");
    }
    for (std::size_t s = 0; s < mosfets[k].size(); ++s) {
      const Mosfet* a = mosfets[0][s];
      const Mosfet* b = mosfets[k][s];
      if (a->drain() != b->drain() || a->gate() != b->gate() ||
          a->source() != b->source() || a->bulk() != b->bulk()) {
        throw std::invalid_argument(
            "transient_batch: MOSFET slot " + std::to_string(s) +
            " is wired differently in lane " + std::to_string(k));
      }
    }
  }
  const std::size_t num_slots = mosfets[0].size();

  // One SoA evaluator per MOSFET slot, holding all K lanes' constants.
  bw.slots_.resize(num_slots);
  std::vector<const physics::MosDevice*> slot_models(lanes);
  for (std::size_t s = 0; s < num_slots; ++s) {
    for (std::size_t k = 0; k < lanes; ++k) {
      slot_models[k] = &mosfets[k][s]->model();
    }
    bw.slots_[s].assign(slot_models);
  }

  // ---- Per-lane DC operating point. On the sparse engine, lane 0 pays
  // the one symbolic analysis and every later lane adopts it (identical
  // Jacobian pattern by the topology checks above), so its first
  // factorization is a numeric refactor.
  for (std::size_t k = 0; k < lanes; ++k) {
    NewtonWorkspace& ws = bw.lanes_[k];
    if (k > 0 && ws.use_sparse_ && bw.lanes_[0].use_sparse_) {
      ws.sp_lu_.adopt_analysis_from(bw.lanes_[0].sp_lu_);
    }
    const auto dc_result = dc(ws, *circuits[k], options.dc);
    if (!dc_result.converged) {
      throw std::runtime_error("transient_batch: DC operating point did "
                               "not converge in lane " + std::to_string(k));
    }
    bw.x_[k] = dc_result.x;
    for (auto& device : circuits[k]->devices()) device->reset_history();
    for (auto& device : circuits[k]->devices()) {
      device->commit(bw.x_[k], 0.0, 0.0);
    }
  }

  // ---- One shared step plan over the union of every lane's breakpoints.
  // A lane whose own breakpoint set is a subset simply takes a few extra
  // (exact) steps; the union keeps the accepted-step sequence common, so
  // a scalar rerun with the union as extra_breakpoints reproduces any
  // lane exactly.
  const double span = options.t_stop - options.t_start;
  const double dt_max = options.dt_max > 0.0 ? options.dt_max : span / 200.0;
  std::vector<double> breakpoints;
  for (std::size_t k = 0; k < lanes; ++k) {
    const auto lane_bps = collect_breakpoints(*circuits[k], options);
    breakpoints.insert(breakpoints.end(), lane_bps.begin(), lane_bps.end());
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end(),
                                [&](double a, double b) {
                                  return std::abs(a - b) < span * 1e-12;
                                }),
                    breakpoints.end());
  const auto plan = plan_fixed_grid(options, dt_max, breakpoints);

  std::vector<TransientResult> results;
  results.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    results.emplace_back(circuits[k]->node_names());
    results[k].reserve(plan.size() + 1);
    results[k].record(options.t_start, bw.x_[k], nodes);
    bw.lanes_[k].x_prev_ = bw.x_[k];
  }

  // ---- Lock-step march. Every lane performs exactly the scalar
  // fixed-grid sequence: prepare_base → (assemble_linear → channel stamps
  // → finish_iteration)* → commit/record. The only batched part is the
  // middle of each Newton iteration, where all active lanes' MOSFET
  // channels are gathered per slot and evaluated in one SoA sweep.
  double dt_prev = 0.0;
  bool after_discontinuity = true;
  for (const GridStep& gs : plan) {
    const double a0 = gs.use_be ? 1.0 / gs.step : 2.0 / gs.step;
    const double ci = gs.use_be ? 0.0 : -1.0;
    const bool have_predictor = dt_prev > 0.0 && !after_discontinuity;

    for (std::size_t k = 0; k < lanes; ++k) {
      NewtonWorkspace& ws = bw.lanes_[k];
      ws.x_new_ = bw.x_[k];
      if (have_predictor) {
        const std::vector<double>& x = bw.x_[k];
        for (std::size_t i = 0; i < x.size(); ++i) {
          ws.x_pred_[i] = x[i] + (x[i] - ws.x_prev_[i]) * (gs.step / dt_prev);
          ws.x_new_[i] = ws.x_pred_[i];
        }
      }
      prepare_base(ws, gs.t_next, a0, ci, options.newton, kGmin, kNoPins);
      bw.prev_scaled_[k] = std::numeric_limits<double>::infinity();
    }

    bw.active_.resize(lanes);
    for (std::size_t k = 0; k < lanes; ++k) bw.active_[k] = k;

    for (int iter = 0; iter < options.newton.max_iterations && !bw.active_.empty();
         ++iter) {
      for (const std::size_t k : bw.active_) {
        NewtonWorkspace& ws = bw.lanes_[k];
        ++ws.stats_.newton_iterations;
        assemble_linear(ws, ws.x_new_);
      }

      // Gather the active lanes' terminal voltages per slot (compacted)
      // and evaluate every channel in one sweep.
      const std::size_t count = bw.active_.size();
      for (std::size_t s = 0; s < num_slots; ++s) {
        physics::MosBatch& mb = bw.slots_[s];
        double* vgs = mb.vgs();
        double* vds = mb.vds();
        double* vbs = mb.vbs();
        for (std::size_t j = 0; j < count; ++j) {
          const std::size_t k = bw.active_[j];
          const Mosfet* fet = mosfets[k][s];
          const std::span<const double> x = bw.lanes_[k].x_new_;
          const double vd = node_value(x, fet->drain());
          const double vg = node_value(x, fet->gate());
          const double vs = node_value(x, fet->source());
          const double vb = node_value(x, fet->bulk());
          vgs[j] = vg - vs;
          vds[j] = vd - vs;
          vbs[j] = vb - vs;
        }
        mb.evaluate(bw.active_.data(), count);
      }

      // Scatter: each lane replays its stamps in device order, which keeps
      // the sparse stamp-program cursor in sync exactly as a scalar solve.
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t k = bw.active_[j];
        NewtonWorkspace& ws = bw.lanes_[k];
        const LoadContext ctx =
            nonlinear_context(ws, ws.x_new_, gs.t_next, a0, ci);
        for (std::size_t s = 0; s < num_slots; ++s) {
          mosfets[k][s]->stamp_channel(ctx, bw.slots_[s].op(j));
        }
        ws.stats_.device_loads += num_slots;
        if (ws.use_sparse_ && ws.sp_sink_.cursor() != ws.sp_nl_count_) {
          throw std::logic_error(
              "transient_batch: nonlinear stamp program desync");
        }
      }

      bw.next_active_.clear();
      for (const std::size_t k : bw.active_) {
        NewtonWorkspace& ws = bw.lanes_[k];
        const IterationResult r = finish_iteration(
            ws, ws.x_new_, options.newton, iter, bw.prev_scaled_[k]);
        if (r.singular) {
          throw std::runtime_error(
              "transient_batch: singular Jacobian in lane " +
              std::to_string(k) + " at t=" + std::to_string(gs.t_next));
        }
        if (!r.converged) bw.next_active_.push_back(k);
      }
      bw.active_.swap(bw.next_active_);
    }
    if (!bw.active_.empty()) {
      throw std::runtime_error(
          "transient_batch: Newton did not converge on the fixed grid at "
          "t=" + std::to_string(gs.t_next) + " (lane " +
          std::to_string(bw.active_.front()) + ")");
    }

    for (std::size_t k = 0; k < lanes; ++k) {
      NewtonWorkspace& ws = bw.lanes_[k];
      ++ws.stats_.steps_accepted;
      for (auto& device : circuits[k]->devices()) {
        device->commit(ws.x_new_, a0, ci);
      }
      ws.x_prev_ = bw.x_[k];
      bw.x_[k].swap(ws.x_new_);
      results[k].record(gs.t_next, bw.x_[k], nodes);
    }
    dt_prev = gs.step;
    after_discontinuity = gs.hit_breakpoint;
  }

  // ---- Stats: each lane's delta is what its scalar twin would report,
  // plus the batched-engine attribution (bt_batches counted once, on
  // lane 0).
  for (std::size_t k = 0; k < lanes; ++k) {
    NewtonWorkspace& ws = bw.lanes_[k];
    ++ws.stats_.transients;
    SolverStats delta = ws.stats_.since(stats_before[k]);
    delta.bt_batches = k == 0 ? 1 : 0;
    delta.bt_lanes = 1;
    delta.bt_steps = plan.size();
    results[k].set_stats(delta);
    solver_stats_accumulate(delta);
  }
  return results;
}

}  // namespace detail

std::vector<TransientResult> transient_batch(std::span<Circuit* const> circuits,
                                             const TransientOptions& options,
                                             BatchWorkspace& workspace) {
  return detail::NewtonDriver::run_transient_batch(circuits, options,
                                                   workspace);
}

std::vector<TransientResult> transient_batch(std::span<Circuit* const> circuits,
                                             const TransientOptions& options) {
  BatchWorkspace workspace;
  return detail::NewtonDriver::run_transient_batch(circuits, options,
                                                   workspace);
}

}  // namespace samurai::spice
