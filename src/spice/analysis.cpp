#include "spice/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "spice/newton_driver.hpp"
#include "util/grid.hpp"
#include "util/thread_pool.hpp"

namespace samurai::spice {

// ------------------------------------------------------------ SolverStats

void SolverStats::merge(const SolverStats& other) {
  util::add_counters(kSolverCounters, *this, other);
}

SolverStats SolverStats::since(const SolverStats& other) const {
  SolverStats delta = *this;
  util::subtract_counters(kSolverCounters, delta, other);
  return delta;
}

namespace {
constinit util::CounterRegistry<std::uint64_t, kSolverCounters.size()>
    g_solver_stats;
}  // namespace

SolverStats solver_stats_snapshot() {
  SolverStats stats;
  util::load_counters(kSolverCounters, g_solver_stats, stats);
  return stats;
}

namespace detail {
void solver_stats_accumulate(const SolverStats& stats) {
  util::publish_counters(kSolverCounters, g_solver_stats, stats);
}
}  // namespace detail

// -------------------------------------------------------- NewtonWorkspace

namespace {

// Sweep grain of the partitioned engine: one pool task per this many
// devices or MNA rows. Results never depend on it (each value has one
// writer), only the fork-join granularity does.
constexpr std::size_t kDeviceGrain = 64;
constexpr std::size_t kRowGrain = 128;

std::size_t sweep_chunks(std::size_t items, std::size_t grain) {
  return (items + grain - 1) / grain;
}

/// max(m, |v|) for the Newton norms, keeping a NaN once one is seen
/// (std::max drops it), so a non-finite residual or update cannot pass
/// the convergence test. Equal to std::max(m, |v|) on finite values.
double max_abs(double m, double v) {
  const double a = std::abs(v);
  return a > m || std::isnan(a) ? a : m;
}

/// For each target in [0, targets), the program positions p with
/// target_of[p] == target, in program order (a stable counting sort into
/// CSR form).
void build_gather(std::span<const int> target_of, std::size_t targets,
                  std::vector<int>& begin, std::vector<int>& positions) {
  begin.assign(targets + 1, 0);
  for (const int target : target_of) {
    ++begin[static_cast<std::size_t>(target) + 1];
  }
  for (std::size_t t = 0; t < targets; ++t) begin[t + 1] += begin[t];
  positions.resize(target_of.size());
  std::vector<int> next(begin.begin(), begin.end() - 1);
  for (std::size_t p = 0; p < target_of.size(); ++p) {
    positions[static_cast<std::size_t>(
        next[static_cast<std::size_t>(target_of[p])]++)] = static_cast<int>(p);
  }
}

}  // namespace

void NewtonWorkspace::attach(Circuit& circuit, SolverKind solver,
                             const ActivityPartition* activity) {
  circuit_ = &circuit;
  const std::size_t n = circuit.system_size();
  const bool resized = n != n_;
  if (resized) {
    n_ = n;
    pivots_.assign(n, 0);
    residual_.assign(n, 0.0);
    base_res_.assign(n, 0.0);
    delta_.assign(n, 0.0);
    zero_x_.assign(n, 0.0);
    x_.assign(n, 0.0);
    x_new_.assign(n, 0.0);
    x_prev_.assign(n, 0.0);
    x_pred_.assign(n, 0.0);
    ++stats_.workspace_allocations;
  }
  devices_.clear();
  nonlinear_devices_.clear();
  for (auto& device : circuit.devices()) {
    devices_.push_back(device.get());
    if (!device->is_linear()) nonlinear_devices_.push_back(device.get());
  }
  base_valid_ = false;
  lu_valid_ = false;

  ap_mode_ = activity ? activity->mode : ActivityMode::kOff;
  ap_tol_ = activity ? activity->tolerance : 0.0;
  ap_floors_valid_ = false;
  ap_dirty_min_ = 0;

  // Activity partitioning rides the sparse engine exclusively: elision
  // replays stamp programs through resolved slots, and the Schur fold is
  // an ordering of the sparse factorization.
  use_sparse_ = solver == SolverKind::kSparse ||
                (solver == SolverKind::kAuto && n >= kSparseAutoThreshold) ||
                ap_mode_ != ActivityMode::kOff;
  if (!use_sparse_) {
    // Dense buffers are sized lazily so a sparse-only workspace never
    // pays the O(n²) allocations. A same-size engine switch still counts
    // the reallocation it causes.
    bool dense_alloc = false;
    dense_alloc |= jacobian_.resize(n);
    dense_alloc |= base_jac_.resize(n);
    dense_alloc |= lu_.resize(n);
    if (dense_alloc && !resized) ++stats_.workspace_allocations;
    sp_lu_.invalidate();
    return;
  }

  // Record the three stamp programs at x = 0 with values discarded. A
  // device's stamp sequence is fixed per (scope, a0 == 0) — see
  // Device::load — so the linear program is recorded twice (transient
  // a0 != 0, DC a0 == 0) and the nonlinear one once. The residual
  // programs of the transient linear and the nonlinear scope are recorded
  // alongside, per device, for the partitioned engine's sweeps.
  sp_coords_.clear();
  res_lin_rows_.clear();
  res_lin_begin_.clear();
  res_nl_rows_.clear();
  res_nl_begin_.clear();
  LoadContext record_ctx;
  record_ctx.x = zero_x_;
  ResidualSink res_recorder;
  record_ctx.residual = &res_recorder;
  StampSink recorder;
  recorder.bind_record(&sp_coords_);
  record_ctx.jacobian = &recorder;
  record_ctx.a0 = 1.0;
  record_ctx.scope = LoadScope::kLinear;
  res_recorder.bind_record(&res_lin_rows_);
  ap_lin_prog_begin_.clear();
  for (Device* device : devices_) {
    ap_lin_prog_begin_.push_back(sp_coords_.size());
    res_lin_begin_.push_back(res_lin_rows_.size());
    device->load(record_ctx);
  }
  ap_lin_prog_begin_.push_back(sp_coords_.size());
  res_lin_begin_.push_back(res_lin_rows_.size());
  sp_lin_tr_count_ = sp_coords_.size();
  // DC solves rebuild their residual offset on the direct path, so the
  // a0 == 0 residual program is recorded and dropped.
  record_ctx.a0 = 0.0;
  for (Device* device : devices_) device->load(record_ctx);
  res_lin_rows_.resize(res_lin_begin_.back());
  sp_lin_dc_count_ = sp_coords_.size() - sp_lin_tr_count_;
  record_ctx.a0 = 1.0;
  record_ctx.scope = LoadScope::kNonlinear;
  res_recorder.bind_record(&res_nl_rows_);
  const std::size_t nl_base = sp_coords_.size();
  ap_prog_begin_.clear();
  ap_prog_end_.clear();
  ap_prog_begin_.reserve(nonlinear_devices_.size());
  ap_prog_end_.reserve(nonlinear_devices_.size());
  for (Device* device : nonlinear_devices_) {
    ap_prog_begin_.push_back(sp_coords_.size() - nl_base);
    res_nl_begin_.push_back(res_nl_rows_.size());
    device->load(record_ctx);
    ap_prog_end_.push_back(sp_coords_.size() - nl_base);
  }
  res_nl_begin_.push_back(res_nl_rows_.size());
  sp_nl_count_ = sp_coords_.size() - sp_lin_tr_count_ - sp_lin_dc_count_;

  // Pattern = union of all programs + full diagonal, shared by the base
  // and the per-iteration Jacobian so values copy with one memcpy. The
  // symbolic LU survives whenever the pattern is unchanged — Monte-Carlo
  // repetitions re-attach, re-record and re-resolve, but analyse once.
  const bool pattern_changed = sp_base_.build_pattern(n, sp_coords_);
  if (pattern_changed) {
    sp_jac_.copy_pattern_from(sp_base_);
    sp_lu_.invalidate();
    if (!resized) ++stats_.workspace_allocations;
  } else {
    sp_jac_.set_zero();
  }

  // Resolve each program's (row, col) pairs to value-slot pointers once;
  // per-iteration stamping is then pure pointer chasing.
  auto resolve = [this](std::vector<double*>& slots, SparseMatrix& matrix,
                        std::size_t first, std::size_t count) {
    slots.clear();
    slots.reserve(count);
    for (std::size_t i = first; i < first + count; ++i) {
      double* slot = matrix.slot(sp_coords_[i].first, sp_coords_[i].second);
      if (slot == nullptr) {
        throw std::logic_error("NewtonWorkspace: recorded stamp missing "
                               "from the sparse pattern");
      }
      slots.push_back(slot);
    }
  };
  resolve(sp_lin_tr_slots_, sp_base_, 0, sp_lin_tr_count_);
  resolve(sp_lin_dc_slots_, sp_base_, sp_lin_tr_count_, sp_lin_dc_count_);
  resolve(sp_nl_slots_, sp_jac_, sp_lin_tr_count_ + sp_lin_dc_count_,
          sp_nl_count_);
  sp_diag_slots_.clear();
  sp_diag_slots_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sp_diag_slots_.push_back(sp_base_.slot(static_cast<int>(i),
                                           static_cast<int>(i)));
  }
  // Activity-partition caches: resolve the quiescent-device names against
  // this circuit's nonlinear devices, size the capture slices and build
  // the row gathers. The ordering groups go to the sparse LU
  // (set_ordering_groups is a no-op when unchanged, so Monte-Carlo
  // re-attaches keep the analysis).
  if (ap_mode_ != ActivityMode::kOff) {
    std::unordered_set<std::string_view> quiescent;
    quiescent.reserve(activity->quiescent_devices.size());
    for (const auto& name : activity->quiescent_devices) {
      quiescent.insert(name);
    }
    const std::size_t count = nonlinear_devices_.size();
    ap_elidable_.assign(count, 0);
    ap_input_begin_.assign(count + 1, 0);
    ap_input_nodes_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      Device* device = nonlinear_devices_[i];
      if (quiescent.count(device->name()) != 0) {
        const auto inputs = device->nonlinear_inputs();
        if (!inputs.empty()) {
          ap_elidable_[i] = 1;
          for (const int id : inputs) {
            if (id >= 0) ap_input_nodes_.push_back(id);
          }
        }
      }
      ap_input_begin_[i + 1] = ap_input_nodes_.size();
    }
    ap_key_.assign(ap_input_nodes_.size(), 0.0);
    ap_valid_.assign(count, 0);
    ap_jac_vals_.assign(sp_nl_count_, 0.0);
    ap_res_vals_.assign(res_nl_rows_.size(), 0.0);
    ap_lin_vals_.assign(res_lin_rows_.size(), 0.0);
    ap_lin_jac_vals_.assign(sp_lin_tr_count_, 0.0);
    ap_lin_pending_ = false;
    ap_base_pending_ = false;
    auto entries_of = [](const std::vector<double*>& slots,
                         const SparseMatrix& matrix) {
      std::vector<int> entries(slots.size());
      for (std::size_t k = 0; k < slots.size(); ++k) {
        entries[k] = static_cast<int>(slots[k] - matrix.values().data());
      }
      return entries;
    };
    build_gather(entries_of(sp_nl_slots_, sp_jac_), sp_jac_.nnz(),
                 ap_jac_gather_begin_, ap_jac_gather_);
    build_gather(entries_of(sp_lin_tr_slots_, sp_base_), sp_base_.nnz(),
                 ap_base_gather_begin_, ap_base_gather_);
    build_gather(res_nl_rows_, n, ap_res_gather_begin_, ap_res_gather_);
    build_gather(res_lin_rows_, n, ap_lin_gather_begin_, ap_lin_gather_);
    ap_partials_.resize(std::max(sweep_chunks(count, kDeviceGrain),
                                 sweep_chunks(n, kRowGrain)));
    ap_threads_ = util::fan_out_threads();
    sp_lu_.set_ordering_groups(activity->groups);
    stats_.ap_folded_cells += activity->groups.size();
  } else {
    sp_lu_.set_ordering_groups({});
  }
}

namespace detail {

void NewtonDriver::prepare_base(NewtonWorkspace& ws, double time, double a0,
                                double ci, const NewtonOptions& options,
                                double gmin,
                                const std::vector<std::pair<int, double>>& pins) {
  const std::size_t nodes = ws.circuit_->num_nodes();
  SolverStats& st = ws.stats_;
  const bool sparse = ws.use_sparse_;

  // ---- Linear base for this solve. The Jacobian part depends only on
  // (a0, ci, gmin, pins) and is reused across solves via memcpy; the
  // residual offset f_lin(0) depends on time and companion history, so
  // it is rebuilt once per solve (with the Jacobian stamps discarded on
  // cache hits). The sparse path replays the recorded linear program —
  // picked by a0 == 0, since charge branches drop out of the DC program
  // — through its resolved slot pointers.
  const bool jac_cached = options.cache_linear_stamps && ws.base_valid_ &&
                          ws.base_a0_ == a0 && ws.base_ci_ == ci &&
                          ws.base_gmin_ == gmin && !ws.base_had_pins_ &&
                          pins.empty();
  // The partitioned engine loads a transient solve's linear part in its
  // first device sweep and gathers it in the row sweep: the residual
  // offset always, the base Jacobian when it is stale. DC and pinned
  // solves take the direct path below.
  ws.ap_lin_pending_ =
      ws.ap_mode_ != ActivityMode::kOff && a0 != 0.0 && pins.empty();
  ws.ap_base_pending_ = ws.ap_lin_pending_ && !jac_cached;
  if (ws.ap_lin_pending_) {
    st.device_loads += ws.devices_.size();
    if (jac_cached) {
      ++st.linear_cache_hits;
    } else {
      ws.base_valid_ = true;
      ws.base_a0_ = a0;
      ws.base_ci_ = ci;
      ws.base_gmin_ = gmin;
      ws.base_had_pins_ = false;
      ws.ap_dirty_min_ = 0;
    }
    return;
  }
  std::fill(ws.base_res_.begin(), ws.base_res_.end(), 0.0);
  const std::size_t lin_count =
      a0 == 0.0 ? ws.sp_lin_dc_count_ : ws.sp_lin_tr_count_;
  ResidualSink base_res;
  base_res.bind_vector(&ws.base_res_);
  LoadContext base_ctx;
  base_ctx.time = time;
  base_ctx.a0 = a0;
  base_ctx.ci = ci;
  base_ctx.x = ws.zero_x_;
  base_ctx.residual = &base_res;
  base_ctx.scope = LoadScope::kLinear;
  base_ctx.jacobian = &ws.sp_sink_;
  if (jac_cached) {
    ws.sp_sink_.bind_discard();
    ++st.linear_cache_hits;
  } else if (sparse) {
    ws.sp_base_.set_zero();
    const auto& slots =
        a0 == 0.0 ? ws.sp_lin_dc_slots_ : ws.sp_lin_tr_slots_;
    ws.sp_sink_.bind_slots(slots.data(), slots.size());
  } else {
    ws.base_jac_.set_zero();
    ws.sp_sink_.bind_dense(&ws.base_jac_);
  }
  for (Device* device : ws.devices_) device->load(base_ctx);
  st.device_loads += ws.devices_.size();
  if (sparse && !jac_cached && ws.sp_sink_.cursor() != lin_count) {
    throw std::logic_error("sparse solve: linear stamp program desync");
  }
  if (!jac_cached) {
    if (sparse) {
      for (std::size_t i = 0; i < nodes; ++i) {
        *ws.sp_diag_slots_[i] += gmin;
      }
      for (const auto& [node, value] : pins) {
        (void)value;
        if (node >= 0) {
          *ws.sp_diag_slots_[static_cast<std::size_t>(node)] += 1.0;
        }
      }
    } else {
      for (std::size_t i = 0; i < nodes; ++i) ws.base_jac_.at(i, i) += gmin;
      for (const auto& [node, value] : pins) {
        (void)value;
        if (node < 0) continue;
        const auto i = static_cast<std::size_t>(node);
        ws.base_jac_.at(i, i) += 1.0;
      }
    }
    ws.base_valid_ = true;
    ws.base_a0_ = a0;
    ws.base_ci_ = ci;
    ws.base_gmin_ = gmin;
    ws.base_had_pins_ = !pins.empty();
    // A rebuilt base (new a0/gmin/pins) rewrites linear values across the
    // whole matrix: every factor row is potentially dirty.
    ws.ap_dirty_min_ = 0;
  }
  // Pin residual offset: 1 S · (x - value) has constant part -value.
  for (const auto& [node, value] : pins) {
    if (node >= 0) ws.base_res_[static_cast<std::size_t>(node)] -= value;
  }
}

void NewtonDriver::assemble_linear(NewtonWorkspace& ws,
                                   std::span<const double> x) {
  const std::size_t n = ws.n_;
  // residual = f_lin(0) + A_lin·x, then the nonlinear stamps on top of
  // a copy of the cached base Jacobian — a fused row-wise memcpy +
  // matvec on the dense path, a CSR value memcpy + sparse matvec on
  // the sparse one.
  if (ws.use_sparse_) {
    ws.sp_jac_.copy_values_from(ws.sp_base_);
    const auto& row_ptr = ws.sp_jac_.row_ptr();
    const auto& cols = ws.sp_jac_.cols();
    const auto& vals = ws.sp_jac_.values();
    for (std::size_t i = 0; i < n; ++i) {
      double acc = ws.base_res_[i];
      const auto row_end = static_cast<std::size_t>(row_ptr[i + 1]);
      for (auto k = static_cast<std::size_t>(row_ptr[i]); k < row_end;
           ++k) {
        acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
      }
      ws.residual_[i] = acc;
    }
    ws.sp_sink_.bind_slots(ws.sp_nl_slots_.data(),
                           ws.sp_nl_slots_.size());
  } else {
    const double* base = ws.base_jac_.data();
    double* jac = ws.jacobian_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = base + i * n;
      double* jrow = jac + i * n;
      double acc = ws.base_res_[i];
      for (std::size_t j = 0; j < n; ++j) {
        const double v = row[j];
        jrow[j] = v;
        acc += v * x[j];
      }
      ws.residual_[i] = acc;
    }
    ws.sp_sink_.bind_dense(&ws.jacobian_);
  }
}

LoadContext NewtonDriver::nonlinear_context(NewtonWorkspace& ws,
                                            std::span<const double> x,
                                            double time, double a0,
                                            double ci) {
  LoadContext ctx;
  ctx.time = time;
  ctx.a0 = a0;
  ctx.ci = ci;
  ctx.jacobian = &ws.sp_sink_;
  ws.res_sink_.bind_vector(&ws.residual_);
  ctx.residual = &ws.res_sink_;
  ctx.x = x;
  ctx.scope = LoadScope::kNonlinear;
  return ctx;
}

void NewtonDriver::sweep_devices(NewtonWorkspace& ws,
                                 std::span<const double> x, double time,
                                 double a0, double ci) {
  const std::size_t count = ws.nonlinear_devices_.size();
  const std::size_t nl_chunks = sweep_chunks(count, kDeviceGrain);
  const std::size_t lin_chunks =
      ws.ap_lin_pending_ ? sweep_chunks(ws.devices_.size(), kDeviceGrain) : 0;
  util::sweep(nl_chunks + lin_chunks, ws.ap_threads_, [&](std::size_t chunk) {
    StampSink jac;
    ResidualSink res;
    LoadContext ctx;
    ctx.time = time;
    ctx.a0 = a0;
    ctx.ci = ci;
    ctx.jacobian = &jac;
    ctx.residual = &res;
    if (chunk >= nl_chunks) {
      // The linear part at x = 0: each device's residual offset f_lin(0)
      // into its slice of the linear residual program, and its stamps
      // into its slice of the linear stamp program if the base is stale.
      ctx.x = ws.zero_x_;
      ctx.scope = LoadScope::kLinear;
      const bool stamps = ws.ap_base_pending_;
      if (!stamps) jac.bind_discard();
      const std::size_t first = (chunk - nl_chunks) * kDeviceGrain;
      const std::size_t last =
          std::min(ws.devices_.size(), first + kDeviceGrain);
      for (std::size_t d = first; d < last; ++d) {
        const std::size_t rb = ws.res_lin_begin_[d];
        const std::size_t re = ws.res_lin_begin_[d + 1];
        const std::size_t pb = ws.ap_lin_prog_begin_[d];
        const std::size_t pe = ws.ap_lin_prog_begin_[d + 1];
        res.bind_capture(ws.ap_lin_vals_.data() + rb, re - rb);
        if (stamps) jac.bind_capture(ws.ap_lin_jac_vals_.data() + pb, pe - pb);
        ws.devices_[d]->load(ctx);
        if (res.cursor() != re - rb || (stamps && jac.cursor() != pe - pb)) {
          throw std::logic_error("sparse solve: linear stamp program desync");
        }
      }
      return;
    }
    ctx.x = x;
    ctx.scope = LoadScope::kNonlinear;
    NewtonWorkspace::SweepPartial part;
    part.floor = ws.n_;
    const std::size_t first = chunk * kDeviceGrain;
    const std::size_t last = std::min(count, first + kDeviceGrain);
    for (std::size_t i = first; i < last; ++i) {
      if (ws.ap_elidable_[i]) {
        const std::size_t ib = ws.ap_input_begin_[i];
        const std::size_t ie = ws.ap_input_begin_[i + 1];
        // Keep the captured slices only if every input voltage is within
        // tolerance of the cached evaluation point. tolerance == 0
        // demands bitwise-equal inputs (the !(diff <= 0) form also
        // rejects NaN), which is what makes the elided solve
        // bit-identical to the unpartitioned one.
        bool replay = ws.ap_valid_[i] != 0;
        for (std::size_t k = ib; replay && k < ie; ++k) {
          const double v = x[static_cast<std::size_t>(ws.ap_input_nodes_[k])];
          if (!(std::abs(v - ws.ap_key_[k]) <= ws.ap_tol_)) replay = false;
        }
        if (replay) {
          ++part.elided;
          continue;
        }
        for (std::size_t k = ib; k < ie; ++k) {
          ws.ap_key_[k] = x[static_cast<std::size_t>(ws.ap_input_nodes_[k])];
        }
      }
      const std::size_t pb = ws.ap_prog_begin_[i];
      const std::size_t pe = ws.ap_prog_end_[i];
      const std::size_t rb = ws.res_nl_begin_[i];
      const std::size_t re = ws.res_nl_begin_[i + 1];
      jac.bind_capture(ws.ap_jac_vals_.data() + pb, pe - pb);
      res.bind_capture(ws.ap_res_vals_.data() + rb, re - rb);
      ws.nonlinear_devices_[i]->load(ctx);
      if (jac.cursor() != pe - pb || res.cursor() != re - rb) {
        throw std::logic_error(
            "sparse solve: partitioned nonlinear stamp program desync");
      }
      ws.ap_valid_[i] = 1;
      ++part.loads;
      part.floor = std::min(part.floor,
                            ws.ap_floors_valid_ ? ws.ap_row_floor_[i] : 0);
    }
    ws.ap_partials_[chunk] = part;
  });
  SolverStats& st = ws.stats_;
  for (std::size_t chunk = 0; chunk < nl_chunks; ++chunk) {
    const auto& part = ws.ap_partials_[chunk];
    st.device_loads += part.loads;
    st.ap_elided_loads += part.elided;
    ws.ap_dirty_min_ = std::min(ws.ap_dirty_min_, part.floor);
  }
}

RowNorms NewtonDriver::sweep_rows(NewtonWorkspace& ws,
                                  std::span<const double> x) {
  const std::size_t n = ws.n_;
  const std::size_t nodes = ws.circuit_->num_nodes();
  const std::size_t chunks = sweep_chunks(n, kRowGrain);
  const bool linear = ws.ap_lin_pending_;
  const bool rebuild = ws.ap_base_pending_;
  // `start` plus target t's captured values, added in program order.
  auto gather = [](double start, const std::vector<int>& begin,
                   const std::vector<int>& positions,
                   const std::vector<double>& values, std::size_t t) {
    for (auto g = static_cast<std::size_t>(begin[t]);
         g < static_cast<std::size_t>(begin[t + 1]); ++g) {
      start += values[static_cast<std::size_t>(positions[g])];
    }
    return start;
  };
  util::sweep(chunks, ws.ap_threads_, [&](std::size_t chunk) {
    const std::vector<int>& row_ptr = ws.sp_jac_.row_ptr();
    const std::vector<int>& cols = ws.sp_jac_.cols();
    std::vector<double>& base = ws.sp_base_.values();
    std::vector<double>& jac = ws.sp_jac_.values();
    NewtonWorkspace::SweepPartial part;
    const std::size_t first = chunk * kRowGrain;
    const std::size_t last = std::min(n, first + kRowGrain);
    for (std::size_t i = first; i < last; ++i) {
      const auto row_begin = static_cast<std::size_t>(row_ptr[i]);
      const auto row_end = static_cast<std::size_t>(row_ptr[i + 1]);
      if (rebuild) {
        // Base row: zero, the linear stamps, then gmin on a node's
        // diagonal — prepare_base's direct sequence.
        for (std::size_t k = row_begin; k < row_end; ++k) {
          double v = gather(0.0, ws.ap_base_gather_begin_, ws.ap_base_gather_,
                            ws.ap_lin_jac_vals_, k);
          if (i < nodes && static_cast<std::size_t>(cols[k]) == i) {
            v += ws.base_gmin_;
          }
          base[k] = v;
        }
      }
      // Jacobian row: the linear base plus this row's nonlinear stamps.
      for (std::size_t k = row_begin; k < row_end; ++k) {
        jac[k] = gather(base[k], ws.ap_jac_gather_begin_, ws.ap_jac_gather_,
                        ws.ap_jac_vals_, k);
        part.jac_max_abs = std::max(part.jac_max_abs, std::abs(jac[k]));
      }
      // Residual: f_lin(0) + A_lin·x + this row's nonlinear adds.
      if (linear) {
        ws.base_res_[i] = gather(0.0, ws.ap_lin_gather_begin_,
                                 ws.ap_lin_gather_, ws.ap_lin_vals_, i);
      }
      double acc = ws.base_res_[i];
      for (std::size_t k = row_begin; k < row_end; ++k) {
        acc += base[k] * x[static_cast<std::size_t>(cols[k])];
      }
      acc = gather(acc, ws.ap_res_gather_begin_, ws.ap_res_gather_,
                   ws.ap_res_vals_, i);
      ws.residual_[i] = acc;
      if (i < nodes) {
        part.max_residual = max_abs(part.max_residual, acc);
      } else {
        part.max_branch_residual = max_abs(part.max_branch_residual, acc);
      }
    }
    ws.ap_partials_[chunk] = part;
  });
  ws.ap_lin_pending_ = false;
  ws.ap_base_pending_ = false;
  RowNorms norms;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const auto& part = ws.ap_partials_[chunk];
    norms.max_residual = max_abs(norms.max_residual, part.max_residual);
    norms.max_branch_residual =
        max_abs(norms.max_branch_residual, part.max_branch_residual);
    norms.jac_max_abs = std::max(norms.jac_max_abs, part.jac_max_abs);
  }
  return norms;
}

void NewtonDriver::commit_step(NewtonWorkspace& ws, TransientResult& result,
                               const ClockStep& step) {
  ++ws.stats_.steps_accepted;
  const std::span<const double> x = ws.x_new_;
  const double a0 = step.a0;
  const double ci = step.ci;
  const std::size_t nodes =
      std::min(ws.circuit_->num_nodes(), result.samples_.size());
  if (ws.ap_mode_ == ActivityMode::kOff) {
    for (Device* device : ws.devices_) device->commit(x, a0, ci);
    result.record(step.t_next, x, nodes);
  } else {
    result.open_record(step.t_next);
    const std::size_t device_chunks =
        sweep_chunks(ws.devices_.size(), kDeviceGrain);
    util::sweep(device_chunks + sweep_chunks(nodes, kRowGrain),
                ws.ap_threads_, [&](std::size_t chunk) {
                  if (chunk < device_chunks) {
                    const std::size_t first = chunk * kDeviceGrain;
                    const std::size_t last =
                        std::min(ws.devices_.size(), first + kDeviceGrain);
                    for (std::size_t d = first; d < last; ++d) {
                      ws.devices_[d]->commit(x, a0, ci);
                    }
                    return;
                  }
                  const std::size_t first =
                      (chunk - device_chunks) * kRowGrain;
                  const std::size_t last = std::min(nodes, first + kRowGrain);
                  for (std::size_t i = first; i < last; ++i) {
                    result.record_node(i, x[i]);
                  }
                });
  }
  ws.x_prev_.swap(ws.x_);
  ws.x_.swap(ws.x_new_);
}

void NewtonDriver::recompute_ap_floors(NewtonWorkspace& ws) {
  if (ws.ap_mode_ == ActivityMode::kOff) return;
  const std::size_t n = ws.n_;
  const std::size_t count = ws.nonlinear_devices_.size();
  ws.ap_row_floor_.assign(count, n);
  // Nonlinear stamp coordinates sit after the two linear programs in
  // sp_coords_; translate each device's stamped rows through the fresh
  // row permutation and keep the minimum.
  const std::size_t offset = ws.sp_lin_tr_count_ + ws.sp_lin_dc_count_;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t floor = n;
    for (std::size_t k = ws.ap_prog_begin_[i]; k < ws.ap_prog_end_[i]; ++k) {
      const auto row =
          static_cast<std::size_t>(ws.sp_coords_[offset + k].first);
      floor = std::min(floor, ws.sp_lu_.permuted_row(row));
    }
    ws.ap_row_floor_[i] = floor;
  }
  ws.ap_floors_valid_ = true;
}

namespace {
// Newton convergence, damping and bypass constants (DESIGN.md §10).
constexpr double kAbsTol = 1e-9;  ///< KCL residual tolerance, A
constexpr double kVnTol = 1e-6;   ///< Newton update tolerance, V
constexpr double kRelTol = 1e-4;  ///< relative branch-current tolerance
constexpr double kDvLimit = 0.6;  ///< per-iteration voltage damping clamp, V
/// Contraction of the scaled residual a stale-LU iteration must achieve.
constexpr double kBypassContraction = 0.5;
}  // namespace

IterationResult NewtonDriver::finish_iteration(NewtonWorkspace& ws,
                                               std::vector<double>& x,
                                               const NewtonOptions& options,
                                               int iter, double& prev_scaled,
                                               const RowNorms* swept) {
  const std::size_t n = ws.n_;
  const std::size_t nodes = ws.circuit_->num_nodes();
  SolverStats& st = ws.stats_;
  const bool sparse = ws.use_sparse_;
  IterationResult result;

  // Residual norms: node rows are KCL sums (amperes), branch rows are
  // source voltage equations (volts) — both must be checked, each
  // against its own tolerance (a branch current can be arbitrarily
  // wrong while every node row looks converged).
  double max_residual = 0.0;
  double max_branch_residual = 0.0;
  if (swept != nullptr) {
    max_residual = swept->max_residual;
    max_branch_residual = swept->max_branch_residual;
  } else {
    for (std::size_t i = 0; i < nodes; ++i) {
      max_residual = max_abs(max_residual, ws.residual_[i]);
    }
    for (std::size_t i = nodes; i < n; ++i) {
      max_branch_residual = max_abs(max_branch_residual, ws.residual_[i]);
    }
  }
  if (!std::isfinite(max_residual) || !std::isfinite(max_branch_residual)) {
    result.non_finite = true;
    return result;
  }
  const double scaled = std::max(max_residual / kAbsTol,
                                 max_branch_residual / kVnTol);

  // Modified-Newton bypass: within a solve, re-solve against the stale
  // factorization while the scaled residual keeps contracting;
  // refactorize on stall. The first iteration always factors: across
  // steps the companion coefficient a0 = O(1/h) rescales the capacitive
  // Jacobian block, so a stale cross-step factorization degrades
  // Newton to slow linear convergence and costs far more in extra
  // MOSFET evaluations than the O(n^3) factorization it saves.
  const bool bypass = options.reuse_lu && ws.lu_valid_ && iter > 0 &&
                      scaled < kBypassContraction * prev_scaled;
  if (!bypass) {
    ++st.lu_factorizations;
    if (sparse) {
      // The sparse engine reuses its symbolic analysis (pivot order +
      // fill pattern) and only redoes the O(fill-nnz) numeric sweep;
      // was_analysis reports the rare full re-analyses. When the
      // activity partition is on, rows above the dirty floor are
      // bit-unchanged since the last successful factor, so the numeric
      // sweep restarts mid-matrix (partial refactor).
      const bool partitioned = ws.ap_mode_ != ActivityMode::kOff;
      const std::size_t floor = partitioned ? ws.ap_dirty_min_ : 0;
      bool was_analysis = false;
      const double scale = swept != nullptr ? swept->jac_max_abs
                                            : ws.sp_jac_.value_max_abs();
      if (!ws.sp_lu_.factor(ws.sp_jac_, scale, &was_analysis, floor)) {
        ws.lu_valid_ = false;
        result.singular = true;
        return result;
      }
      if (was_analysis) {
        ++st.sp_symbolic_analyses;
        if (partitioned) recompute_ap_floors(ws);
      } else {
        ++st.sp_numeric_refactors;
        if (partitioned && floor > 0) {
          ++st.ap_partial_refactors;
          st.ap_rows_skipped += floor;
        }
      }
      if (partitioned) ws.ap_dirty_min_ = n;
    } else {
      // Fused copy + scan: max|J| feeds lu_factor's scale-relative
      // pivot threshold without a second pass over the matrix.
      const double* src = ws.jacobian_.data();
      double* dst = ws.lu_.data();
      double jac_scale = 0.0;
      for (std::size_t k = 0; k < n * n; ++k) {
        const double v = src[k];
        dst[k] = v;
        jac_scale = std::max(jac_scale, std::abs(v));
      }
      if (!lu_factor(ws.lu_, ws.pivots_, jac_scale)) {
        ws.lu_valid_ = false;
        result.singular = true;
        return result;
      }
    }
    ws.lu_valid_ = true;
  } else {
    ++st.bypass_hits;
  }
  prev_scaled = scaled;
  std::copy(ws.residual_.begin(), ws.residual_.end(), ws.delta_.begin());
  if (sparse) {
    ws.sp_lu_.solve(ws.delta_);
    ++st.sp_solves;
  } else {
    lu_solve_factored(ws.lu_, ws.pivots_, ws.delta_);
  }
  ++st.lu_solves;
  // Damp: clamp the largest node-voltage update. Branch-current rows
  // get a relative+absolute convergence check of their own.
  double max_dv = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    max_dv = max_abs(max_dv, ws.delta_[i]);
  }
  double max_di = 0.0;
  double max_i = 0.0;
  for (std::size_t i = nodes; i < n; ++i) {
    max_di = max_abs(max_di, ws.delta_[i]);
    max_i = std::max(max_i, std::abs(x[i]));
  }
  if (!std::isfinite(max_dv) || !std::isfinite(max_di)) {
    result.non_finite = true;
    return result;
  }
  const double damp = max_dv > kDvLimit ? kDvLimit / max_dv : 1.0;
  for (std::size_t i = 0; i < n; ++i) x[i] -= damp * ws.delta_[i];

  const double itol = kAbsTol + kRelTol * max_i;
  if (damp == 1.0 && max_dv < kVnTol && max_di < itol &&
      max_residual < kAbsTol && max_branch_residual < kVnTol) {
    result.converged = true;
  }
  return result;
}

NewtonOutcome NewtonDriver::solve(NewtonWorkspace& ws, std::vector<double>& x,
                                  double time, double a0, double ci,
                                  const NewtonOptions& options, double gmin,
                                  const std::vector<std::pair<int, double>>& pins) {
  SolverStats& st = ws.stats_;
  prepare_base(ws, time, a0, ci, options, gmin, pins);

  NewtonOutcome outcome;
  double prev_scaled = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < kMaxNewtonIterations; ++iter) {
    outcome.iterations = iter + 1;
    ++st.newton_iterations;

    IterationResult r;
    if (ws.ap_mode_ != ActivityMode::kOff) {
      sweep_devices(ws, x, time, a0, ci);
      const RowNorms norms = sweep_rows(ws, x);
      r = finish_iteration(ws, x, options, iter, prev_scaled, &norms);
    } else {
      assemble_linear(ws, x);
      const LoadContext ctx = nonlinear_context(ws, x, time, a0, ci);
      for (Device* device : ws.nonlinear_devices_) device->load(ctx);
      st.device_loads += ws.nonlinear_devices_.size();
      if (ws.use_sparse_ && ws.sp_sink_.cursor() != ws.sp_nl_count_) {
        throw std::logic_error("sparse solve: nonlinear stamp program desync");
      }
      r = finish_iteration(ws, x, options, iter, prev_scaled);
    }
    if (r.singular || r.non_finite) return outcome;
    if (r.converged) {
      outcome.converged = true;
      return outcome;
    }
  }
  return outcome;
}

std::vector<std::pair<int, double>> NewtonDriver::resolve_pins(
    Circuit& circuit, const std::map<std::string, double>& nodeset) {
  std::vector<std::pair<int, double>> pins;
  pins.reserve(nodeset.size());
  for (const auto& [name, value] : nodeset) {
    pins.emplace_back(circuit.find_node(name), value);
  }
  return pins;
}

DcResult NewtonDriver::dc(NewtonWorkspace& ws, Circuit& circuit,
                          const DcOptions& options) {
  DcResult result;
  result.x.assign(circuit.system_size(), 0.0);
  const auto pins = resolve_pins(circuit, options.nodeset);

  // Phase 1: solve with nodeset pins engaged (if any).
  if (!pins.empty()) {
    for (const auto& [node, value] : pins) {
      if (node >= 0) result.x[static_cast<std::size_t>(node)] = value;
    }
    solve(ws, result.x, 0.0, 0.0, 0.0, options.newton,
          std::max(kGmin, 1e-9), pins);
  }

  // Phase 2: plain Newton; on failure, gmin-step from 1e-2 down.
  auto outcome = solve(ws, result.x, 0.0, 0.0, 0.0, options.newton, kGmin, {});
  if (!outcome.converged) {
    std::vector<double> x = result.x;
    bool ladder_ok = true;
    for (double gmin = 1e-2; gmin >= kGmin; gmin *= 0.1) {
      const auto step =
          solve(ws, x, 0.0, 0.0, 0.0, options.newton, gmin, pins);
      if (!step.converged) {
        ladder_ok = false;
        break;
      }
    }
    if (ladder_ok) {
      outcome = solve(ws, x, 0.0, 0.0, 0.0, options.newton, kGmin, {});
      if (outcome.converged) result.x = x;
    }
  }
  result.converged = outcome.converged;
  result.iterations = outcome.iterations;
  return result;
}

}  // namespace detail

DcResult dc_operating_point(Circuit& circuit, const DcOptions& options) {
  NewtonWorkspace workspace;
  workspace.attach(circuit, SolverKind::kAuto);
  DcResult result = detail::NewtonDriver::dc(workspace, circuit, options);
  result.stats = workspace.stats();
  detail::solver_stats_accumulate(result.stats);
  return result;
}

// ---------------------------------------------------------------- results

TransientResult::TransientResult(std::vector<std::string> node_names)
    : names_(std::move(node_names)), samples_(names_.size()) {}

void TransientResult::record(double t, std::span<const double> x,
                             std::size_t num_nodes) {
  times_.push_back(t);
  for (std::size_t i = 0; i < num_nodes && i < samples_.size(); ++i) {
    samples_[i].push_back(x[i]);
  }
}

void TransientResult::open_record(double t) {
  times_.push_back(t);
  // Every node's series grows with times_ (same length, same capacity),
  // so the first one tells when all of them need room.
  if (!samples_.empty() &&
      samples_.front().size() == samples_.front().capacity()) {
    const std::size_t capacity =
        std::max<std::size_t>(1, 2 * samples_.front().size());
    for (auto& samples : samples_) samples.reserve(capacity);
  }
}

void TransientResult::reserve(std::size_t points) {
  times_.reserve(points);
  for (auto& samples : samples_) samples.reserve(points);
}

std::size_t TransientResult::node_index(const std::string& node) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == node) return i;
  }
  throw std::invalid_argument("TransientResult: unknown node " + node);
}

const std::vector<double>& TransientResult::voltage_samples(
    const std::string& node) const {
  return samples_[node_index(node)];
}

core::Pwl TransientResult::voltage(const std::string& node) const {
  return core::Pwl(times_, samples_[node_index(node)]);
}

double TransientResult::voltage_at(const std::string& node, double t) const {
  return util::interp_linear(times_, samples_[node_index(node)], t);
}

core::Pwl TransientResult::voltage_between(const std::string& a,
                                           const std::string& b) const {
  const bool a_gnd = (a == "0" || a == "gnd" || a == "GND");
  const bool b_gnd = (b == "0" || b == "gnd" || b == "GND");
  std::vector<double> values(times_.size(), 0.0);
  if (!a_gnd) {
    const auto& va = samples_[node_index(a)];
    for (std::size_t i = 0; i < values.size(); ++i) values[i] += va[i];
  }
  if (!b_gnd) {
    const auto& vb = samples_[node_index(b)];
    for (std::size_t i = 0; i < values.size(); ++i) values[i] -= vb[i];
  }
  return core::Pwl(times_, std::move(values));
}

// --------------------------------------------------------------- transient

namespace detail {

std::vector<double> NewtonDriver::collect_breakpoints(
    Circuit& circuit, const TransientOptions& options) {
  std::vector<double> breakpoints = options.extra_breakpoints;
  for (const auto& device : circuit.devices()) {
    device->collect_breakpoints(breakpoints);
  }
  breakpoints.push_back(options.t_stop);
  dedupe_breakpoints(breakpoints, options);
  return breakpoints;
}

void NewtonDriver::dedupe_breakpoints(std::vector<double>& breakpoints,
                                      const TransientOptions& options) {
  const double span = options.t_stop - options.t_start;
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end(),
                                [&](double a, double b) {
                                  return std::abs(a - b) < span * 1e-12;
                                }),
                    breakpoints.end());
}

StepClock::StepClock(const TransientOptions& options,
                     std::span<const double> breakpoints)
    : breakpoints_(breakpoints),
      t_(options.t_start),
      t_stop_(options.t_stop),
      span_(options.t_stop - options.t_start),
      dt_max_(options.dt_max > 0.0 ? options.dt_max : span_ / 200.0) {
  while (next_bp_ < breakpoints_.size() &&
         breakpoints_[next_bp_] <= t_ + span_ * 1e-12) {
    ++next_bp_;
  }
}

ClockStep StepClock::take(double proposed) const {
  ClockStep step;
  step.h = proposed;
  if (next_bp_ < breakpoints_.size()) {
    const double to_bp = breakpoints_[next_bp_] - t_;
    if (step.h >= to_bp - kDtMin) {
      step.h = to_bp;
      step.hit_breakpoint = true;
    }
  }
  if (t_ + step.h > t_stop_) step.h = t_stop_ - t_;
  step.t_next = t_ + step.h;
  step.a0 = after_discontinuity_ ? 1.0 / step.h : 2.0 / step.h;
  step.ci = after_discontinuity_ ? 0.0 : -1.0;
  if (dt_prev_ > 0.0 && !after_discontinuity_) step.growth = step.h / dt_prev_;
  return step;
}

void StepClock::accept(const ClockStep& step) {
  t_ = step.t_next;
  dt_prev_ = step.h;
  after_discontinuity_ = step.hit_breakpoint;
  if (step.hit_breakpoint) ++next_bp_;
}

TransientResult NewtonDriver::start_transient(
    NewtonWorkspace& ws, Circuit& circuit, const TransientOptions& options,
    const StepClock& clock, const std::string& dc_failure) {
  const auto dc_result = dc(ws, circuit, options.dc);
  if (!dc_result.converged) throw std::runtime_error(dc_failure);
  ws.x_ = dc_result.x;
  ws.x_prev_ = ws.x_;
  for (auto& device : circuit.devices()) device->reset_history();
  for (auto& device : circuit.devices()) device->commit(ws.x_, 0.0, 0.0);
  TransientResult result(circuit.node_names());
  result.reserve(clock.points_estimate());
  result.record(options.t_start, ws.x_, circuit.num_nodes());
  return result;
}

void NewtonDriver::predict(NewtonWorkspace& ws, const ClockStep& step) {
  const std::vector<double>& x = ws.x_;
  ws.x_new_ = x;
  if (step.growth > 0.0) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      ws.x_pred_[i] = x[i] + (x[i] - ws.x_prev_[i]) * step.growth;
      ws.x_new_[i] = ws.x_pred_[i];
    }
  }
}

void NewtonDriver::finish_transient(NewtonWorkspace& ws,
                                    const SolverStats& before,
                                    TransientResult& result) {
  ++ws.stats_.transients;
  const SolverStats delta = ws.stats_.since(before);
  result.set_stats(delta);
  solver_stats_accumulate(delta);
}

TransientResult NewtonDriver::run_transient(Circuit& circuit,
                                            const TransientOptions& options,
                                            NewtonWorkspace& ws) {
  if (!(options.t_stop > options.t_start)) {
    throw std::invalid_argument("transient: t_stop <= t_start");
  }
  const SolverStats stats_before = ws.stats_;
  ws.attach(circuit, options.solver, &options.activity);
  SolverStats& st = ws.stats_;

  const std::vector<double> breakpoints = collect_breakpoints(circuit, options);
  StepClock clock(options, breakpoints);
  TransientResult result =
      start_transient(ws, circuit, options, clock,
                      "transient: DC operating point did not converge");
  const double dt_max = clock.dt_max();
  const std::size_t nodes = circuit.num_nodes();
  const std::vector<double>& x = ws.x_;
  const std::vector<double>& x_new = ws.x_new_;
  const std::vector<double>& x_pred = ws.x_pred_;

  // The fixed grid proposes dt_max every step, takes every step it
  // proposes and throws on a Newton failure; the adaptive loop rejects a
  // step on a Newton failure or an LTE excess, retries at a quarter of it
  // and sizes the next one from the predictor/corrector difference.
  // Steady-state loop: every buffer belongs to the workspace or was sized
  // before the loop — zero heap allocations per step (asserted via
  // stats().workspace_allocations).
  const int max_rejects = 60;
  int rejects = 0;
  double dt =
      options.fixed_grid ? dt_max : std::min(options.dt_initial, dt_max);
  while (!clock.done()) {
    const ClockStep step = clock.take(dt);
    predict(ws, step);
    const auto outcome = solve(ws, ws.x_new_, step.t_next, step.a0, step.ci,
                               options.newton, kGmin, {});
    if (options.fixed_grid && !outcome.converged) {
      throw std::runtime_error(
          "transient: Newton did not converge on the fixed grid at t=" +
          std::to_string(step.t_next));
    }
    bool accept = outcome.converged;
    double err_ratio = 0.0;
    if (accept && step.growth > 0.0 && !options.fixed_grid) {
      for (std::size_t i = 0; i < nodes; ++i) {
        const double tol = options.lte_reltol *
                               std::max(std::abs(x_new[i]), std::abs(x[i])) +
                           options.lte_abstol;
        err_ratio = std::max(err_ratio, std::abs(x_new[i] - x_pred[i]) / tol);
      }
      if (err_ratio > 10.0 && step.h > 4.0 * kDtMin && !step.hit_breakpoint) {
        accept = false;
      }
    }
    if (!accept) {
      ++st.steps_rejected;
      ws.lu_valid_ = false;  // retry with a fresh factorization
      if (++rejects > max_rejects || step.h <= 2.0 * kDtMin) {
        throw std::runtime_error("transient: step size underflow at t=" +
                                 std::to_string(clock.t()));
      }
      dt = step.h / 4.0;
      continue;
    }
    rejects = 0;
    commit_step(ws, result, step);
    clock.accept(step);
    if (options.on_step) options.on_step(step.t_next, x);
    if (!options.fixed_grid) {
      double grow = 1.5;
      if (step.growth > 0.0 && err_ratio > 0.0) {
        grow = std::clamp(std::sqrt(1.0 / err_ratio), 0.3, 2.0);
      }
      dt = std::clamp(step.h * grow, kDtMin, dt_max);
    }
  }
  finish_transient(ws, stats_before, result);
  return result;
}

}  // namespace detail

TransientResult transient(Circuit& circuit, const TransientOptions& options) {
  NewtonWorkspace workspace;
  return detail::NewtonDriver::run_transient(circuit, options, workspace);
}

TransientResult transient(Circuit& circuit, const TransientOptions& options,
                          NewtonWorkspace& workspace) {
  return detail::NewtonDriver::run_transient(circuit, options, workspace);
}

}  // namespace samurai::spice
