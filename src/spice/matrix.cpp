#include "spice/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace samurai::spice {

bool lu_factor(DenseMatrix& a, std::vector<std::size_t>& pivots,
               double scale_hint) {
  const std::size_t n = a.size();
  pivots.resize(n);
  if (n == 0) return true;

  // Scale-relative singularity threshold from the input row norms. An
  // absolute floor still rejects denormal pivots that would overflow the
  // reciprocal.
  double* data = a.data();
  double scale = scale_hint;
  if (scale < 0.0) {
    scale = 0.0;
    for (std::size_t k = 0; k < n * n; ++k) {
      scale = std::max(scale, std::abs(data[k]));
    }
  }
  if (scale == 0.0) return false;  // zero matrix
  const double threshold =
      std::max(scale * static_cast<double>(n) *
                   std::numeric_limits<double>::epsilon(),
               std::numeric_limits<double>::min());

  // Pointer-walked elimination: each at(i, j) costs a multiply the
  // optimizer cannot always hoist across the pivot swap, and at n ~ 13
  // (one SRAM cell) the index arithmetic is a measurable slice of the
  // factorization. Row pointers keep the flop sequence bit-identical.
  for (std::size_t k = 0; k < n; ++k) {
    double* row_k = data + k * n;
    // Partial pivot.
    std::size_t pivot = k;
    double best = std::abs(row_k[k]);
    {
      const double* col = row_k + n + k;
      for (std::size_t i = k + 1; i < n; ++i, col += n) {
        const double mag = std::abs(*col);
        if (mag > best) {
          best = mag;
          pivot = i;
        }
      }
    }
    if (best < threshold) return false;
    pivots[k] = pivot;
    if (pivot != k) {
      double* row_p = data + pivot * n;
      for (std::size_t j = 0; j < n; ++j) std::swap(row_k[j], row_p[j]);
    }
    const double inv_pivot = 1.0 / row_k[k];
    double* row_i = row_k + n;
    for (std::size_t i = k + 1; i < n; ++i, row_i += n) {
      const double factor = row_i[k] * inv_pivot;
      if (factor == 0.0) continue;
      row_i[k] = factor;
      for (std::size_t j = k + 1; j < n; ++j) row_i[j] -= factor * row_k[j];
    }
    // Store the reciprocal pivot: back-substitution then multiplies instead
    // of dividing, which matters because the bypass re-solves against one
    // factorization many times.
    row_k[k] = inv_pivot;
  }
  return true;
}

bool lu_solve(DenseMatrix& a, std::span<double> b) {
  const std::size_t n = a.size();
  if (b.size() != n) throw std::invalid_argument("lu_solve: size mismatch");
  std::vector<std::size_t> pivots;
  if (!lu_factor(a, pivots)) return false;
  lu_solve_factored(a, pivots, b);
  return true;
}

// ------------------------------------------------------------ SparseMatrix

bool SparseMatrix::build_pattern(std::size_t n,
                                 std::span<const std::pair<int, int>> coords) {
  // Key = row << 32 | col: sorting the keys sorts row-major, and the full
  // diagonal is seeded first so every row has a pivot slot.
  keys_.clear();
  keys_.reserve(coords.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    keys_.push_back((static_cast<std::uint64_t>(i) << 32) | i);
  }
  for (const auto& [row, col] : coords) {
    if (row < 0 || col < 0) continue;  // ground
    if (static_cast<std::size_t>(row) >= n ||
        static_cast<std::size_t>(col) >= n) {
      throw std::out_of_range("SparseMatrix: stamp outside the system");
    }
    keys_.push_back((static_cast<std::uint64_t>(row) << 32) |
                    static_cast<std::uint32_t>(col));
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());

  scratch_row_ptr_.assign(n + 1, 0);
  scratch_cols_.clear();
  scratch_cols_.reserve(keys_.size());
  for (const std::uint64_t key : keys_) {
    const auto row = static_cast<std::size_t>(key >> 32);
    ++scratch_row_ptr_[row + 1];
    scratch_cols_.push_back(static_cast<int>(key & 0xFFFFFFFFu));
  }
  for (std::size_t i = 0; i < n; ++i) {
    scratch_row_ptr_[i + 1] += scratch_row_ptr_[i];
  }

  const bool changed = n != n_ || scratch_row_ptr_ != row_ptr_ ||
                       scratch_cols_ != cols_;
  if (changed) {
    n_ = n;
    row_ptr_.swap(scratch_row_ptr_);
    cols_.swap(scratch_cols_);
    values_.assign(cols_.size(), 0.0);
  } else {
    set_zero();
  }
  return changed;
}

void SparseMatrix::copy_pattern_from(const SparseMatrix& other) {
  n_ = other.n_;
  row_ptr_.assign(other.row_ptr_.begin(), other.row_ptr_.end());
  cols_.assign(other.cols_.begin(), other.cols_.end());
  values_.assign(cols_.size(), 0.0);
}

double* SparseMatrix::slot(int row, int col) {
  if (row < 0 || col < 0 || static_cast<std::size_t>(row) >= n_) {
    return nullptr;
  }
  const auto begin = cols_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto end = cols_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return nullptr;
  return values_.data() + (it - cols_.begin());
}

double SparseMatrix::value_max_abs() const {
  double scale = 0.0;
  for (const double v : values_) scale = std::max(scale, std::abs(v));
  return scale;
}

void SparseMatrix::to_dense(DenseMatrix& out) const {
  out.resize(n_);
  out.set_zero();
  for (std::size_t i = 0; i < n_; ++i) {
    for (int idx = row_ptr_[i]; idx < row_ptr_[i + 1]; ++idx) {
      out.at(i, static_cast<std::size_t>(cols_[static_cast<std::size_t>(idx)])) =
          values_[static_cast<std::size_t>(idx)];
    }
  }
}

// ---------------------------------------------------------------- SparseLu

namespace {

/// Relative pivot tolerance for the discovery factorization: an entry
/// qualifies as a pivot when it is at least this fraction of its active
/// column's largest entry (threshold partial pivoting, Spice3-style).
/// Among qualifying entries the smallest Markowitz cost wins, so fill
/// stays low without ever eliminating against a relatively tiny pivot —
/// crucial for MNA branch rows, whose gmin-scale diagonals sit next to
/// O(1) incidence entries. When nothing qualifies, the largest entry above
/// the singularity threshold is taken instead (progress over fill
/// optimality).
constexpr double kPivotRelTol = 1e-2;

double singularity_threshold(double scale, std::size_t n) {
  return std::max(scale * static_cast<double>(n) *
                      std::numeric_limits<double>::epsilon(),
                  std::numeric_limits<double>::min());
}

/// When a grouped (Schur-fold) analysis fails — a group interior that is
/// not invertible on its own — analyse again without groups, but only
/// below this size: with every unknown on the boundary the analysis works
/// on an O(n²) dense copy, which at array scale (tens of thousands of
/// unknowns) is gigabytes. Above the limit the failure is reported to the
/// caller instead.
constexpr std::size_t kGroupedFallbackLimit = 8192;

// Chunking of the grouped factorization's sweeps. Every value has one
// writer, the refactor's chunks depend only on the matrix, and the
// discovery's chunks reduce to one scan's choice, so the participant count
// never changes a result.
constexpr std::size_t kDiscoveryRowGrain = 32;  ///< discovery rows per chunk
/// A discovery step whose active rows × n is below this runs its chunks
/// on the calling thread: the fork-join would cost more than it saves.
constexpr std::size_t kDiscoveryMinWork = 16384;
/// Likewise a refactorization with fewer recorded updates above its
/// floor. On 4 cores a full refactor of an array-like pattern broke even
/// at 15–19k updates; the 256-cell column has 18.5k, the 32×32 array 74k.
constexpr std::size_t kRefactorMinWork = 32768;
constexpr std::size_t kGroupGrain = 32;  ///< groups per interior chunk
/// Boundary rows are cut into at most kMaxBoundaryChunks chunks of at
/// least kBoundaryChunkWork multiply-adds against interior columns each.
constexpr std::size_t kBoundaryChunkWork = 2048;
constexpr std::size_t kMaxBoundaryChunks = 16;

/// One row range's pivot choice in the discovery: the first entry of least
/// Markowitz cost (ties: larger magnitude) among those passing the
/// relative test, and the first largest entry above the singularity
/// threshold (the fallback). A row or column index of n means none.
struct PivotChoice {
  std::size_t row, col;
  std::uint64_t cost;
  double mag;
  std::size_t fallback_row, fallback_col;
  double fallback_mag;
};

}  // namespace

double SparseLu::resolve_scale(const SparseMatrix& a, double scale_hint) {
  return scale_hint >= 0.0 ? scale_hint : a.value_max_abs();
}

bool SparseLu::pattern_matches(const SparseMatrix& a) const {
  return analyzed_ && a.size() == n_ && a.row_ptr() == a_row_ptr_ &&
         a.cols() == a_cols_;
}

void SparseLu::set_ordering_groups(std::vector<std::vector<int>> groups) {
  if (groups == groups_) return;  // Monte-Carlo re-attach: keep the analysis
  groups_ = std::move(groups);
  invalidate();
}

bool SparseLu::factor(const SparseMatrix& a, double scale_hint,
                      bool* was_analysis, std::size_t first_changed_row) {
  if (was_analysis) *was_analysis = false;
  const std::size_t n = a.size();
  if (n == 0) {
    analyzed_ = true;
    numeric_valid_ = true;
    n_ = 0;
    a_row_ptr_.assign(1, 0);
    a_cols_.clear();
    lu_row_ptr_.assign(1, 0);
    lu_cols_.clear();
    lu_vals_.clear();
    return true;
  }
  const double scale = resolve_scale(a, scale_hint);
  if (scale == 0.0) return false;  // zero matrix
  const double threshold = singularity_threshold(scale, n);
  if (pattern_matches(a)) {
    // A partial refactorization is only meaningful against the intact
    // numeric state of the previous successful factor.
    const std::size_t floor =
        numeric_valid_ ? std::min(first_changed_row, n) : 0;
    if (refactor(a, threshold, floor)) return true;
    // Static pivots degraded numerically: re-analyse with fresh pivoting.
    // (A partial sweep fails iff the full sweep fails — the retained rows
    // are bit-identical by the caller's contract — so go straight to the
    // analysis.)
  }
  if (was_analysis) *was_analysis = true;
  analyzed_ = analyze(a, threshold);
  return analyzed_;
}

bool SparseLu::analyze(const SparseMatrix& a, double threshold) {
  numeric_valid_ = false;
  n_ = a.size();
  bool ok = analyze_grouped(a, threshold, groups_);
  if (!ok && !groups_.empty() && n_ <= kGroupedFallbackLimit) {
    ok = analyze_grouped(a, threshold, {});
  }
  if (!ok) return false;
  build_scatter_map(a);
  numeric_valid_ = true;
  return true;
}

bool SparseLu::markowitz_eliminate(std::vector<double>& dense,
                                   std::vector<unsigned char>& strct,
                                   std::size_t n, double threshold,
                                   std::size_t participants,
                                   std::vector<std::size_t>& row_perm,
                                   std::vector<std::size_t>& row_perm_inv,
                                   std::vector<std::size_t>& col_perm,
                                   std::vector<std::size_t>& col_perm_inv) {
  std::vector<unsigned char> row_active(n, 1);
  std::vector<unsigned char> col_active(n, 1);
  std::vector<int> row_cnt(n, 0);
  std::vector<int> col_cnt(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (strct[i * n + j]) {
        ++row_cnt[i];
        ++col_cnt[j];
      }
    }
  }
  row_perm.assign(n, 0);
  row_perm_inv.assign(n, 0);
  col_perm.assign(n, 0);
  col_perm_inv.assign(n, 0);
  std::vector<double> col_max(n, 0.0);
  // Each row chunk reduces its own column maxima and pivot choice, and the
  // chunks are combined in chunk order: max is exact in any order, and the
  // pivot choices combine with the serial scan's strict comparisons, so
  // the result is one serial scan's at any chunking. One participant scans
  // the rows as one chunk.
  const std::size_t grain = participants > 1 ? kDiscoveryRowGrain : n;
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<double> chunk_max(chunks * n);
  std::vector<PivotChoice> choices(chunks);
  // Threshold Markowitz over rows [first, last): among active entries
  // within kPivotRelTol of their column's largest magnitude, pick the
  // smallest Markowitz cost (r-1)(c-1); ties go to the larger magnitude,
  // then the lower index — a deterministic pivot order.
  auto search = [&](std::size_t first, std::size_t last, PivotChoice& out) {
    std::size_t pr = n, pc = n;
    std::uint64_t best_cost = 0;
    double best_mag = -1.0;
    // Fallback: largest entry above the singularity threshold, used when
    // nothing passes the relative test.
    std::size_t fr = n, fc = n;
    double fallback_mag = -1.0;
    for (std::size_t i = first; i < last; ++i) {
      if (!row_active[i]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (!col_active[j] || !strct[i * n + j]) continue;
        const double mag = std::abs(dense[i * n + j]);
        if (mag < threshold) continue;
        if (mag > fallback_mag) {
          fallback_mag = mag;
          fr = i;
          fc = j;
        }
        if (mag < kPivotRelTol * col_max[j]) continue;
        const std::uint64_t cost =
            static_cast<std::uint64_t>(row_cnt[i] - 1) *
            static_cast<std::uint64_t>(col_cnt[j] - 1);
        if (pr == n || cost < best_cost ||
            (cost == best_cost && mag > best_mag)) {
          best_cost = cost;
          best_mag = mag;
          pr = i;
          pc = j;
        }
      }
    }
    out = {pr, pc, best_cost, best_mag, fr, fc, fallback_mag};
  };
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t step_threads =
        (n - step) * n >= kDiscoveryMinWork ? participants : 1;
    // Row-major partial maxima per chunk, then one max per column.
    util::sweep(chunks, step_threads, [&](std::size_t c) {
      double* part = chunk_max.data() + c * n;
      std::fill(part, part + n, 0.0);
      const std::size_t last = std::min(n, (c + 1) * grain);
      for (std::size_t i = c * grain; i < last; ++i) {
        if (!row_active[i]) continue;
        const unsigned char* s = strct.data() + i * n;
        const double* d = dense.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) {
          if (col_active[j] && s[j]) {
            part[j] = std::max(part[j], std::abs(d[j]));
          }
        }
      }
    });
    std::fill(col_max.begin(), col_max.end(), 0.0);
    for (std::size_t c = 0; c < chunks; ++c) {
      const double* part = chunk_max.data() + c * n;
      for (std::size_t j = 0; j < n; ++j) {
        col_max[j] = std::max(col_max[j], part[j]);
      }
    }
    util::sweep(chunks, step_threads, [&](std::size_t c) {
      search(c * grain, std::min(n, (c + 1) * grain), choices[c]);
    });
    PivotChoice best = choices[0];
    for (std::size_t c = 1; c < chunks; ++c) {
      const PivotChoice& next = choices[c];
      if (next.row != n &&
          (best.row == n || next.cost < best.cost ||
           (next.cost == best.cost && next.mag > best.mag))) {
        best.row = next.row;
        best.col = next.col;
        best.cost = next.cost;
        best.mag = next.mag;
      }
      if (next.fallback_mag > best.fallback_mag) {
        best.fallback_row = next.fallback_row;
        best.fallback_col = next.fallback_col;
        best.fallback_mag = next.fallback_mag;
      }
    }
    std::size_t pr = best.row, pc = best.col;
    if (pr == n) {
      pr = best.fallback_row;
      pc = best.fallback_col;
    }
    if (pr == n) return false;  // no usable pivot: singular

    row_perm[step] = pr;
    row_perm_inv[pr] = step;
    col_perm[step] = pc;
    col_perm_inv[pc] = step;
    row_active[pr] = 0;
    col_active[pc] = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (col_active[j] && strct[pr * n + j]) --col_cnt[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (row_active[i] && strct[i * n + pc]) --row_cnt[i];
    }
    const double inv = 1.0 / dense[pr * n + pc];
    for (std::size_t i = 0; i < n; ++i) {
      if (!row_active[i] || !strct[i * n + pc]) continue;
      const double l = dense[i * n + pc] * inv;
      dense[i * n + pc] = l;  // multiplier: the L entry of row i, step col
      for (std::size_t j = 0; j < n; ++j) {
        if (!col_active[j] || !strct[pr * n + j]) continue;
        if (!strct[i * n + j]) {
          strct[i * n + j] = 1;  // fill-in
          ++row_cnt[i];
          ++col_cnt[j];
        }
        dense[i * n + j] -= l * dense[pr * n + j];
      }
    }
  }
  return true;
}

void SparseLu::build_scatter_map(const SparseMatrix& a) {
  // Scatter map for refactorizations, and the pattern identity key.
  const std::size_t n = n_;
  const auto& arp = a.row_ptr();
  const auto& acols = a.cols();
  a_row_ptr_.assign(arp.begin(), arp.end());
  a_cols_.assign(acols.begin(), acols.end());
  a_to_lu_.assign(acols.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = row_perm_inv_[i];
    for (int idx = arp[i]; idx < arp[i + 1]; ++idx) {
      const auto kc = static_cast<int>(col_perm_inv_[static_cast<std::size_t>(
          acols[static_cast<std::size_t>(idx)])]);
      const auto begin = lu_cols_.begin() + lu_row_ptr_[k];
      const auto end = lu_cols_.begin() + lu_row_ptr_[k + 1];
      const auto it = std::lower_bound(begin, end, kc);
      a_to_lu_[static_cast<std::size_t>(idx)] =
          static_cast<int>(it - lu_cols_.begin());
    }
  }
  pos_.assign(n, -1);
  pb_.assign(n, 0.0);

  // Refactor plan. Record where each row's interior-column L entries end
  // and the positions they update, then cut the boundary rows where the
  // running work (those multipliers and updates) crosses each chunk's
  // share. Without interior rows there is no such work: one chunk.
  const std::size_t n_interior = group_row_begin_.back();
  lu_split_.assign(n, 0);
  update_begin_.assign(n + 1, 0);
  update_target_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const int row_end = lu_row_ptr_[k + 1];
    for (int e = lu_row_ptr_[k]; e < row_end; ++e) {
      pos_[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(e)])] = e;
    }
    int idx = lu_row_ptr_[k];
    for (; idx < lu_diag_[k] &&
           static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)]) <
               n_interior;
         ++idx) {
      const auto j =
          static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)]);
      for (int u = lu_diag_[j] + 1; u < lu_row_ptr_[j + 1]; ++u) {
        update_target_.push_back(pos_[static_cast<std::size_t>(
            lu_cols_[static_cast<std::size_t>(u)])]);
      }
    }
    for (int e = lu_row_ptr_[k]; e < row_end; ++e) {
      pos_[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(e)])] =
          -1;
    }
    lu_split_[k] = idx;
    update_begin_[k + 1] = update_target_.size();
  }
  auto work = [&](std::size_t k) {
    return update_begin_[k + 1] - update_begin_[k] +
           static_cast<std::size_t>(lu_split_[k] - lu_row_ptr_[k]);
  };
  std::size_t total = 0;
  for (std::size_t k = n_interior; k < n; ++k) total += work(k);
  const std::size_t chunks =
      std::clamp<std::size_t>(total / kBoundaryChunkWork, 1, kMaxBoundaryChunks);
  bnd_chunk_begin_.assign(1, n_interior);
  std::size_t done = 0;
  for (std::size_t k = n_interior; k + 1 < n; ++k) {
    done += work(k);
    if (bnd_chunk_begin_.size() < chunks &&
        done * chunks >= total * bnd_chunk_begin_.size()) {
      bnd_chunk_begin_.push_back(k + 1);
    }
  }
  bnd_chunk_begin_.push_back(n);
}

bool SparseLu::analyze_grouped(const SparseMatrix& a, double threshold,
                               std::span<const std::vector<int>> groups) {
  const std::size_t n = a.size();
  const auto& arp = a.row_ptr();
  const auto& acols = a.cols();
  const auto& avals = a.values();

  // Unknown -> group map. Direct coupling between unknowns of two
  // *different* groups violates the fold's block structure; both ends of
  // such an edge are demoted to the boundary (one pass suffices: every
  // cross-group edge has both endpoints demoted, so the surviving
  // interiors couple only within their group or to the boundary).
  std::vector<int> group_of(n, -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const int u : groups[g]) {
      if (u < 0 || static_cast<std::size_t>(u) >= n) {
        throw std::out_of_range(
            "SparseLu: ordering-group unknown outside the system");
      }
      if (group_of[static_cast<std::size_t>(u)] != -1) {
        throw std::invalid_argument("SparseLu: overlapping ordering groups");
      }
      group_of[static_cast<std::size_t>(u)] = static_cast<int>(g);
    }
  }
  {
    std::vector<unsigned char> demote(n, 0);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (group_of[i] < 0) continue;
      for (int idx = arp[i]; idx < arp[i + 1]; ++idx) {
        const auto j =
            static_cast<std::size_t>(acols[static_cast<std::size_t>(idx)]);
        if (group_of[j] >= 0 && group_of[j] != group_of[i]) {
          demote[i] = 1;
          demote[j] = 1;
          any = true;
        }
      }
    }
    if (any) {
      for (std::size_t i = 0; i < n; ++i) {
        if (demote[i]) group_of[i] = -1;
      }
    }
  }

  // Interior member lists (post-demotion) and boundary numbering.
  struct LocalFactor {
    std::vector<int> ids;   ///< interior unknowns, local indices 0..ni-1
    std::vector<int> bids;  ///< coupled boundary unknowns, local ni..m-1
    std::vector<double> dense;           ///< m×m local working matrix
    std::vector<unsigned char> strct;    ///< m×m structure incl. fill
    std::vector<std::size_t> lrow_perm;  ///< step -> local interior row
    std::vector<std::size_t> lcol_perm;  ///< step -> local interior col
    std::vector<std::size_t> lrow_pos;   ///< local interior row -> step
    std::vector<std::size_t> lcol_pos;   ///< local interior col -> step
  };
  std::vector<LocalFactor> locals(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const int u : groups[g]) {
      if (group_of[static_cast<std::size_t>(u)] == static_cast<int>(g)) {
        locals[g].ids.push_back(u);
      }
    }
  }
  std::vector<int> bnd;
  std::vector<int> b_index(n, -1);
  for (std::size_t u = 0; u < n; ++u) {
    if (group_of[u] < 0) {
      b_index[u] = static_cast<int>(bnd.size());
      bnd.push_back(static_cast<int>(u));
    }
  }
  const std::size_t nb = bnd.size();

  // One pass over A collects each group's coupled boundary set — the
  // pattern may be structurally asymmetric (branch rows), so both
  // (interior row, boundary col) and (boundary row, interior col) count.
  for (std::size_t r = 0; r < n; ++r) {
    const int gr = group_of[r];
    for (int idx = arp[r]; idx < arp[r + 1]; ++idx) {
      const auto c =
          static_cast<std::size_t>(acols[static_cast<std::size_t>(idx)]);
      const int gc = group_of[c];
      if (gr == gc) continue;
      if (gr >= 0) locals[static_cast<std::size_t>(gr)].bids.push_back(
          static_cast<int>(c));
      if (gc >= 0) locals[static_cast<std::size_t>(gc)].bids.push_back(
          static_cast<int>(r));
    }
  }
  for (auto& lf : locals) {
    std::sort(lf.bids.begin(), lf.bids.end());
    lf.bids.erase(std::unique(lf.bids.begin(), lf.bids.end()), lf.bids.end());
  }

  // Per-group local elimination: threshold-Markowitz restricted to
  // interior×interior pivots, with the group's boundary rows and columns
  // riding along as permanently-active spectators — their updates are the
  // Schur complement, their fill the Schur pattern.
  std::vector<int> loc_of(n, -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    LocalFactor& lf = locals[g];
    const std::size_t ni = lf.ids.size();
    if (ni == 0) continue;
    const std::size_t m = ni + lf.bids.size();
    for (std::size_t k = 0; k < ni; ++k) {
      loc_of[static_cast<std::size_t>(lf.ids[k])] = static_cast<int>(k);
    }
    for (std::size_t k = 0; k < lf.bids.size(); ++k) {
      loc_of[static_cast<std::size_t>(lf.bids[k])] =
          static_cast<int>(ni + k);
    }
    lf.dense.assign(m * m, 0.0);
    lf.strct.assign(m * m, 0);
    std::vector<int> lrow_cnt(m, 0), lcol_cnt(m, 0);
    for (std::size_t lr = 0; lr < m; ++lr) {
      const int r = lr < ni ? lf.ids[lr] : lf.bids[lr - ni];
      for (int idx = arp[r]; idx < arp[r + 1]; ++idx) {
        const int lc = loc_of[static_cast<std::size_t>(
            acols[static_cast<std::size_t>(idx)])];
        if (lc < 0) continue;
        // Boundary×boundary base entries belong to the global boundary
        // block, not the local factor — the local b×b positions hold the
        // pure Schur increment.
        if (lr >= ni && static_cast<std::size_t>(lc) >= ni) continue;
        lf.dense[lr * m + static_cast<std::size_t>(lc)] =
            avals[static_cast<std::size_t>(idx)];
        lf.strct[lr * m + static_cast<std::size_t>(lc)] = 1;
        ++lrow_cnt[lr];
        ++lcol_cnt[static_cast<std::size_t>(lc)];
      }
    }
    for (std::size_t k = 0; k < ni; ++k) {
      loc_of[static_cast<std::size_t>(lf.ids[k])] = -1;
    }
    for (std::size_t k = 0; k < lf.bids.size(); ++k) {
      loc_of[static_cast<std::size_t>(lf.bids[k])] = -1;
    }

    lf.lrow_perm.assign(ni, 0);
    lf.lcol_perm.assign(ni, 0);
    lf.lrow_pos.assign(ni, 0);
    lf.lcol_pos.assign(ni, 0);
    std::vector<unsigned char> lrow_act(m, 1), lcol_act(m, 1);
    for (std::size_t step = 0; step < ni; ++step) {
      std::size_t pr = m, pc = m;
      std::uint64_t best_cost = 0;
      double best_mag = -1.0;
      std::size_t fr = m, fc = m;
      double fallback_mag = -1.0;
      for (std::size_t j = 0; j < ni; ++j) {
        if (!lcol_act[j]) continue;
        // Stability is judged against the column's largest entry over
        // *all* active local rows, boundary rows included — the same
        // entries an analysis without groups would have seen.
        double cmax = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          if (lrow_act[i] && lf.strct[i * m + j]) {
            cmax = std::max(cmax, std::abs(lf.dense[i * m + j]));
          }
        }
        for (std::size_t i = 0; i < ni; ++i) {
          if (!lrow_act[i] || !lf.strct[i * m + j]) continue;
          const double mag = std::abs(lf.dense[i * m + j]);
          if (mag < threshold) continue;
          if (mag > fallback_mag) {
            fallback_mag = mag;
            fr = i;
            fc = j;
          }
          if (mag < kPivotRelTol * cmax) continue;
          const std::uint64_t cost =
              static_cast<std::uint64_t>(lrow_cnt[i] - 1) *
              static_cast<std::uint64_t>(lcol_cnt[j] - 1);
          if (pr == m || cost < best_cost ||
              (cost == best_cost && mag > best_mag)) {
            best_cost = cost;
            best_mag = mag;
            pr = i;
            pc = j;
          }
        }
      }
      if (pr == m) {
        pr = fr;
        pc = fc;
      }
      // A group interior that is not invertible against its own unknowns
      // cannot be folded; analyze() then retries without groups.
      if (pr == m) return false;

      lf.lrow_perm[step] = pr;
      lf.lrow_pos[pr] = step;
      lf.lcol_perm[step] = pc;
      lf.lcol_pos[pc] = step;
      lrow_act[pr] = 0;
      lcol_act[pc] = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (lcol_act[j] && lf.strct[pr * m + j]) --lcol_cnt[j];
      }
      for (std::size_t i = 0; i < m; ++i) {
        if (lrow_act[i] && lf.strct[i * m + pc]) --lrow_cnt[i];
      }
      const double inv = 1.0 / lf.dense[pr * m + pc];
      for (std::size_t i = 0; i < m; ++i) {
        if (!lrow_act[i] || !lf.strct[i * m + pc]) continue;
        const double l = lf.dense[i * m + pc] * inv;
        lf.dense[i * m + pc] = l;
        for (std::size_t j = 0; j < m; ++j) {
          if (!lcol_act[j] || !lf.strct[pr * m + j]) continue;
          if (!lf.strct[i * m + j]) {
            lf.strct[i * m + j] = 1;
            ++lrow_cnt[i];
            ++lcol_cnt[j];
          }
          lf.dense[i * m + j] -= l * lf.dense[pr * m + j];
        }
      }
    }
  }

  // Boundary block: A's boundary×boundary entries plus every group's
  // Schur increment, eliminated by markowitz_eliminate. Without groups
  // this is the whole matrix.
  dense_.assign(nb * nb, 0.0);
  struct_.assign(nb * nb, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const int r = bnd[bi];
    for (int idx = arp[r]; idx < arp[r + 1]; ++idx) {
      const auto c =
          static_cast<std::size_t>(acols[static_cast<std::size_t>(idx)]);
      if (group_of[c] < 0) {
        const auto bj = static_cast<std::size_t>(b_index[c]);
        dense_[bi * nb + bj] = avals[static_cast<std::size_t>(idx)];
        struct_[bi * nb + bj] = 1;
      }
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const LocalFactor& lf = locals[g];
    const std::size_t ni = lf.ids.size();
    if (ni == 0) continue;
    const std::size_t m = ni + lf.bids.size();
    for (std::size_t lbr = ni; lbr < m; ++lbr) {
      const auto bi = static_cast<std::size_t>(
          b_index[static_cast<std::size_t>(lf.bids[lbr - ni])]);
      for (std::size_t lbc = ni; lbc < m; ++lbc) {
        if (!lf.strct[lbr * m + lbc]) continue;
        const auto bj = static_cast<std::size_t>(
            b_index[static_cast<std::size_t>(lf.bids[lbc - ni])]);
        dense_[bi * nb + bj] += lf.dense[lbr * m + lbc];
        struct_[bi * nb + bj] = 1;
      }
    }
  }
  std::vector<std::size_t> brow_perm, brow_pos, bcol_perm, bcol_pos;
  if (nb > 0 &&
      !markowitz_eliminate(dense_, struct_, nb, threshold,
                           groups.empty() ? 1 : util::fan_out_threads(),
                           brow_perm, brow_pos, bcol_perm, bcol_pos)) {
    return false;
  }

  // Harvest one global permutation — group interiors first, in group
  // order, then the boundary — and the permuted L+U pattern, so that
  // refactor()/solve() run unchanged on the grouped ordering.
  row_perm_.assign(n, 0);
  row_perm_inv_.assign(n, 0);
  col_perm_.assign(n, 0);
  col_perm_inv_.assign(n, 0);
  std::vector<std::size_t>& goff = group_row_begin_;
  goff.assign(groups.size() + 1, 0);
  std::size_t off = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const LocalFactor& lf = locals[g];
    goff[g] = off;
    for (std::size_t s = 0; s < lf.ids.size(); ++s) {
      row_perm_[off + s] =
          static_cast<std::size_t>(lf.ids[lf.lrow_perm[s]]);
      col_perm_[off + s] =
          static_cast<std::size_t>(lf.ids[lf.lcol_perm[s]]);
    }
    off += lf.ids.size();
  }
  const std::size_t n_interior = off;
  goff[groups.size()] = n_interior;
  for (std::size_t t = 0; t < nb; ++t) {
    row_perm_[n_interior + t] =
        static_cast<std::size_t>(bnd[brow_perm[t]]);
    col_perm_[n_interior + t] =
        static_cast<std::size_t>(bnd[bcol_perm[t]]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    row_perm_inv_[row_perm_[k]] = k;
    col_perm_inv_[col_perm_[k]] = k;
  }

  // Boundary unknown -> (group, local row) back references for the
  // boundary rows' interior-column (L) entries.
  std::vector<std::vector<std::pair<int, int>>> bnd_groups(nb);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const LocalFactor& lf = locals[g];
    if (lf.ids.empty()) continue;
    for (std::size_t lb = 0; lb < lf.bids.size(); ++lb) {
      bnd_groups[static_cast<std::size_t>(
                     b_index[static_cast<std::size_t>(lf.bids[lb])])]
          .emplace_back(static_cast<int>(g),
                        static_cast<int>(lf.ids.size() + lb));
    }
  }

  lu_row_ptr_.assign(n + 1, 0);
  lu_diag_.assign(n, 0);
  recip_diag_.assign(n, 0.0);
  lu_cols_.clear();
  lu_vals_.clear();
  std::vector<std::pair<std::size_t, double>> row_entries;
  auto emit_row = [&](std::size_t k) -> bool {
    std::sort(row_entries.begin(), row_entries.end());
    bool have_diag = false;
    for (const auto& [kc, v] : row_entries) {
      if (kc == k) {
        lu_diag_[k] = static_cast<int>(lu_cols_.size());
        have_diag = true;
      }
      lu_cols_.push_back(static_cast<int>(kc));
      lu_vals_.push_back(v);
    }
    lu_row_ptr_[k + 1] = static_cast<int>(lu_cols_.size());
    return have_diag;
  };
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const LocalFactor& lf = locals[g];
    const std::size_t ni = lf.ids.size();
    const std::size_t m = ni + lf.bids.size();
    for (std::size_t s = 0; s < ni; ++s) {
      const std::size_t k = goff[g] + s;
      const std::size_t lr = lf.lrow_perm[s];
      row_entries.clear();
      for (std::size_t lc = 0; lc < m; ++lc) {
        if (!lf.strct[lr * m + lc]) continue;
        const std::size_t kc =
            lc < ni ? goff[g] + lf.lcol_pos[lc]
                    : n_interior +
                          bcol_pos[static_cast<std::size_t>(b_index[
                              static_cast<std::size_t>(lf.bids[lc - ni])])];
        row_entries.emplace_back(kc, lf.dense[lr * m + lc]);
      }
      if (!emit_row(k)) return false;
      const double pivot = lf.dense[lr * m + lf.lcol_perm[s]];
      if (std::abs(pivot) < threshold) return false;
      recip_diag_[k] = 1.0 / pivot;
    }
  }
  for (std::size_t t = 0; t < nb; ++t) {
    const std::size_t k = n_interior + t;
    const std::size_t br = brow_perm[t];
    row_entries.clear();
    for (const auto& [g, lr] : bnd_groups[br]) {
      const LocalFactor& lf = locals[static_cast<std::size_t>(g)];
      const std::size_t ni = lf.ids.size();
      const std::size_t m = ni + lf.bids.size();
      const auto lrs = static_cast<std::size_t>(lr);
      for (std::size_t lc = 0; lc < ni; ++lc) {
        if (!lf.strct[lrs * m + lc]) continue;
        row_entries.emplace_back(
            goff[static_cast<std::size_t>(g)] + lf.lcol_pos[lc],
            lf.dense[lrs * m + lc]);
      }
    }
    for (std::size_t bc = 0; bc < nb; ++bc) {
      if (!struct_[br * nb + bc]) continue;
      row_entries.emplace_back(n_interior + bcol_pos[bc],
                               dense_[br * nb + bc]);
    }
    if (!emit_row(k)) return false;
    const double pivot = dense_[br * nb + bcol_perm[t]];
    if (std::abs(pivot) < threshold) return false;
    recip_diag_[k] = 1.0 / pivot;
  }
  return true;
}

void SparseLu::scatter_row(const SparseMatrix& a, std::size_t k) {
  const auto& arp = a.row_ptr();
  const auto& avals = a.values();
  std::fill(lu_vals_.begin() + lu_row_ptr_[k],
            lu_vals_.begin() + lu_row_ptr_[k + 1], 0.0);
  const std::size_t r = row_perm_[k];
  for (int idx = arp[r]; idx < arp[r + 1]; ++idx) {
    lu_vals_[static_cast<std::size_t>(
        a_to_lu_[static_cast<std::size_t>(idx)])] +=
        avals[static_cast<std::size_t>(idx)];
  }
}

void SparseLu::eliminate_interior(std::size_t k) {
  const int* target = update_target_.data() + update_begin_[k];
  for (int idx = lu_row_ptr_[k]; idx < lu_split_[k]; ++idx) {
    const auto j =
        static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)]);
    const double l = lu_vals_[static_cast<std::size_t>(idx)] * recip_diag_[j];
    lu_vals_[static_cast<std::size_t>(idx)] = l;
    const int u_end = lu_row_ptr_[j + 1];
    if (l == 0.0) {
      target += u_end - lu_diag_[j] - 1;
      continue;
    }
    for (int u = lu_diag_[j] + 1; u < u_end; ++u, ++target) {
      if (*target >= 0) {
        lu_vals_[static_cast<std::size_t>(*target)] -=
            l * lu_vals_[static_cast<std::size_t>(u)];
      }
    }
  }
}

bool SparseLu::eliminate_boundary(std::size_t k, double threshold) {
  const int split = lu_split_[k];
  const int row_end = lu_row_ptr_[k + 1];
  for (int idx = split; idx < row_end; ++idx) {
    pos_[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)])] =
        idx;
  }
  const int diag = lu_diag_[k];
  for (int idx = split; idx < diag; ++idx) {
    const auto j =
        static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)]);
    const double l = lu_vals_[static_cast<std::size_t>(idx)] * recip_diag_[j];
    lu_vals_[static_cast<std::size_t>(idx)] = l;
    if (l == 0.0) continue;
    for (int u = lu_diag_[j] + 1; u < lu_row_ptr_[j + 1]; ++u) {
      const int p =
          pos_[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(u)])];
      if (p >= 0) {
        lu_vals_[static_cast<std::size_t>(p)] -=
            l * lu_vals_[static_cast<std::size_t>(u)];
      }
    }
  }
  for (int idx = split; idx < row_end; ++idx) {
    pos_[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)])] =
        -1;
  }
  const double pivot = lu_vals_[static_cast<std::size_t>(diag)];
  if (std::abs(pivot) < threshold) return false;
  recip_diag_[k] = 1.0 / pivot;
  return true;
}

bool SparseLu::refactor(const SparseMatrix& a, double threshold,
                        std::size_t first_changed_row) {
  // Up-looking sweep over the static pattern, rows in permuted order: each
  // L entry (column j < k, ascending) becomes the multiplier
  // l = v / U(j,j) and subtracts l × (U row j) from the row. The pattern
  // is closed under elimination by construction, so every target exists
  // (an absent one is skipped: a cancellation-proof superset can make a
  // position structurally absent — never silently wrong values). Rows
  // below `floor` keep their values: the caller promises their A values
  // are bit-identical to the last successful factor, and a row depends
  // only on earlier rows, so a full sweep would recompute exactly them.
  const std::size_t n = n_;
  const std::size_t floor = first_changed_row;
  // `numeric_valid_` drops for the duration of the sweep: a pivot failure
  // leaves lu_vals_ partially overwritten, which must not seed a later
  // partial refactorization.
  numeric_valid_ = false;
  const std::size_t groups = group_row_begin_.size() - 1;
  const std::size_t n_interior = group_row_begin_.back();
  const std::size_t bnd_chunks = bnd_chunk_begin_.size() - 1;
  const auto first_group = static_cast<std::size_t>(
      std::upper_bound(group_row_begin_.begin() + 1, group_row_begin_.end(),
                       floor) -
      (group_row_begin_.begin() + 1));
  const std::size_t group_chunks =
      (groups - first_group + kGroupGrain - 1) / kGroupGrain;
  const std::size_t threads =
      update_begin_[n] - update_begin_[floor] >= kRefactorMinWork
          ? util::fan_out_threads()
          : 1;

  // Phase 1, the group interiors in parallel: a group's rows name only
  // that group's earlier rows, and a chunk's groups are contiguous rows.
  std::atomic<bool> failed{false};
  util::sweep(group_chunks, threads, [&](std::size_t c) {
    const std::size_t g = first_group + c * kGroupGrain;
    const std::size_t end =
        group_row_begin_[std::min(groups, g + kGroupGrain)];
    for (std::size_t k = std::max(floor, group_row_begin_[g]); k < end; ++k) {
      scatter_row(a, k);
      eliminate_interior(k);
      const double pivot = lu_vals_[static_cast<std::size_t>(lu_diag_[k])];
      if (std::abs(pivot) < threshold) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      recip_diag_[k] = 1.0 / pivot;
    }
  });
  if (failed.load(std::memory_order_relaxed)) return false;

  // Phase 2, the boundary rows in parallel: scatter, then the updates
  // from interior columns, whose rows phase 1 has finished.
  const std::size_t bnd_floor = std::max(floor, n_interior);
  util::sweep(bnd_chunks, threads, [&](std::size_t c) {
    for (std::size_t k = std::max(bnd_floor, bnd_chunk_begin_[c]);
         k < bnd_chunk_begin_[c + 1]; ++k) {
      scatter_row(a, k);
      eliminate_interior(k);
    }
  });

  // Phase 3, the boundary block's own updates and pivots, serially in row
  // order: each position still takes its updates in ascending column
  // order, interior columns first.
  for (std::size_t k = bnd_floor; k < n; ++k) {
    if (!eliminate_boundary(k, threshold)) return false;
  }
  numeric_valid_ = true;
  return true;
}

void SparseLu::solve(std::span<double> b) const {
  const std::size_t n = n_;
  if (b.size() != n) {
    throw std::invalid_argument("SparseLu::solve: size mismatch");
  }
  if (!analyzed_) throw std::logic_error("SparseLu::solve: not factored");
  // Solving (P A Q) y = P b with x = Q y: permute the rhs by the row
  // permutation, sweep L (unit lower) then U (reciprocal diagonal), and
  // scatter back through the column permutation.
  for (std::size_t k = 0; k < n; ++k) pb_[k] = b[row_perm_[k]];
  for (std::size_t k = 0; k < n; ++k) {
    double sum = pb_[k];
    for (int idx = lu_row_ptr_[k]; idx < lu_diag_[k]; ++idx) {
      sum -= lu_vals_[static_cast<std::size_t>(idx)] *
             pb_[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)])];
    }
    pb_[k] = sum;
  }
  for (std::size_t k = n; k-- > 0;) {
    double sum = pb_[k];
    for (int idx = lu_diag_[k] + 1; idx < lu_row_ptr_[k + 1]; ++idx) {
      sum -= lu_vals_[static_cast<std::size_t>(idx)] *
             pb_[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(idx)])];
    }
    pb_[k] = sum * recip_diag_[k];
  }
  for (std::size_t k = 0; k < n; ++k) b[col_perm_[k]] = pb_[k];
}

bool sparse_lu_solve(const SparseMatrix& a, std::span<double> b,
                     double scale_hint) {
  if (b.size() != a.size()) {
    throw std::invalid_argument("sparse_lu_solve: size mismatch");
  }
  SparseLu lu;
  if (!lu.factor(a, scale_hint)) return false;
  lu.solve(b);
  return true;
}

// -------------------------------------------------------------- stamp sinks

void StampSink::stamp_slow(int row, int col) {
  switch (mode_) {
    case Mode::kRecord:
      coords_->emplace_back(row, col);
      return;
    case Mode::kDiscard:
      return;
    case Mode::kDense:
    case Mode::kSlots:
    case Mode::kCapture:
      break;
  }
  throw std::logic_error("StampSink: stamp program overrun");
}

void ResidualSink::add_slow(int row) {
  if (mode_ == Mode::kRecord) {
    rows_->push_back(row);
    return;
  }
  throw std::logic_error("ResidualSink: residual program overrun");
}

}  // namespace samurai::spice
