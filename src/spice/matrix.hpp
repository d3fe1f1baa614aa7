// Linear algebra for MNA systems, in two sizes.
//
// SRAM-cell-scale circuits have a dozen unknowns, where dense LU with
// partial pivoting is both simpler and faster than any sparse machinery —
// that path is DenseMatrix / lu_factor below and survives unchanged as the
// regression oracle. Whole-column circuits (hundreds of unknowns, a few
// entries per row) go through SparseMatrix / SparseLu: CSR storage with
// stamp programs resolved to direct value-slot pointers once per topology,
// and a fill-reducing LU whose symbolic analysis (pivot order + fill
// pattern) is computed once and reused across Newton iterations, time
// steps and Monte-Carlo repetitions. See DESIGN.md §12.
//
// Both engines expose factorization and triangular solves separately so
// the Newton loop can keep a factorization alive across iterations and
// steps (modified-Newton "bypass"): factor once, then re-solve against the
// stale factors while the residual keeps contracting. Both use the same
// scale-relative singularity threshold (see lu_factor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <span>
#include <utility>
#include <vector>

namespace samurai::spice {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

  std::size_t size() const noexcept { return n_; }
  double& at(std::size_t row, std::size_t col) { return data_[row * n_ + col]; }
  double at(std::size_t row, std::size_t col) const { return data_[row * n_ + col]; }
  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Re-dimension to n×n (zero-filled). Reallocates only when the size
  /// actually changes; returns true in that case so callers can count
  /// workspace allocations.
  bool resize(std::size_t n) {
    if (n == n_) return false;
    n_ = n;
    data_.assign(n * n, 0.0);
    return true;
  }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Add `value` at (row, col); negative indices (ground) are ignored —
  /// this is the MNA stamping primitive.
  void stamp(int row, int col, double value) {
    if (row < 0 || col < 0) return;
    data_[static_cast<std::size_t>(row) * n_ + static_cast<std::size_t>(col)] += value;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Factor A in place by LU with partial pivoting: on return `a` holds the
/// unit-lower multipliers below the diagonal and U on/above it — with the
/// diagonal of U stored *reciprocated* so lu_solve_factored multiplies
/// instead of divides — and `pivots[k]` is the row swapped into position k. Returns false when the
/// matrix is numerically singular. The singularity test is scale-relative:
/// a pivot counts as zero when it falls below n·ε times the largest row
/// norm of the *input* matrix, so well-posed systems stamped in odd units
/// (fF/µA-scale entries) are not falsely rejected, while matrices that are
/// singular up to rounding are caught regardless of their absolute scale.
///
/// `scale_hint`, when non-negative, is taken as the max-abs entry of the
/// input matrix and skips the internal scan — the Newton fast path computes
/// it for free while copying the assembled Jacobian into the factor buffer.
bool lu_factor(DenseMatrix& a, std::vector<std::size_t>& pivots,
               double scale_hint = -1.0);

/// Solve A x = b in place using factors produced by lu_factor. Cheap
/// (O(n²)) relative to the factorization — this is the bypass primitive.
/// Defined inline: at SRAM-cell sizes (n ≈ 10) the triangular sweeps are
/// ~200 flops, so the call overhead is material on the Newton hot path.
inline void lu_solve_factored(const DenseMatrix& lu,
                              const std::vector<std::size_t>& pivots,
                              std::span<double> b) {
  const std::size_t n = lu.size();
  if (b.size() != n || pivots.size() != n) {
    throw std::invalid_argument("lu_solve_factored: size mismatch");
  }
  // Row interchanges in factorization order, then L y = Pb (unit lower),
  // then U x = y. Row-major traversal keeps both sweeps contiguous.
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots[k] != k) std::swap(b[k], b[pivots[k]]);
  }
  const double* data = lu.data();
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = data + i * n;
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) sum -= row[j] * b[j];
    b[i] = sum;
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row = data + i * n;
    double sum = b[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= row[j] * b[j];
    b[i] = sum * row[i];  // diagonal holds 1/U(i,i)
  }
}

/// One-shot convenience: factor + solve. A and b are destroyed; returns
/// false if the matrix is singular (see lu_factor).
bool lu_solve(DenseMatrix& a, std::span<double> b);

// ------------------------------------------------------------------ sparse

/// CSR matrix whose pattern is fixed between build_pattern calls. Entries
/// are addressed by stable value-slot pointers (slot), so device stamp
/// programs resolve their (row, col) pairs to pointers once per topology
/// and per-iteration stamping is pointer chasing — no hashing, no search.
class SparseMatrix {
 public:
  std::size_t size() const noexcept { return n_; }
  std::size_t nnz() const noexcept { return cols_.size(); }

  /// Rebuild the pattern from coordinate pairs (duplicates are fine;
  /// ground stamps must already be filtered out). The full diagonal is
  /// always included so gmin/nodeset-pin injection and pivoting have a
  /// slot on every row. Values are zeroed. Returns true when the pattern
  /// actually changed — callers invalidate symbolic factorizations (and
  /// count a workspace reallocation) only in that case.
  bool build_pattern(std::size_t n,
                     std::span<const std::pair<int, int>> coords);

  /// Adopt another matrix's pattern (shared topology, separate values).
  void copy_pattern_from(const SparseMatrix& other);

  void set_zero() { std::fill(values_.begin(), values_.end(), 0.0); }

  /// Overwrite this matrix's values with `other`'s (same pattern): the
  /// fast-path restore of a cached base Jacobian — one memcpy, no
  /// re-stamping.
  void copy_values_from(const SparseMatrix& other) {
    std::memcpy(values_.data(), other.values_.data(),
                values_.size() * sizeof(double));
  }

  /// Stable pointer to the value slot at (row, col); nullptr when the
  /// entry is not in the pattern or addresses ground. Valid until the
  /// next build_pattern call.
  double* slot(int row, int col);

  double value_max_abs() const;

  const std::vector<int>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<int>& cols() const noexcept { return cols_; }
  const std::vector<double>& values() const noexcept { return values_; }
  std::vector<double>& values() noexcept { return values_; }

  /// Dense copy (tests and the one-time discovery factorization).
  void to_dense(DenseMatrix& out) const;

 private:
  std::size_t n_ = 0;
  std::vector<int> row_ptr_;    ///< n + 1 offsets
  std::vector<int> cols_;       ///< column index per entry, sorted per row
  std::vector<double> values_;  ///< one value per entry
  // Retained scratch so a same-pattern rebuild is allocation-free.
  std::vector<std::uint64_t> keys_;
  std::vector<int> scratch_row_ptr_;
  std::vector<int> scratch_cols_;
};

/// Sparse LU with threshold-Markowitz (fill-reducing) pivoting and a
/// reusable symbolic factorization.
///
/// The first factor() call runs a *discovery* factorization on a dense
/// working copy: at each step it picks, among the numerically acceptable
/// entries of the active submatrix (|v| within kPivotRelTol of its active
/// column's largest entry — the Spice3-style stability test), the one with
/// the smallest Markowitz cost (r-1)(c-1), tracking structure separately
/// from values so accidental cancellation cannot shrink the recorded
/// pattern. Pivots may be off-diagonal — MNA branch rows (voltage sources)
/// have structurally zero diagonals, so the row and column permutations
/// are independent. The permutation pair and permuted L+U fill pattern are
/// kept;
/// later factor() calls on the same pattern are *static-pattern numeric
/// refactorizations* — scatter, one up-looking sweep, no pivot search —
/// which is what makes per-step factorization cheap on the Newton hot
/// path. A refactorization whose static pivots degrade numerically falls
/// back to a fresh analysis automatically.
///
/// The singularity test mirrors lu_factor exactly: a pivot counts as zero
/// below max(scale · n · ε, DBL_MIN) where `scale` is the max-abs entry of
/// the input (or `scale_hint` when non-negative, skipping the scan).
///
/// With ordering groups (the Schur fold below) the factorization runs on
/// util::fan_out_threads() participants of the shared pool, serially inside
/// a pool job, and is bit-identical at any participant count: every value
/// has one writer and keeps its serial floating-point sequence (DESIGN.md
/// §15). The boundary discovery splits each step's column-maximum scan and
/// pivot search into row chunks, reduced in chunk order; its elimination
/// stays serial. A numeric refactorization runs in three phases: the group
/// interiors in parallel (a group's rows read only that group's earlier
/// rows), then each boundary row's updates against interior columns in
/// parallel (rows chunked by that work), then the boundary block's own
/// updates and pivots serially in row order; with fewer than 32,768
/// recorded updates above its floor it runs them on the calling thread.
/// The triangular solve, and every factorization without groups, stay
/// serial.
class SparseLu {
 public:
  /// Drop all symbolic state (stale factors from another topology must
  /// never leak into a fresh solve).
  void invalidate() noexcept {
    analyzed_ = false;
    numeric_valid_ = false;
  }
  /// Entries in L+U including fill-in (after a successful analysis).
  std::size_t fill_nnz() const noexcept { return lu_cols_.size(); }

  /// Grouped (Schur-fold) elimination ordering. Each group lists the MNA
  /// unknowns interior to one quiescent cell; unknowns in no group are
  /// *boundary*. The analysis then eliminates every group's interior
  /// first — a small local threshold-Markowitz factorization per group,
  /// pivots restricted to interior×interior, whose Schur complement is
  /// accumulated onto the boundary — and orders the boundary last with
  /// the whole-matrix Markowitz pass (with no groups, the boundary is the
  /// whole matrix: one analysis routine serves both). This is the
  /// fill-reducing ordering hook for array-scale patterns: the O(n²)
  /// dense discovery scratch shrinks to O(boundary²) + O(max group²), and
  /// refactor() can skip the leading (group) rows entirely when only
  /// boundary/active stamps changed (see `first_changed_row`). Unknowns of
  /// two *different* groups must not couple directly; coupled pairs are
  /// demoted to the boundary during analysis rather than rejected. A group
  /// interior that cannot pivot on its own fails the grouped analysis,
  /// which is then rerun without groups up to 8192 unknowns. Setting a
  /// different group list invalidates the current analysis; an equal one
  /// is a no-op.
  void set_ordering_groups(std::vector<std::vector<int>> groups);
  bool has_ordering_groups() const noexcept { return !groups_.empty(); }

  /// Position of an original row in the elimination (pivot) order. Valid
  /// after a successful analysis. With grouped ordering, group interiors
  /// occupy [0, n_interior) and the boundary the tail — callers use this
  /// to translate "which stamps changed" into a refactor floor.
  std::size_t permuted_row(std::size_t original_row) const {
    return row_perm_inv_[original_row];
  }

  /// Factor `a`. Reuses the stored symbolic analysis when `a`'s pattern
  /// matches; analyses from scratch otherwise (or when static pivoting
  /// fails). Returns false when the matrix is numerically singular. When
  /// `was_analysis` is non-null it reports whether this call performed a
  /// fresh symbolic analysis (vs a numeric refactorization only).
  ///
  /// `first_changed_row` (permuted index, see permuted_row) promises that
  /// every A value mapping to a factor row below it is bit-identical to
  /// the previous *successful* factor() of this object: the numeric
  /// refactorization then keeps those rows' L/U values and re-scatters +
  /// re-sweeps only rows at or above the floor — bit-identical to the
  /// full sweep by construction, since an up-looking row depends only on
  /// earlier rows. Ignored (treated as 0) when the previous numeric state
  /// is unavailable or a fresh analysis runs.
  bool factor(const SparseMatrix& a, double scale_hint = -1.0,
              bool* was_analysis = nullptr, std::size_t first_changed_row = 0);

  /// Solve A x = b in place against the live factors (cheap, O(fill)).
  void solve(std::span<double> b) const;

  /// Adopt `other`'s symbolic analysis (permutations, fill pattern,
  /// scatter map and the analysed A-pattern copy), so this object's next
  /// factor() of a same-pattern matrix is a static-pattern numeric
  /// refactorization instead of a discovery analysis. This is how the
  /// batched transient engine pays for exactly one symbolic analysis
  /// across all K Monte-Carlo lanes: lane 0 analyses, the rest adopt.
  /// Numeric values are overwritten by the adopter's first factor().
  void adopt_analysis_from(const SparseLu& other) {
    if (this != &other) *this = other;
  }

 private:
  bool pattern_matches(const SparseMatrix& a) const;
  /// Symbolic analysis: analyze_grouped on groups_, then, if that fails
  /// and n <= kGroupedFallbackLimit, once more without groups.
  bool analyze(const SparseMatrix& a, double threshold);
  /// The one discovery routine. Group interiors are eliminated first,
  /// each by a local threshold-Markowitz pass, and the boundary (every
  /// unknown in no group) last by markowitz_eliminate; with no groups the
  /// boundary is the whole matrix.
  bool analyze_grouped(const SparseMatrix& a, double threshold,
                       std::span<const std::vector<int>> groups);
  /// The scatter map, the pattern key and the refactor's chunk plan.
  void build_scatter_map(const SparseMatrix& a);
  bool refactor(const SparseMatrix& a, double threshold,
                std::size_t first_changed_row);
  /// Zero factor row k and add A's values into it.
  void scatter_row(const SparseMatrix& a, std::size_t k);
  /// Row k's L entries in interior columns (all of an interior row's):
  /// each becomes its multiplier and subtracts its multiple of the U row
  /// above, at the targets the analysis recorded.
  void eliminate_interior(std::size_t k);
  /// Row k's remaining L entries, through the pos_ row map; returns false
  /// when its pivot falls below `threshold`, else sets its reciprocal.
  bool eliminate_boundary(std::size_t k, double threshold);
  static double resolve_scale(const SparseMatrix& a, double scale_hint);
  /// Threshold-Markowitz elimination of an n×n dense working copy with
  /// separate structure tracking — the discovery core of the boundary
  /// block. On success `dense` holds the permuted factors (multipliers
  /// below, U on and above the pivot positions) and the four permutation
  /// arrays are filled; `strct` marks every position that is structurally
  /// nonzero at any point (the fill pattern). With `participants` > 1 (a
  /// grouped analysis) each step's column-maximum scan and pivot search
  /// run in row chunks on that many participants of the shared pool;
  /// with 1 (the whole-matrix discovery, or a one-CPU host) each is one
  /// serial row-major scan.
  static bool markowitz_eliminate(std::vector<double>& dense,
                                  std::vector<unsigned char>& strct,
                                  std::size_t n, double threshold,
                                  std::size_t participants,
                                  std::vector<std::size_t>& row_perm,
                                  std::vector<std::size_t>& row_perm_inv,
                                  std::vector<std::size_t>& col_perm,
                                  std::vector<std::size_t>& col_perm_inv);

  bool analyzed_ = false;
  /// True while lu_vals_ holds the factors of the last successful
  /// factor(): the precondition for a partial (first_changed_row > 0)
  /// refactorization.
  bool numeric_valid_ = false;
  std::vector<std::vector<int>> groups_;  ///< Schur-fold ordering groups
  std::size_t n_ = 0;
  std::vector<std::size_t> row_perm_;      ///< step -> original row
  std::vector<std::size_t> row_perm_inv_;  ///< original row -> step
  std::vector<std::size_t> col_perm_;      ///< step -> original column
  std::vector<std::size_t> col_perm_inv_;  ///< original column -> step
  // Permuted CSR of L+U (columns in permuted indices, ascending, diagonal
  // always present).
  std::vector<int> lu_row_ptr_;
  std::vector<int> lu_cols_;
  std::vector<double> lu_vals_;
  std::vector<int> lu_diag_;          ///< entry index of the diagonal per row
  std::vector<double> recip_diag_;    ///< 1 / U(k,k): solve multiplies
  std::vector<int> a_to_lu_;          ///< A entry -> lu_vals_ scatter map
  // Copy of the analysed A pattern (refactor-vs-analyse decision).
  std::vector<int> a_row_ptr_;
  std::vector<int> a_cols_;
  // Refactor plan. Group g's interior rows are [group_row_begin_[g],
  // group_row_begin_[g + 1]); the last entry is n_interior, and the
  // boundary rows [n_interior, n) are cut into chunks of similar
  // interior-column work at bnd_chunk_begin_. Row k's L entries in
  // interior columns end at lu_split_[k], and the lu_vals_ positions they
  // update, in update order (-1: structurally absent), are
  // update_target_[update_begin_[k], update_begin_[k + 1]).
  std::vector<std::size_t> group_row_begin_;
  std::vector<std::size_t> bnd_chunk_begin_;
  std::vector<int> lu_split_;
  std::vector<std::size_t> update_begin_;
  std::vector<int> update_target_;
  // Retained scratch (discovery working matrix, the serial refactor's row
  // map, rhs).
  std::vector<double> dense_;
  std::vector<unsigned char> struct_;
  std::vector<int> pos_;
  mutable std::vector<double> pb_;
};

/// One-shot convenience mirroring lu_solve: factor + solve. Returns false
/// if the matrix is singular (same scale-relative contract as lu_factor).
bool sparse_lu_solve(const SparseMatrix& a, std::span<double> b,
                     double scale_hint = -1.0);

// -------------------------------------------------------------- stamp sink

/// Polymorphic-by-mode stamping target handed to Device::load as
/// LoadContext::jacobian. Devices always call `stamp(row, col, value)`;
/// what happens depends on how the sink is bound:
///
///  - dense:   forward into a DenseMatrix (the classic path),
///  - record:  append (row, col) to a coordinate list, ignoring values —
///             used once per topology to capture each stamp *program*,
///  - slots:   `*slots[cursor++] += value` — replay of a recorded program
///             against resolved CSR value-slot pointers (the sparse hot
///             path: no hashing, no bounds search),
///  - capture: `captured[cursor++] = value` — the activity-partitioned
///             engine's device sweep: each device writes its stamps into
///             its own slice of a program-aligned value array, and the row
///             sweep adds each matrix entry's values up in program order
///             (a quiescent device's slice is also what later iterations
///             replay without re-evaluating the model),
///  - discard: drop everything (cache-hit passes that only need residuals).
///
/// Ground stamps (negative row or col) are skipped in *every* mode with
/// the same test, so a recorded program and its replay always walk the
/// same stamp sequence. The cursor is checked against the program length
/// after each device loop; devices must therefore emit a deterministic
/// stamp sequence for a fixed (scope, a0 == 0) — see Device::load.
class StampSink {
 public:
  void bind_dense(DenseMatrix* dense) noexcept {
    mode_ = Mode::kDense;
    dense_ = dense;
  }
  void bind_record(std::vector<std::pair<int, int>>* coords) noexcept {
    mode_ = Mode::kRecord;
    coords_ = coords;
  }
  void bind_slots(double* const* slots, std::size_t count) noexcept {
    mode_ = Mode::kSlots;
    slots_ = slots;
    slot_count_ = count;
    cursor_ = 0;
  }
  /// Write the next `count` stamps' values to `captured` (a device's
  /// slice of its recorded program), touching no matrix.
  void bind_capture(double* captured, std::size_t count) noexcept {
    mode_ = Mode::kCapture;
    slot_count_ = count;
    captured_ = captured;
    cursor_ = 0;
  }
  void bind_discard() noexcept { mode_ = Mode::kDiscard; }

  /// True when stamps are being dropped (cache-hit residual passes).
  /// Devices whose Jacobian entries are value-independent may skip the
  /// stamp calls entirely in this mode — the stamp-sequence determinism
  /// contract only applies to record/slots modes, which track a cursor.
  bool discarding() const noexcept { return mode_ == Mode::kDiscard; }

  /// Stamps consumed since the last bind_slots (program-length check).
  std::size_t cursor() const noexcept { return cursor_; }

  void stamp(int row, int col, double value) {
    if (row < 0 || col < 0) return;  // ground
    switch (mode_) {
      case Mode::kDense:
        dense_->stamp(row, col, value);
        return;
      case Mode::kSlots:
        if (cursor_ < slot_count_) {
          *slots_[cursor_++] += value;
          return;
        }
        break;
      case Mode::kCapture:
        if (cursor_ < slot_count_) {
          captured_[cursor_++] = value;
          return;
        }
        break;
      case Mode::kRecord:
      case Mode::kDiscard:
        break;
    }
    stamp_slow(row, col);
  }

 private:
  /// Recording, discarding and the program-overrun error, out of line so
  /// that stamp() stays small enough to inline into every device load.
  void stamp_slow(int row, int col);

  enum class Mode { kDense, kSlots, kCapture, kRecord, kDiscard };
  Mode mode_ = Mode::kDiscard;
  DenseMatrix* dense_ = nullptr;
  std::vector<std::pair<int, int>>* coords_ = nullptr;
  double* const* slots_ = nullptr;
  std::size_t slot_count_ = 0;
  double* captured_ = nullptr;
  std::size_t cursor_ = 0;
};

/// The residual counterpart of StampSink, handed to Device::load as
/// LoadContext::residual. Devices always call `add(row, value)`:
///
///  - vector:  `(*f)[row] += value` — the direct path of every engine,
///  - record:  append `row` to a list, once per topology, capturing a
///             scope's residual *program* (see Device::load),
///  - capture: `captured[cursor++] = value` into a device's slice of a
///             program-aligned value array, which the partitioned
///             engine's row sweep adds up per row in program order.
///
/// Ground (negative row) is skipped in every mode, so a recorded program
/// and its capture walk the same sequence.
class ResidualSink {
 public:
  void bind_vector(std::vector<double>* f) noexcept {
    mode_ = Mode::kVector;
    f_ = f;
  }
  void bind_record(std::vector<int>* rows) noexcept {
    mode_ = Mode::kRecord;
    rows_ = rows;
  }
  void bind_capture(double* captured, std::size_t count) noexcept {
    mode_ = Mode::kCapture;
    captured_ = captured;
    count_ = count;
    cursor_ = 0;
  }

  /// Adds consumed since the last bind_capture (program-length check).
  std::size_t cursor() const noexcept { return cursor_; }

  void add(int row, double value) {
    if (row < 0) return;  // ground
    if (mode_ == Mode::kVector) {
      (*f_)[static_cast<std::size_t>(row)] += value;
    } else if (mode_ == Mode::kCapture && cursor_ < count_) {
      captured_[cursor_++] = value;
    } else {
      add_slow(row);
    }
  }

 private:
  /// Recording and the capture-overrun error, out of line (see stamp_slow).
  void add_slow(int row);

  enum class Mode { kVector, kCapture, kRecord };
  Mode mode_ = Mode::kVector;
  std::vector<double>* f_ = nullptr;
  std::vector<int>* rows_ = nullptr;
  double* captured_ = nullptr;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;
};

}  // namespace samurai::spice
