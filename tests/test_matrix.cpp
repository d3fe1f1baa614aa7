#include "spice/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace samurai::spice {
namespace {

TEST(DenseMatrix, StampIgnoresGround) {
  DenseMatrix m(2);
  m.stamp(-1, 0, 5.0);
  m.stamp(0, -1, 5.0);
  m.stamp(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(DenseMatrix, StampAccumulates) {
  DenseMatrix m(2);
  m.stamp(1, 1, 2.0);
  m.stamp(1, 1, 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
}

TEST(LuSolve, Solves2x2) {
  DenseMatrix a(2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  std::vector<double> b = {5.0, 10.0};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(LuSolve, RequiresPivoting) {
  // Zero on the diagonal: fails without partial pivoting.
  DenseMatrix a(2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  std::vector<double> b = {2.0, 3.0};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(LuSolve, DetectsSingular) {
  DenseMatrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  std::vector<double> b = {1.0, 2.0};
  EXPECT_FALSE(lu_solve(a, b));
}

TEST(LuSolve, SizeMismatchThrows) {
  DenseMatrix a(2);
  std::vector<double> b = {1.0};
  EXPECT_THROW(lu_solve(a, b), std::invalid_argument);
}

TEST(LuSolve, RandomSystemsRoundTrip) {
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + trial % 10;
    DenseMatrix a(n);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) {
      x_true[i] = rng.uniform(-5.0, 5.0);
      for (std::size_t j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1.0, 1.0);
      a.at(i, i) += 3.0;  // keep well conditioned
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
    }
    DenseMatrix a_copy = a;
    ASSERT_TRUE(lu_solve(a_copy, b));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

TEST(LuFactor, FactoredSolveRoundTrip) {
  // The split API: factor once, then re-solve against the stored factors
  // for several right-hand sides (the modified-Newton bypass pattern).
  // Note the factors store the reciprocal U diagonal, so correctness is
  // checked through lu_solve_factored, never by inspecting raw entries.
  util::Rng rng(29);
  const std::size_t n = 7;
  DenseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1.0, 1.0);
    a.at(i, i) += 4.0;
  }
  DenseMatrix lu = a;
  std::vector<std::size_t> pivots;
  ASSERT_TRUE(lu_factor(lu, pivots));
  for (int rhs = 0; rhs < 5; ++rhs) {
    std::vector<double> x_true(n), b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-3.0, 3.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
    }
    lu_solve_factored(lu, pivots, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-10);
  }
}

TEST(LuFactor, ScaleHintMatchesInternalScan) {
  DenseMatrix a(3);
  util::Rng rng(31);
  double scale = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      a.at(i, j) = rng.uniform(-2.0, 2.0);
      scale = std::max(scale, std::abs(a.at(i, j)));
    }
    a.at(i, i) += 3.0;
    scale = std::max(scale, std::abs(a.at(i, i)));
  }
  DenseMatrix with_hint = a;
  DenseMatrix without = a;
  std::vector<std::size_t> p1, p2;
  ASSERT_TRUE(lu_factor(with_hint, p1, scale));
  ASSERT_TRUE(lu_factor(without, p2));
  EXPECT_EQ(p1, p2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(with_hint.at(i, j), without.at(i, j));
    }
  }
}

TEST(LuFactor, ScaleRelativeSingularityAcceptsTinyUnits) {
  // A perfectly conditioned system stamped in fF/µA-scale units: every
  // entry is ~1e-15, far below any absolute pivot floor, but the matrix is
  // nowhere near singular relative to its own scale.
  DenseMatrix a(2);
  a.at(0, 0) = 2e-15;
  a.at(0, 1) = 1e-15;
  a.at(1, 0) = 1e-15;
  a.at(1, 1) = 3e-15;
  std::vector<double> b = {5e-15, 10e-15};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 1.0, 1e-9);
  EXPECT_NEAR(b[1], 3.0, 1e-9);
}

TEST(LuFactor, ScaleRelativeSingularityRejectsScaledSingular) {
  // The same rank-1 matrix is singular at every absolute scale; a fixed
  // absolute threshold would accept the large version.
  for (const double s : {1e-12, 1.0, 1e12}) {
    DenseMatrix a(2);
    a.at(0, 0) = 1.0 * s;
    a.at(0, 1) = 2.0 * s;
    a.at(1, 0) = 2.0 * s;
    a.at(1, 1) = 4.0 * s;
    std::vector<std::size_t> pivots;
    EXPECT_FALSE(lu_factor(a, pivots)) << "scale " << s;
  }
}

TEST(LuFactor, ZeroAndEmptyMatrices) {
  DenseMatrix zero(3);
  std::vector<std::size_t> pivots;
  EXPECT_FALSE(lu_factor(zero, pivots));  // all-zero: singular
  DenseMatrix empty(0);
  EXPECT_TRUE(lu_factor(empty, pivots));  // 0x0: trivially factored
  EXPECT_TRUE(pivots.empty());
}

// ------------------------------------------------------------------ sparse

namespace {

/// Random sparse-ish test matrix: tridiagonal-plus-random-extras pattern,
/// diagonally dominated. Returns the coordinate list used for the pattern.
std::vector<std::pair<int, int>> fill_random_sparse(SparseMatrix& m,
                                                    std::size_t n,
                                                    util::Rng& rng) {
  std::vector<std::pair<int, int>> coords;
  for (std::size_t i = 0; i < n; ++i) {
    coords.emplace_back(static_cast<int>(i), static_cast<int>(i));
    if (i + 1 < n) {
      coords.emplace_back(static_cast<int>(i), static_cast<int>(i + 1));
      coords.emplace_back(static_cast<int>(i + 1), static_cast<int>(i));
    }
    const auto j = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * n) % n;
    if (j != i) coords.emplace_back(static_cast<int>(i), static_cast<int>(j));
  }
  m.build_pattern(n, coords);
  for (const auto& [r, c] : coords) {
    *m.slot(r, c) += rng.uniform(-1.0, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    *m.slot(static_cast<int>(i), static_cast<int>(i)) += 4.0;
  }
  return coords;
}

}  // namespace

TEST(SparseMatrix, PatternAndSlots) {
  SparseMatrix m;
  std::vector<std::pair<int, int>> coords = {
      {0, 0}, {0, 2}, {2, 0}, {0, 2},  // duplicate is fine
      {-1, 1}, {1, -1},                // ground: must be ignored
  };
  EXPECT_TRUE(m.build_pattern(3, coords));
  // Full diagonal always present even though (1,1) and (2,2) were never
  // stamped.
  EXPECT_EQ(m.nnz(), 5u);  // (0,0) (0,2) (1,1) (2,0) (2,2)
  ASSERT_NE(m.slot(1, 1), nullptr);
  EXPECT_EQ(m.slot(0, 1), nullptr);  // not in pattern
  EXPECT_EQ(m.slot(-1, 0), nullptr);  // ground
  *m.slot(0, 2) += 2.0;
  *m.slot(0, 2) += 1.5;
  DenseMatrix d;
  m.to_dense(d);
  EXPECT_DOUBLE_EQ(d.at(0, 2), 3.5);
  // Same coords again: pattern unchanged, values zeroed.
  EXPECT_FALSE(m.build_pattern(3, coords));
  m.to_dense(d);
  EXPECT_DOUBLE_EQ(d.at(0, 2), 0.0);
  // New coordinate: pattern changes.
  coords.emplace_back(1, 2);
  EXPECT_TRUE(m.build_pattern(3, coords));
  EXPECT_EQ(m.nnz(), 6u);
}

TEST(SparseLu, RandomSystemsMatchDense) {
  util::Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 4 + static_cast<std::size_t>(trial);
    SparseMatrix a;
    fill_random_sparse(a, n, rng);
    DenseMatrix ad;
    a.to_dense(ad);
    std::vector<double> x_true(n), b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-5.0, 5.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += ad.at(i, j) * x_true[j];
    }
    std::vector<double> b_dense = b;
    ASSERT_TRUE(sparse_lu_solve(a, b));
    ASSERT_TRUE(lu_solve(ad, b_dense));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(b[i], x_true[i], 1e-9);
      EXPECT_NEAR(b[i], b_dense[i], 1e-9);
    }
  }
}

TEST(SparseLu, SymbolicReuseAcrossRefactors) {
  util::Rng rng(47);
  const std::size_t n = 12;
  SparseMatrix a;
  fill_random_sparse(a, n, rng);
  SparseLu lu;
  bool was_analysis = false;
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis));
  EXPECT_TRUE(was_analysis);
  const std::size_t fill = lu.fill_nnz();
  // New values, same pattern: numeric refactorization only, same fill.
  for (int round = 0; round < 3; ++round) {
    for (double& v : a.values()) v += rng.uniform(-0.1, 0.1);
    std::vector<double> x_true(n), b(n, 0.0);
    DenseMatrix ad;
    a.to_dense(ad);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += ad.at(i, j) * x_true[j];
    }
    ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis));
    EXPECT_FALSE(was_analysis) << "round " << round;
    EXPECT_EQ(lu.fill_nnz(), fill);
    lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

TEST(SparseLu, RequiresOffDiagonalPivotFill) {
  // Structurally zero diagonal entry that only becomes usable through
  // fill-in — the voltage-source branch-row shape from MNA. The diagonal
  // slot exists (build_pattern guarantees it) but holds 0.
  SparseMatrix a;
  std::vector<std::pair<int, int>> coords = {
      {0, 0}, {0, 1}, {1, 0},  // (1,1) stays numerically zero
  };
  a.build_pattern(2, coords);
  *a.slot(0, 0) = 1e-12;  // gmin-scale leak, as on a wl branch row
  *a.slot(0, 1) = 1.0;
  *a.slot(1, 0) = 1.0;
  std::vector<double> b = {2.0, 3.0};
  ASSERT_TRUE(sparse_lu_solve(a, b));
  // x1 = 2 - 1e-12*3 ≈ 2, x0 = 3.
  EXPECT_NEAR(b[0], 3.0, 1e-9);
  EXPECT_NEAR(b[1], 2.0, 1e-9);
}

TEST(SparseLu, ScaleRelativeSingularityAcceptsTinyUnits) {
  // Same well-posed fF/µA-scale system as the dense contract test: both
  // engines share the scale-relative threshold, so neither may reject it.
  SparseMatrix a;
  std::vector<std::pair<int, int>> coords = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  a.build_pattern(2, coords);
  *a.slot(0, 0) = 2e-15;
  *a.slot(0, 1) = 1e-15;
  *a.slot(1, 0) = 1e-15;
  *a.slot(1, 1) = 3e-15;
  std::vector<double> b = {5e-15, 10e-15};
  ASSERT_TRUE(sparse_lu_solve(a, b));
  EXPECT_NEAR(b[0], 1.0, 1e-9);
  EXPECT_NEAR(b[1], 3.0, 1e-9);
}

TEST(SparseLu, ScaleRelativeSingularityRejectsScaledSingular) {
  // Same rank-1 matrix as the dense contract test, at three scales.
  for (const double s : {1e-12, 1.0, 1e12}) {
    SparseMatrix a;
    std::vector<std::pair<int, int>> coords = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    a.build_pattern(2, coords);
    *a.slot(0, 0) = 1.0 * s;
    *a.slot(0, 1) = 2.0 * s;
    *a.slot(1, 0) = 2.0 * s;
    *a.slot(1, 1) = 4.0 * s;
    std::vector<double> b = {1.0, 2.0};
    EXPECT_FALSE(sparse_lu_solve(a, b)) << "scale " << s;
  }
}

TEST(SparseLu, ScaleHintMatchesInternalScan) {
  util::Rng rng(53);
  const std::size_t n = 9;
  SparseMatrix a;
  fill_random_sparse(a, n, rng);
  std::vector<double> x_true(n), b(n, 0.0);
  DenseMatrix ad;
  a.to_dense(ad);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += ad.at(i, j) * x_true[j];
  }
  std::vector<double> b_hint = b;
  SparseLu lu1, lu2;
  ASSERT_TRUE(lu1.factor(a));
  ASSERT_TRUE(lu2.factor(a, a.value_max_abs()));
  EXPECT_EQ(lu1.fill_nnz(), lu2.fill_nnz());
  lu1.solve(b);
  lu2.solve(b_hint);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(b[i], b_hint[i]);
}

TEST(SparseLu, ZeroAndEmptyMatrices) {
  SparseMatrix zero;
  zero.build_pattern(3, std::vector<std::pair<int, int>>{{0, 1}, {1, 2}});
  std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_FALSE(sparse_lu_solve(zero, b));  // all-zero values: singular
  SparseMatrix empty;
  empty.build_pattern(0, std::vector<std::pair<int, int>>{});
  std::vector<double> b0;
  EXPECT_TRUE(sparse_lu_solve(empty, b0));  // 0x0: trivially factored
}

namespace {

/// Array-like pattern: `groups` chains of `per_group` unknowns, each
/// chain's last member coupled to one of two shared rail unknowns at the
/// end — the cell-interior-vs-bitline shape the Schur fold targets.
/// Returns the group index lists (rails ungrouped).
std::vector<std::vector<int>> fill_array_pattern(SparseMatrix& m,
                                                 std::size_t groups,
                                                 std::size_t per_group,
                                                 util::Rng& rng) {
  const std::size_t n = groups * per_group + 2;
  const int rail0 = static_cast<int>(n - 2);
  const int rail1 = static_cast<int>(n - 1);
  std::vector<std::pair<int, int>> coords;
  std::vector<std::vector<int>> group_ids(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t k = 0; k < per_group; ++k) {
      const int i = static_cast<int>(g * per_group + k);
      group_ids[g].push_back(i);
      coords.emplace_back(i, i);
      if (k + 1 < per_group) {
        coords.emplace_back(i, i + 1);
        coords.emplace_back(i + 1, i);
      }
    }
    const int last = group_ids[g].back();
    const int rail = g % 2 == 0 ? rail0 : rail1;
    coords.emplace_back(last, rail);
    coords.emplace_back(rail, last);
  }
  coords.emplace_back(rail0, rail0);
  coords.emplace_back(rail1, rail1);
  coords.emplace_back(rail0, rail1);
  coords.emplace_back(rail1, rail0);
  m.build_pattern(n, coords);
  for (const auto& [r, c] : coords) *m.slot(r, c) += rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    *m.slot(static_cast<int>(i), static_cast<int>(i)) += 6.0;
  }
  return group_ids;
}

void solve_and_check(SparseLu& lu, const SparseMatrix& a, util::Rng& rng,
                     double tol) {
  const std::size_t n = a.size();
  std::vector<double> x_true(n), b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
  const auto& row_ptr = a.row_ptr();
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      b[i] += a.values()[idx] *
              x_true[static_cast<std::size_t>(a.cols()[idx])];
    }
  }
  lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], tol);
}

}  // namespace

TEST(SparseLu, GroupedOrderingMatchesDense) {
  util::Rng rng(61);
  SparseMatrix a;
  const auto groups = fill_array_pattern(a, 24, 5, rng);
  SparseLu lu;
  lu.set_ordering_groups(groups);
  EXPECT_TRUE(lu.has_ordering_groups());
  bool was_analysis = false;
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis));
  EXPECT_TRUE(was_analysis);
  solve_and_check(lu, a, rng, 1e-9);
  // Same pattern, new values: the grouped symbolic analysis is reused by
  // the numeric refactor exactly like the classic one.
  for (double& v : a.values()) v += rng.uniform(-0.1, 0.1);
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis));
  EXPECT_FALSE(was_analysis);
  solve_and_check(lu, a, rng, 1e-9);
  // Clearing the groups invalidates the analysis (different ordering).
  lu.set_ordering_groups({});
  EXPECT_FALSE(lu.has_ordering_groups());
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis));
  EXPECT_TRUE(was_analysis);
  solve_and_check(lu, a, rng, 1e-9);
}

TEST(SparseLu, GroupedOrderingRejectsBadGroups) {
  util::Rng rng(67);
  SparseMatrix a;
  fill_array_pattern(a, 4, 3, rng);
  SparseLu lu;
  lu.set_ordering_groups({{0, 1}, {1, 2}});  // overlap
  EXPECT_THROW(lu.factor(a), std::invalid_argument);
  lu.set_ordering_groups({{0, 99}});  // out of range
  EXPECT_THROW(lu.factor(a), std::out_of_range);
}

TEST(SparseLu, GroupedAnalysisFallsBackWithoutGroups) {
  // Unknowns 0 and 1 are boundary; the group {2, 3} holds unknown 2, whose
  // diagonal is zero and which couples only to boundary unknown 0 (a
  // branch-row shape), so the group interior cannot pivot on its own and
  // the grouped analysis fails. analyze() must rerun without groups: the
  // result is the no-group analysis exactly, and it solves like dense LU.
  const std::vector<std::pair<int, int>> coords = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 2}, {2, 0}, {1, 3}, {3, 1}, {3, 3}};
  SparseMatrix a;
  a.build_pattern(4, coords);
  const double values[] = {4.0, 1.0, 1.0, 5.0, 1.0, 1.0, 0.5, 0.5, 3.0};
  for (std::size_t k = 0; k < coords.size(); ++k) {
    *a.slot(coords[k].first, coords[k].second) = values[k];
  }
  SparseLu grouped;
  grouped.set_ordering_groups({{2, 3}});
  bool was_analysis = false;
  ASSERT_TRUE(grouped.factor(a, -1.0, &was_analysis));
  EXPECT_TRUE(was_analysis);
  EXPECT_TRUE(grouped.has_ordering_groups());
  SparseLu plain;
  ASSERT_TRUE(plain.factor(a));
  EXPECT_EQ(grouped.fill_nnz(), plain.fill_nnz());
  for (std::size_t row = 0; row < 4; ++row) {
    EXPECT_EQ(grouped.permuted_row(row), plain.permuted_row(row))
        << "row " << row;
  }
  util::Rng rng(73);
  solve_and_check(grouped, a, rng, 1e-12);
  DenseMatrix ad;
  a.to_dense(ad);
  std::vector<double> b = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> b_dense = b;
  grouped.solve(b);
  ASSERT_TRUE(lu_solve(ad, b_dense));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(b[i], b_dense[i], 1e-12);
  // New values on the same pattern: a numeric refactor of the fallback
  // analysis, no second analysis.
  for (double& v : a.values()) v *= 1.25;
  ASSERT_TRUE(grouped.factor(a, -1.0, &was_analysis));
  EXPECT_FALSE(was_analysis);
  solve_and_check(grouped, a, rng, 1e-12);
}

TEST(SparseLu, PartialRefactorIsBitIdenticalToFull) {
  util::Rng rng(71);
  SparseMatrix a;
  fill_array_pattern(a, 16, 4, rng);
  const std::size_t n = a.size();
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));

  // Perturb only the original rows whose permuted position is in the
  // trailing quarter of the factor; every leading row stays bit-unchanged,
  // so a partial refactor from `floor` must reproduce the full factor
  // exactly.
  const std::size_t floor = 3 * n / 4;
  const auto& row_ptr = a.row_ptr();
  auto& vals = a.values();
  for (std::size_t r = 0; r < n; ++r) {
    if (lu.permuted_row(r) < floor) continue;
    for (auto k = static_cast<std::size_t>(row_ptr[r]);
         k < static_cast<std::size_t>(row_ptr[r + 1]); ++k) {
      vals[k] += rng.uniform(-0.05, 0.05);
    }
  }

  bool was_analysis = true;
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis, floor));
  EXPECT_FALSE(was_analysis);
  std::vector<double> b_partial(n), b_full(n);
  for (std::size_t i = 0; i < n; ++i) b_partial[i] = rng.uniform(-1.0, 1.0);
  b_full = b_partial;
  lu.solve(b_partial);

  // A second LU that shares the same symbolic analysis (same pattern,
  // pre-perturbation values) but numerically refactors the perturbed A
  // from row 0: the partial sweep must reproduce its factors bitwise.
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis, 0));
  EXPECT_FALSE(was_analysis);
  lu.solve(b_full);
  for (std::size_t i = 0; i < n; ++i) {
    // Bitwise: the retained leading rows plus the re-swept tail must
    // equal the from-scratch numeric sweep exactly.
    EXPECT_EQ(b_partial[i], b_full[i]) << "row " << i;
  }

  // floor == n with unchanged values is a legal no-op returning the
  // cached factors.
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis, n));
  EXPECT_FALSE(was_analysis);
  std::vector<double> b_again(n), b_ref(n);
  for (std::size_t i = 0; i < n; ++i) b_again[i] = rng.uniform(-1.0, 1.0);
  b_ref = b_again;
  lu.solve(b_again);
  ASSERT_TRUE(lu.factor(a, -1.0, &was_analysis, 0));
  lu.solve(b_ref);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(b_again[i], b_ref[i]);
}

TEST(SparseLu, PivotDegradationTriggersReanalysisAtArrayScale) {
  // Array-scale pattern of 2x2 branch-row blocks: initially diagonally
  // dominant, so the analysis pivots on the diagonal. Rescaling the
  // stamps so every diagonal collapses to gmin scale while the
  // off-diagonals grow makes those pivots fail the threshold check: the
  // numeric refactor must bail out and factor() must recover with a
  // fresh symbolic analysis (the signal SolverStats counts as
  // sp_symbolic_analyses) and still solve accurately.
  const std::size_t pairs = 256;
  const std::size_t n = 2 * pairs;
  SparseMatrix a;
  std::vector<std::pair<int, int>> coords;
  for (std::size_t p = 0; p < pairs; ++p) {
    const int i = static_cast<int>(2 * p);
    coords.emplace_back(i, i);
    coords.emplace_back(i, i + 1);
    coords.emplace_back(i + 1, i);
    coords.emplace_back(i + 1, i + 1);
  }
  a.build_pattern(n, coords);
  for (std::size_t p = 0; p < pairs; ++p) {
    const int i = static_cast<int>(2 * p);
    *a.slot(i, i) = 4.0;
    *a.slot(i + 1, i + 1) = 4.0;
    *a.slot(i, i + 1) = 0.5;
    *a.slot(i + 1, i) = 0.5;
  }
  SparseLu lu;
  bool was_analysis = false;
  ASSERT_TRUE(lu.factor(a, a.value_max_abs(), &was_analysis));
  EXPECT_TRUE(was_analysis);

  // Scaled stamps: diagonal -> 1e-16, off-diagonal -> 1.0. The matrix
  // stays comfortably nonsingular (each block is near-antidiagonal) but
  // the old diagonal pivots fall below the scale-relative singularity
  // threshold (~n·eps·max|A|), so the static-pattern numeric refactor
  // must bail out and factor() must recover with a fresh analysis.
  for (std::size_t p = 0; p < pairs; ++p) {
    const int i = static_cast<int>(2 * p);
    *a.slot(i, i) = 1e-16;
    *a.slot(i + 1, i + 1) = 1e-16;
    *a.slot(i, i + 1) = 1.0;
    *a.slot(i + 1, i) = 1.0;
  }
  ASSERT_TRUE(lu.factor(a, a.value_max_abs(), &was_analysis));
  EXPECT_TRUE(was_analysis) << "degraded pivots must force a re-analysis";
  util::Rng rng(73);
  solve_and_check(lu, a, rng, 1e-9);
}

namespace {

/// An array-like pattern: 2048 groups of 4 chained unknowns (the
/// quiescent cells), a rail coupled to every member of every group (the
/// vdd rail), 16 lines each coupled to every member of 128 groups (the
/// bitlines), and 36 ungrouped chains of 4 hung off the lines and the rail
/// (the active cells): 8192 interior unknowns, a 161-unknown boundary.
/// Returns the groups.
std::vector<std::vector<int>> fill_rail_array_pattern(SparseMatrix& m,
                                                      util::Rng& rng) {
  constexpr int kGroups = 2048, kLines = 16, kChains = 36, kPer = 4;
  const int rail = kGroups * kPer;
  const int line0 = rail + 1;
  const int chain0 = line0 + kLines;
  const int n = chain0 + kChains * kPer;
  std::vector<std::pair<int, int>> coords;
  auto couple = [&](int i, int j) {
    coords.emplace_back(i, j);
    coords.emplace_back(j, i);
  };
  auto chain = [&](int first) {
    for (int k = 0; k + 1 < kPer; ++k) couple(first + k, first + k + 1);
  };
  std::vector<std::vector<int>> groups(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    const int first = g * kPer;
    chain(first);
    for (int k = 0; k < kPer; ++k) {
      groups[static_cast<std::size_t>(g)].push_back(first + k);
      couple(first + k, rail);
      couple(first + k, line0 + g % kLines);
    }
  }
  for (int c = 0; c < kChains; ++c) {
    const int first = chain0 + c * kPer;
    chain(first);
    couple(first, line0 + c % kLines);
    couple(first + 1, line0 + (c + 1) % kLines);
    couple(first + kPer - 1, rail);
  }
  for (int b = 0; b < kLines; ++b) couple(line0 + b, rail);
  m.build_pattern(static_cast<std::size_t>(n), coords);
  for (const auto& [r, c] : coords) *m.slot(r, c) += rng.uniform(-1.0, 1.0);
  for (int i = 0; i < n; ++i) *m.slot(i, i) += 6.0;
  *m.slot(rail, rail) += 2.0 * static_cast<double>(n);
  return groups;
}

}  // namespace

TEST(SparseLu, GroupedFactorIsBitIdenticalAtAnyParticipantCount) {
  // The grouped factorization fans out over the shared pool from a plain
  // thread and runs serially inside a pool job. Every value has one
  // writer and its serial floating-point sequence, so the two must agree
  // bit for bit through an analysis, a full refactor, partial refactors
  // from inside a group and from inside the boundary, and a collapsed
  // group pivot that forces a re-analysis. The pattern gives every sweep
  // several chunks (6 discovery row chunks over the boundary, 64 group
  // chunks and 10 boundary-row chunks), and each refactor below has more
  // updates above its floor (63k, 62k and 45k) than the 32,768 from which
  // a refactor fans out.
  util::Rng rng(79);
  SparseMatrix a;
  const auto groups = fill_rail_array_pattern(a, rng);
  const std::size_t n = a.size();
  const std::size_t n_interior = 4 * groups.size();
  std::vector<double> rhs(n);
  for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
  SparseLu pooled, swept;
  pooled.set_ordering_groups(groups);
  swept.set_ordering_groups(groups);

  auto factor_both = [&](std::size_t floor, bool expect_analysis) {
    bool pooled_ok = false;
    bool pooled_analysis = false;
    std::vector<double> pooled_x = rhs;
    util::parallel_for_indexed(
        2,
        [&](std::size_t i) {
          if (i != 0) return;
          pooled_ok = pooled.factor(a, -1.0, &pooled_analysis, floor);
          if (pooled_ok) pooled.solve(pooled_x);
        },
        2);
    ASSERT_TRUE(pooled_ok);
    bool swept_analysis = false;
    ASSERT_TRUE(swept.factor(a, -1.0, &swept_analysis, floor));
    std::vector<double> swept_x = rhs;
    swept.solve(swept_x);
    EXPECT_EQ(pooled_analysis, expect_analysis);
    EXPECT_EQ(swept_analysis, expect_analysis);
    EXPECT_EQ(pooled.fill_nnz(), swept.fill_nnz());
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(pooled.permuted_row(r), swept.permuted_row(r)) << "row " << r;
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(pooled_x[i], swept_x[i]) << "unknown " << i;
    }
    solve_and_check(swept, a, rng, 1e-9);
  };
  // New values on the A rows whose factor rows are at or above `floor`.
  auto perturb_from = [&](std::size_t floor) {
    const auto& row_ptr = a.row_ptr();
    for (std::size_t r = 0; r < n; ++r) {
      if (swept.permuted_row(r) < floor) continue;
      for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        a.values()[static_cast<std::size_t>(k)] += rng.uniform(-0.1, 0.1);
      }
    }
  };

  factor_both(0, true);
  perturb_from(0);
  factor_both(0, false);
  // Group interiors occupy the leading factor rows, 4 per group and in
  // group order; the boundary follows them.
  std::size_t group_first = n;
  for (const int u : groups[120]) {
    group_first =
        std::min(group_first, swept.permuted_row(static_cast<std::size_t>(u)));
  }
  ASSERT_EQ(group_first, 480u);
  perturb_from(group_first + 2);
  factor_both(group_first + 2, false);
  perturb_from(n_interior + 40);
  factor_both(n_interior + 40, false);

  // Collapse one group's diagonal while its chain couplings grow: its
  // static pivots fall below the singularity threshold, the refactor
  // fails and both objects re-analyse.
  const auto& g = groups[57];
  for (std::size_t k = 0; k < g.size(); ++k) {
    *a.slot(g[k], g[k]) = 1e-16;
    if (k + 1 < g.size()) {
      *a.slot(g[k], g[k + 1]) = 1.0;
      *a.slot(g[k + 1], g[k]) = 1.0;
    }
  }
  factor_both(0, true);
}

TEST(SparseLu, ChunkedDiscoveryPicksTheOneScanPivots) {
  // With ordering groups the boundary discovery scans in row chunks of 32
  // on the pool's participants; without, in one serial scan. One empty
  // group makes the whole matrix the boundary of a grouped analysis, so
  // both analyses discover the same matrix and must pick the same pivots:
  // the chunks' choices reduce with the one scan's tie rules (least cost,
  // then larger magnitude, then the first). Unit off-diagonals and equal
  // diagonals per row count tie on both. On one CPU both are one scan.
  for (const bool ties : {false, true}) {
    util::Rng rng(83);
    SparseMatrix a;
    fill_array_pattern(a, 48, 4, rng);
    const std::size_t n = a.size();
    if (ties) {
      const auto& row_ptr = a.row_ptr();
      for (std::size_t r = 0; r < n; ++r) {
        for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
          const auto idx = static_cast<std::size_t>(k);
          a.values()[idx] =
              static_cast<std::size_t>(a.cols()[idx]) == r
                  ? static_cast<double>(row_ptr[r + 1] - row_ptr[r] + 1)
                  : 1.0;
        }
      }
    }
    SparseLu chunked, one_scan;
    chunked.set_ordering_groups({{}});
    ASSERT_TRUE(chunked.factor(a));
    ASSERT_TRUE(one_scan.factor(a));
    EXPECT_EQ(chunked.fill_nnz(), one_scan.fill_nnz());
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(chunked.permuted_row(r), one_scan.permuted_row(r))
          << "row " << r;
    }
    std::vector<double> x_chunked(n), x_one_scan(n);
    for (double& v : x_chunked) v = rng.uniform(-1.0, 1.0);
    x_one_scan = x_chunked;
    chunked.solve(x_chunked);
    one_scan.solve(x_one_scan);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_chunked[i], x_one_scan[i]) << "unknown " << i;
    }
  }
}

}  // namespace
}  // namespace samurai::spice
