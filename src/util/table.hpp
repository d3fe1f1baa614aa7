// Column-oriented result tables for benches and examples.
//
// Benches regenerate the paper's tables/figures by printing rows; `Table`
// keeps the column layout, alignment and CSV export in one place so every
// bench produces consistently formatted output.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace samurai::util {

/// A cell is a string, an integer or a floating-point value; doubles are
/// rendered with a per-table precision.
using Cell = std::variant<std::string, long long, double>;

class Table {
 public:
  explicit Table(std::vector<std::string> headers, int precision = 6);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<Cell> row);

  /// Pretty-print with aligned columns and a header rule.
  void print(std::ostream& os) const;

  /// Write as RFC-4180-ish CSV (quotes only when needed).
  void write_csv(std::ostream& os) const;
  void write_csv_file(const std::string& path) const;

 private:
  std::string render(const Cell& cell) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_;
};

}  // namespace samurai::util
