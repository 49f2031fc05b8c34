// ASCII table formatting for human-readable reports: psync_sim's sweep
// tables and the examples print their rows through this printer so the
// output is diffable against EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psync {

/// A simple column-aligned table: add a header, then rows of cells; widths
/// are computed on render. Numeric helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Begin a new row; cells are appended with add().
  Table& row();

  Table& add(std::string cell);
  Table& add(const char* cell) { return add(std::string(cell)); }
  Table& add(std::int64_t v);
  Table& add(int v) { return add(static_cast<std::int64_t>(v)); }
  /// Fixed-precision double (default 2 decimals).
  Table& add(double v, int precision = 2);

  std::size_t rows() const { return cells_.size(); }
  std::size_t cols() const { return header_.size(); }
  const std::string& at(std::size_t r, std::size_t c) const;

  /// Render with a header rule; the first column is left-aligned, the rest
  /// right-aligned.
  std::string to_string() const;

  /// Optional caption printed above the table.
  void set_title(std::string title) { title_ = std::move(title); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> cells_;
};

/// Format helper: "12.34" etc.
std::string format_double(double v, int precision);

}  // namespace psync
