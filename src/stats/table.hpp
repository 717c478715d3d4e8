// Console table / CSV rendering for the benchmark harness.
//
// Every bench binary prints the rows/series of one paper figure; Table
// keeps the formatting in one place (fixed-width console layout plus a
// machine-readable CSV dump).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace bneck::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Formats a double with the given precision (trailing zeros kept).
  static std::string num(double v, int precision = 2);
  static std::string integer(std::int64_t v);

  /// Fixed-width, right-aligned console rendering.
  void print(std::ostream& os) const;

  /// Comma-separated dump (no quoting; cells must not contain commas).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bneck::stats
