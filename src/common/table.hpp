#pragma once

/// \file table.hpp
/// Aligned console tables + CSV output for the benchmark harnesses. Every
/// figure-reproduction bench prints its series through this class so the
/// rows are uniform and machine-parsable.

#include <iosfwd>
#include <string>
#include <vector>

namespace nocdvfs::common {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Add a fully formed row; throws std::invalid_argument on width mismatch.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given precision.
  static std::string fmt(double v, int precision = 3);

  std::size_t rows() const noexcept { return rows_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

  /// Write an aligned, human-readable table.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nocdvfs::common
