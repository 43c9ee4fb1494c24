#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace nocdvfs::common {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument("Table: row width " + std::to_string(cells.size()) +
                                " != column count " + std::to_string(columns_.size()));
  }
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << cells[c];
      os << (c + 1 < cells.size() ? "  " : "");
    }
    os << '\n';
  };
  print_row(columns_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace nocdvfs::common
