#include "sim/result_diff.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/strings.hpp"
#include "sim/result_schema.hpp"

namespace nocdvfs::sim {

namespace {

using RowKey = std::pair<std::string, std::string>;  // (group or "", index)

std::size_t column_of(const ResultCsv& csv, const std::string& name) {
  return static_cast<std::size_t>(
      std::find(csv.header.begin(), csv.header.end(), name) - csv.header.begin());
}

}  // namespace

ResultCsv read_result_csv(std::istream& in, const std::string& path) {
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  if (text.empty()) throw std::runtime_error(path + ": empty file (no header row)");
  auto error = [&path](std::size_t line, const std::string& what) {
    return std::runtime_error(path + ":" + std::to_string(line) + ": " + what);
  };

  // RFC 4180 cells: a quoted cell may hold commas, newlines and "" escapes.
  std::vector<std::vector<std::string>> records;
  std::vector<std::size_t> record_lines;
  std::vector<std::string> row;
  std::string cell;
  std::size_t line = 1;
  std::size_t row_line = 1;
  bool in_quotes = false;
  bool closed_quote = false;  // the current cell was quoted and has closed
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (in_quotes) {
      if (ch == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        cell += '"';
        ++i;
      } else if (ch == '"') {
        in_quotes = false;
        closed_quote = true;
      } else {
        if (ch == '\n') ++line;
        cell += ch;
      }
    } else if (ch == ',' || ch == '\n') {
      row.push_back(std::move(cell));
      cell.clear();
      closed_quote = false;
      if (ch == '\n') {
        records.push_back(std::move(row));
        row.clear();
        record_lines.push_back(row_line);
        row_line = ++line;
      }
    } else if (ch == '"') {
      if (!cell.empty() || closed_quote) throw error(line, "stray quote inside a cell");
      in_quotes = true;
    } else {
      if (closed_quote) throw error(line, "text after a closing quote");
      cell += ch;
    }
  }
  if (in_quotes) throw error(row_line, "unterminated quote");
  if (!row.empty() || !cell.empty() || closed_quote) {  // no final newline
    row.push_back(std::move(cell));
    records.push_back(std::move(row));
    record_lines.push_back(row_line);
  }

  ResultCsv csv;
  csv.path = path;
  csv.header = std::move(records.front());
  for (std::size_t c = 0; c < csv.header.size(); ++c) {
    const std::string& name = csv.header[c];
    if (find_result_field(name) == nullptr) {
      throw error(1, "column '" + name + "' is not in the result schema");
    }
    if (column_of(csv, name) != c) throw error(1, "column '" + name + "' appears twice");
  }
  const std::size_t group_col = column_of(csv, "group");
  const std::size_t index_col = column_of(csv, "index");
  if (group_col == csv.header.size() || index_col == csv.header.size()) {
    throw error(1, "the header needs both a 'group' and an 'index' column");
  }

  std::map<RowKey, std::size_t> seen;  // → line
  for (std::size_t r = 1; r < records.size(); ++r) {
    std::vector<std::string>& cells = records[r];
    if (cells.size() != csv.header.size()) {
      throw error(record_lines[r], std::to_string(cells.size()) + " cells, but the header has " +
                                       std::to_string(csv.header.size()));
    }
    const auto [it, fresh] =
        seen.emplace(RowKey{cells[group_col], cells[index_col]}, record_lines[r]);
    if (!fresh) {
      throw error(record_lines[r], "duplicate row group='" + cells[group_col] + "' index=" +
                                       cells[index_col] + " (first on line " +
                                       std::to_string(it->second) + ")");
    }
    csv.rows.push_back(std::move(cells));
  }
  return csv;
}

ResultDiff diff_results(const ResultCsv& a, const ResultCsv& b,
                        const ResultDiffOptions& options) {
  for (const std::string& name : options.skip) {
    if (find_result_field(name) == nullptr) {
      throw std::invalid_argument("skip=" + name + ": not a result column");
    }
  }
  ResultDiff diff;
  for (const ResultField& field : result_schema()) {
    if (field.cls == FieldClass::Identity || field.cls == FieldClass::Host) continue;
    const std::string name(field.name);
    if (std::find(options.skip.begin(), options.skip.end(), name) != options.skip.end()) {
      continue;
    }
    const bool in_a = column_of(a, name) < a.header.size();
    const bool in_b = column_of(b, name) < b.header.size();
    if (in_a != in_b) {
      throw std::invalid_argument("column '" + name + "' is in " + (in_a ? a.path : b.path) +
                                  " but not in " + (in_a ? b.path : a.path));
    }
    if (in_a) diff.columns.push_back(name);
  }

  const bool by_group = options.group_a.empty();
  const std::string& group_b = options.group_b.empty() ? options.group_a : options.group_b;
  // The selected rows of one file, keyed (group, index) or (index).
  auto select = [by_group](const ResultCsv& csv, const std::string& group) {
    const std::size_t g = column_of(csv, "group");
    const std::size_t idx = column_of(csv, "index");
    std::vector<std::pair<RowKey, const std::vector<std::string>*>> rows;
    for (const std::vector<std::string>& row : csv.rows) {
      if (by_group) {
        rows.push_back({{row[g], row[idx]}, &row});
      } else if (row[g] == group) {
        rows.push_back({{"", row[idx]}, &row});
      }
    }
    if (rows.empty()) {
      throw std::invalid_argument(csv.path + ": no rows" +
                                  (by_group ? std::string() : " in group '" + group + "'"));
    }
    return rows;
  };
  const auto a_selected = select(a, options.group_a);
  const auto b_selected = select(b, group_b);
  const std::map<RowKey, const std::vector<std::string>*> a_rows(a_selected.begin(),
                                                                  a_selected.end());

  const std::size_t a_group = column_of(a, "group");
  const std::size_t b_group = column_of(b, "group");
  for (const auto& [key, b_row] : b_selected) {
    const auto it = a_rows.find(key);
    if (it == a_rows.end()) {
      diff.mismatches.push_back({"", (*b_row)[b_group], key.second, "", "", ""});
      continue;
    }
    const std::vector<std::string>& a_row = *it->second;
    ++diff.row_pairs;
    for (const std::string& name : diff.columns) {
      const std::string& va = a_row[column_of(a, name)];
      const std::string& vb = (*b_row)[column_of(b, name)];
      if (va != vb) {
        diff.mismatches.push_back({a_row[a_group], (*b_row)[b_group], key.second, name, va, vb});
      }
    }
  }
  diff.unpaired_a = a_rows.size() - diff.row_pairs;
  return diff;
}

int result_diff_main(const std::vector<std::string>& args, std::ostream& out,
                     std::ostream& err) {
  ResultDiffOptions options;
  std::vector<std::string> paths_and_groups;
  for (const std::string& arg : args) {
    if (arg.rfind("skip=", 0) == 0) {
      for (std::string& name : common::split_csv(arg.substr(5))) {
        options.skip.push_back(std::move(name));
      }
    } else {
      paths_and_groups.push_back(arg);
    }
  }
  if (paths_and_groups.size() < 2 || paths_and_groups.size() > 4) {
    err << "usage: nocdvfs_report diff <a.csv> <b.csv> [group_a [group_b]] [skip=col,...]\n";
    return 2;
  }
  if (paths_and_groups.size() > 2) options.group_a = paths_and_groups[2];
  if (paths_and_groups.size() > 3) options.group_b = paths_and_groups[3];

  try {
    auto load = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::runtime_error(path + ": cannot open");
      return read_result_csv(in, path);
    };
    const ResultCsv a = load(paths_and_groups[0]);
    const ResultCsv b = load(paths_and_groups[1]);
    const ResultDiff diff = diff_results(a, b, options);
    for (const ResultDiff::Mismatch& m : diff.mismatches) {
      if (m.column.empty()) {
        out << "missing: " << b.path << " row group=" << m.group_b << " index=" << m.index
            << " has no partner in " << a.path << "\n";
      } else {
        out << "mismatch: group=" << m.group_a << "|" << m.group_b << " index=" << m.index
            << " column=" << m.column << ": " << m.a << " != " << m.b << "\n";
      }
    }
    out << "compared " << diff.columns.size() << " columns over " << diff.row_pairs
        << " row pairs";
    if (diff.unpaired_a > 0) {
      out << " (" << diff.unpaired_a << " further rows of " << a.path << " not compared)";
    }
    out << ": " << diff.mismatches.size() << " mismatch"
        << (diff.mismatches.size() == 1 ? "" : "es") << "\n";
    return diff.mismatches.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace nocdvfs::sim
