#pragma once

/// \file result_diff.hpp
/// Compare two sweep CSVs (written by CsvResultSink) by column name.
///
/// Rows pair by `index` (by `(group, index)` when no group is selected).
/// Every config- and metric-class column of `result_schema()` is compared
/// exactly, as text: each double is written in shortest round-trip form, so
/// equal text is equal bits. Identity and host-volatile columns are never
/// compared. `nocdvfs_report diff` is a thin wrapper over `result_diff_main`.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace nocdvfs::sim {

/// A parsed result CSV: the header and the unescaped cells of every row.
struct ResultCsv {
  std::string path;  ///< for error messages
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Parse a result CSV. Throws std::runtime_error naming `path` (and the
/// line) for an empty file, an unterminated or stray quote, a ragged row, a
/// header column the schema does not declare, a repeated header column, a
/// missing `group`/`index` column, or a duplicate `(group, index)` row.
ResultCsv read_result_csv(std::istream& in, const std::string& path);

struct ResultDiffOptions {
  std::string group_a;            ///< empty = every group, paired by (group, index)
  std::string group_b;            ///< empty = same as group_a
  std::vector<std::string> skip;  ///< further columns to leave out (schema names)
};

struct ResultDiff {
  struct Mismatch {
    std::string group_a;
    std::string group_b;
    std::string index;
    std::string column;  ///< empty: the row of `b` has no partner in `a`
    std::string a;
    std::string b;
  };

  std::vector<std::string> columns;  ///< compared, in schema order
  std::size_t row_pairs = 0;
  std::size_t unpaired_a = 0;        ///< selected rows of `a` with no partner in `b`
  std::vector<Mismatch> mismatches;
};

/// Compare the selected rows of `b` (the reference) against their partners
/// in `a`: every `b` row must have an `a` row with the same key, while `a`
/// may carry extra rows. Throws std::invalid_argument for an unknown skip
/// name, a compared column present in only one file, or an empty selection.
ResultDiff diff_results(const ResultCsv& a, const ResultCsv& b,
                        const ResultDiffOptions& options);

/// `<a.csv> <b.csv> [group_a [group_b]] [skip=col,...]`: prints each
/// mismatch and a one-line summary to `out`, errors to `err`. Returns 0 when
/// every compared cell is equal, 1 on any mismatch, 2 on a usage or input
/// error.
int result_diff_main(const std::vector<std::string>& args, std::ostream& out,
                     std::ostream& err);

}  // namespace nocdvfs::sim
