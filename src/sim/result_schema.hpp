#pragma once

/// \file result_schema.hpp
/// The one declaration of every scalar result field a sweep writes.
///
/// Each `ResultField` names a column, its unit, its class and a getter over
/// a `SweepRecord`. `CsvResultSink` writes its header and rows by walking
/// `result_schema()`, `JsonlResultSink` writes the same fields as flat keys,
/// and `nocdvfs_report diff` (sim/result_diff.hpp) uses the classes to
/// decide which columns two runs must agree on. Adding a field here adds it
/// to both sinks and to the diff; no other file lists field names.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/manifest.hpp"

namespace nocdvfs::sim {

struct SweepRecord;

enum class FieldClass {
  Identity,  ///< names the row (group, index, point); never compared
  Config,    ///< a scenario input echoed into the row
  Metric,    ///< a simulated output
  Host,      ///< host-side provenance; varies between identical runs
};

/// One typed cell. Each sink renders it in its own syntax: a CSV flag is
/// `1`/`0`, a JSON flag `true`/`false`; the manifest is a `;`-joined `k=v`
/// cell in CSV and an object in JSON. Doubles are written in shortest
/// round-trip form (common::format_double), so every numeric cell parses
/// back to the exact value.
using FieldValue = std::variant<std::string, bool, std::int64_t, std::uint64_t, double,
                                const obs::RunManifest*>;

struct ResultField {
  std::string_view name;
  std::string_view unit;  ///< empty for text, flags and counts without a unit
  FieldClass cls;
  FieldValue (*get)(const SweepRecord&);
};

/// Every field, in CSV column order (host-volatile columns last).
const std::vector<ResultField>& result_schema();

/// The field called `name`, or nullptr when the schema has none.
const ResultField* find_result_field(std::string_view name) noexcept;

}  // namespace nocdvfs::sim
