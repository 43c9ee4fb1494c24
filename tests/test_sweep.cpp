// SweepRunner tests: cross-product expansion order, axis factories,
// serial-vs-parallel determinism (the same Scenario + seed must produce
// bit-identical RunResults regardless of thread count), sink output, the
// result schema both sinks are written from, and error propagation out of
// the worker pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "common/strings.hpp"
#include "sim/result_diff.hpp"
#include "sim/result_schema.hpp"
#include "sim/sweep.hpp"

namespace nocdvfs::sim {
namespace {

Scenario tiny() {
  Scenario s;
  s.network.width = 3;
  s.network.height = 3;
  s.packet_size = 4;
  s.lambda = 0.08;
  s.control_period = 2000;
  s.phases.warmup_node_cycles = 5000;
  s.phases.measure_node_cycles = 8000;
  s.phases.adaptive_warmup = false;
  return s;
}

/// Minimal strict JSON reader: checks that a sink line is one well-formed
/// value and collects the top-level members of an object (scalars as their
/// text, strings unescaped; nested objects/arrays as "").
struct JsonReader {
  const std::string& s;
  std::size_t i = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " at offset " + std::to_string(i));
  }
  char peek() {
    while (i < s.size() && std::strchr(" \t\r\n", s[i]) != nullptr) ++i;
    return i < s.size() ? s[i] : '\0';
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i;
  }
  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (i >= s.size()) fail("unterminated string");
      const char c = s[i++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i >= s.size()) fail("unterminated escape");
      const char e = s[i++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (i + 4 > s.size()) fail("short \\u escape");
          out += static_cast<char>(std::stoi(s.substr(i, 4), nullptr, 16));
          i += 4;
          break;
        default: fail("bad escape");
      }
    }
  }
  std::string value(std::map<std::string, std::string>* members = nullptr) {
    const char c = peek();
    if (c == '{' || c == '[') {
      ++i;
      const char close = c == '{' ? '}' : ']';
      if (peek() == close) {
        ++i;
        return "";
      }
      for (;;) {
        if (c == '{') {
          const std::string key = string();
          expect(':');
          const std::string v = value();
          if (members && !members->emplace(key, v).second) fail("duplicate key " + key);
        } else {
          value();
        }
        if (peek() != ',') break;
        ++i;
      }
      expect(close);
      return "";
    }
    if (c == '"') return string();
    for (const char* lit : {"true", "false", "null"}) {
      if (s.compare(i, std::strlen(lit), lit) == 0) {
        i += std::strlen(lit);
        return lit;
      }
    }
    double v = 0.0;
    const auto [end, ec] = std::from_chars(s.data() + i, s.data() + s.size(), v);
    if (ec != std::errc() || end == s.data() + i) fail("bad token");
    const std::string text(s.data() + i, end);
    i = static_cast<std::size_t>(end - s.data());
    return text;
  }
  std::map<std::string, std::string> object_line() {
    std::map<std::string, std::string> members;
    if (peek() != '{') fail("not an object");
    value(&members);
    if (peek() != '\0') fail("trailing text");
    return members;
  }
};

TEST(SweepExpand, RowMajorCrossProduct) {
  const auto points = SweepRunner::expand(
      tiny(), {SweepAxis::lambda({0.05, 0.1}),
               SweepAxis::policies({Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd})});
  ASSERT_EQ(points.size(), 6u);
  // Outer axis (lambda) varies slowest.
  EXPECT_DOUBLE_EQ(points[0].scenario.lambda, 0.05);
  EXPECT_EQ(points[0].scenario.policy.policy, Policy::NoDvfs);
  EXPECT_EQ(points[2].scenario.policy.policy, Policy::Dmsd);
  EXPECT_DOUBLE_EQ(points[3].scenario.lambda, 0.1);
  EXPECT_EQ(points[3].scenario.policy.policy, Policy::NoDvfs);
  // Coordinates carry the axis labels in axis order.
  ASSERT_EQ(points[5].coordinates.size(), 2u);
  EXPECT_EQ(points[5].coordinates[1], "dmsd");
  EXPECT_EQ(points[5].index, 5u);
}

TEST(SweepExpand, LoadLabelsParseBackToTheExactValue) {
  // 6-significant-digit labels would read "0.0686276" here.
  const std::vector<double> values = {0.06862760416666666, 0.1, 1.0 / 3.0};
  for (const SweepAxis& axis : {SweepAxis::lambda(values), SweepAxis::speed(values)}) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::string& label = axis.points[i].label;
      double parsed = 0.0;
      std::from_chars(label.data(), label.data() + label.size(), parsed);
      EXPECT_EQ(parsed, values[i]) << axis.name << " label " << label;
    }
  }
  EXPECT_EQ(SweepAxis::lambda(values).points[0].label, "0.06862760416666666");
}

TEST(SweepExpand, SyntheticLambdaPointsAreBitIdenticalToAFieldWrite) {
  const std::vector<double> values = {0.06862760416666666, 0.05, 1e-300};
  const auto points = SweepRunner::expand(tiny(), {SweepAxis::lambda(values)});
  ASSERT_EQ(points.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    Scenario direct = tiny();
    direct.lambda = values[i];
    EXPECT_EQ(std::memcmp(&points[i].scenario.lambda, &direct.lambda, sizeof(double)), 0);
  }
}

TEST(SweepExpand, SeedAxisAndEmptyAxisRejection) {
  const auto points = SweepRunner::expand(tiny(), {SweepAxis::seeds(3, 10)});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].scenario.seed, 10u);
  EXPECT_EQ(points[2].scenario.seed, 12u);

  EXPECT_THROW(SweepRunner::expand(tiny(), {SweepAxis::lambda({})}),
               std::invalid_argument);
}

TEST(SweepExpand, NoAxesMeansSingleBasePoint) {
  const auto points = SweepRunner::expand(tiny(), {});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].coordinates.empty());
}

// The determinism contract of the issue: the same Scenario + seed produces
// bit-identical RunResults whether executed serially or through the
// multi-threaded SweepRunner (threads only change who runs which index,
// never the per-run RNG streams or the result order).
TEST(SweepRun, ParallelMatchesSerialBitIdentically) {
  const Scenario base = tiny();
  const std::vector<SweepAxis> axes = {
      SweepAxis::lambda({0.05, 0.1, 0.15}),
      SweepAxis::policies({Policy::NoDvfs, Policy::Rmsd, Policy::Dmsd})};

  SweepRunner::Options serial_opt;
  serial_opt.threads = 1;
  SweepRunner serial(serial_opt);
  const auto serial_recs = serial.run(base, axes);

  SweepRunner::Options parallel_opt;
  parallel_opt.threads = 4;
  SweepRunner parallel(parallel_opt);
  const auto parallel_recs = parallel.run(base, axes);

  ASSERT_EQ(serial_recs.size(), parallel_recs.size());
  for (std::size_t i = 0; i < serial_recs.size(); ++i) {
    const RunResult& a = serial_recs[i].result;
    const RunResult& b = parallel_recs[i].result;
    EXPECT_EQ(a.avg_delay_ns, b.avg_delay_ns) << "point " << i;
    EXPECT_EQ(a.p99_delay_ns, b.p99_delay_ns) << "point " << i;
    EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles) << "point " << i;
    EXPECT_EQ(a.packets_delivered, b.packets_delivered) << "point " << i;
    EXPECT_EQ(a.avg_frequency_hz, b.avg_frequency_hz) << "point " << i;
    EXPECT_EQ(a.avg_voltage, b.avg_voltage) << "point " << i;
    EXPECT_EQ(a.power_mw(), b.power_mw()) << "point " << i;
    EXPECT_EQ(a.delivered_flits_per_node_cycle, b.delivered_flits_per_node_cycle)
        << "point " << i;
    EXPECT_EQ(a.measured_offered_lambda, b.measured_offered_lambda) << "point " << i;
    ASSERT_EQ(a.vf_trace.size(), b.vf_trace.size()) << "point " << i;
    for (std::size_t j = 0; j < a.vf_trace.size(); ++j) {
      EXPECT_EQ(a.vf_trace[j].t, b.vf_trace[j].t);
      EXPECT_EQ(a.vf_trace[j].f, b.vf_trace[j].f);
      EXPECT_EQ(a.vf_trace[j].vdd, b.vf_trace[j].vdd);
    }
  }
}

TEST(SweepRun, RecordsArriveInRowMajorOrderRegardlessOfCompletion) {
  // Mix cheap and expensive points so completion order differs from index
  // order; records must still come back row-major.
  SweepRunner::Options opt;
  opt.threads = 4;
  SweepRunner runner(opt);
  Scenario slow = tiny();
  slow.phases.measure_node_cycles = 20000;
  const auto recs =
      runner.run(slow, {SweepAxis::lambda({0.15, 0.05, 0.1}), SweepAxis::seeds(2, 1)});
  ASSERT_EQ(recs.size(), 6u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].point.index, i);
  }
  EXPECT_DOUBLE_EQ(recs[0].point.scenario.lambda, 0.15);
  EXPECT_EQ(recs[1].point.scenario.seed, 2u);
  EXPECT_DOUBLE_EQ(recs[4].point.scenario.lambda, 0.1);
}

TEST(SweepRun, WorkerExceptionsPropagate) {
  Scenario bad = tiny();
  bad.pattern = "vortex";  // unknown pattern → the run throws in a worker
  SweepRunner::Options opt;
  opt.threads = 2;
  SweepRunner runner(opt);
  EXPECT_THROW(runner.run(bad, {SweepAxis::seeds(4, 1)}), std::invalid_argument);
}

TEST(SweepSinks, CsvHasHeaderAndOneRowPerRun) {
  std::ostringstream csv;
  CsvResultSink sink(csv);
  SweepRunner runner;
  runner.add_sink(sink);
  runner.run(tiny(), {SweepAxis::policies({Policy::NoDvfs, Policy::Rmsd})}, "unit-test");

  std::istringstream in(csv.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 rows
  EXPECT_EQ(lines[0].rfind("group,index,point", 0), 0u);
  EXPECT_NE(lines[1].find("unit-test,0,"), std::string::npos);
  EXPECT_NE(lines[1].find("nodvfs"), std::string::npos);
  EXPECT_NE(lines[2].find("rmsd"), std::string::npos);
}

TEST(SweepSinks, JsonlCarriesTrajectories) {
  std::ostringstream jsonl;
  JsonlResultSink sink(jsonl);
  SweepRunner runner;
  runner.add_sink(sink);
  runner.run(tiny(), {SweepAxis::policies({Policy::Rmsd})}, "unit-test");

  const std::string out = jsonl.str();
  EXPECT_NE(out.find("\"group\":\"unit-test\""), std::string::npos);
  EXPECT_NE(out.find("\"policy\":\"rmsd\""), std::string::npos);
  EXPECT_NE(out.find("\"window_trace\":["), std::string::npos);
  EXPECT_NE(out.find("\"vf_trace\":["), std::string::npos);
  // One JSON object per line.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

/// Feeds the sink a hand-built record whose escaped string fields carry
/// every character class the escaper must handle: the stream must stay one
/// valid JSON object per line.
TEST(SweepSinks, JsonlEscapesHostileStrings) {
  std::ostringstream jsonl;
  JsonlResultSink sink(jsonl);
  SweepRecord rec;
  rec.group = "group \"quoted\"\\back";
  rec.point.index = 0;
  rec.point.coordinates = {"label\twith\ttabs", "newline\nlabel"};
  rec.point.scenario.pattern = "uni\xc3\xa9orm";          // "uniéorm": UTF-8 passthrough
  rec.point.scenario.app = "app\\path\"x\"";              // backslashes + quotes
  rec.point.scenario.islands = "quad\x01rants";           // C0 control char
  rec.point.scenario.network.faults = "links:1";
  sink.on_result(rec);

  const std::string out = jsonl.str();
  ASSERT_EQ(std::count(out.begin(), out.end(), '\n'), 1);

  // Escaped forms appear; raw unescaped forms don't.
  EXPECT_NE(out.find("\"group \\\"quoted\\\"\\\\back\""), std::string::npos) << out;
  EXPECT_NE(out.find("label\\twith\\ttabs"), std::string::npos) << out;
  EXPECT_NE(out.find("newline\\nlabel"), std::string::npos) << out;
  EXPECT_NE(out.find("app\\\\path\\\"x\\\""), std::string::npos) << out;
  EXPECT_NE(out.find("quad\\u0001rants"), std::string::npos) << out;
  EXPECT_NE(out.find("uni\xc3\xa9orm"), std::string::npos) << out;  // bytes intact
  EXPECT_EQ(out.find('\t'), std::string::npos);
  EXPECT_EQ(out.find('\x01'), std::string::npos);

  // Structural sanity: no control characters inside, and the line's quotes
  // are balanced once escapes are discounted.
  std::size_t unescaped_quotes = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char ch = out[i];
    if (static_cast<unsigned char>(ch) < 0x20 && ch != '\n') {
      ADD_FAILURE() << "raw control char at offset " << i;
    }
    if (ch == '\\') {
      ++i;  // skip escaped char
    } else if (ch == '"') {
      ++unescaped_quotes;
    }
  }
  EXPECT_EQ(unescaped_quotes % 2, 0u);

  // And a strict parse recovers the hostile strings verbatim.
  const std::string line = out.substr(0, out.size() - 1);
  JsonReader reader{line};
  const auto members = reader.object_line();
  EXPECT_EQ(members.at("group"), rec.group);
  EXPECT_EQ(members.at("app"), rec.point.scenario.app);
  EXPECT_EQ(members.at("islands"), rec.point.scenario.islands);
  EXPECT_EQ(members.at("point"), "label\twith\ttabs newline\nlabel");
}

// ---------------------------------------------------------------------------
// Result schema: both sinks are written from one field table
// ---------------------------------------------------------------------------

struct SchemaRun {
  std::vector<SweepRecord> records;
  std::string csv;
  std::string jsonl;
};

/// A small sweep that fills every result slice: three row islands,
/// thermal, telemetry and the latency histograms, under two policies.
const SchemaRun& schema_run() {
  static const SchemaRun run = [] {
    Scenario s = tiny();
    s.islands = "rows";
    s.thermal = true;
    s.telemetry = "windows";
    std::ostringstream csv;
    std::ostringstream jsonl;
    CsvResultSink csv_sink(csv);
    JsonlResultSink jsonl_sink(jsonl);
    SweepRunner runner(SweepRunner::Options{.threads = 2});
    runner.add_sink(csv_sink);
    runner.add_sink(jsonl_sink);
    SchemaRun out;
    out.records = runner.run(s, {SweepAxis::policies({Policy::NoDvfs, Policy::Dmsd})}, "schema");
    out.csv = csv.str();
    out.jsonl = jsonl.str();
    return out;
  }();
  return run;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ResultSchema, NamesAreUniqueAndHostColumnsComeLast) {
  const auto& schema = result_schema();
  bool host_seen = false;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    EXPECT_EQ(find_result_field(schema[i].name), &schema[i]) << schema[i].name;
    if (schema[i].cls == FieldClass::Host) host_seen = true;
    EXPECT_TRUE(!host_seen || schema[i].cls == FieldClass::Host) << schema[i].name;
  }
  EXPECT_EQ(find_result_field("no_such_column"), nullptr);
  EXPECT_EQ(schema.front().name, "group");
  EXPECT_EQ(schema.back().name, "manifest");
}

TEST(ResultSchema, CsvHeaderIsTheSchemaAndRowsHaveOneCellPerField) {
  const SchemaRun& run = schema_run();
  std::string expected;
  for (const ResultField& field : result_schema()) {
    if (!expected.empty()) expected += ',';
    expected += field.name;
  }
  EXPECT_EQ(lines_of(run.csv).front(), expected);

  std::istringstream in(run.csv);
  const ResultCsv csv = read_result_csv(in, "schema.csv");
  ASSERT_EQ(csv.rows.size(), run.records.size());
  for (const auto& row : csv.rows) EXPECT_EQ(row.size(), result_schema().size());
}

TEST(ResultSchema, JsonlLinesParseAndCarryEveryField) {
  const SchemaRun& run = schema_run();
  const std::vector<std::string> lines = lines_of(run.jsonl);
  ASSERT_EQ(lines.size(), run.records.size());
  for (const std::string& line : lines) {
    JsonReader reader{line};
    const auto members = reader.object_line();
    for (const ResultField& field : result_schema()) {
      EXPECT_EQ(members.count(std::string(field.name)), 1u) << field.name;
    }
    for (const char* structured : {"coordinates", "top_tiles", "top_links", "delay_dist",
                                   "island_results", "window_trace", "vf_trace"}) {
      EXPECT_EQ(members.count(structured), 1u) << structured;
    }
  }
}

template <class T>
T parse_number(const std::string& text) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  EXPECT_TRUE(ec == std::errc() && end == text.data() + text.size()) << "'" << text << "'";
  return v;
}

/// Every numeric cell of both sinks parses back to the exact value it was
/// written from: no digit is lost on the way to a file.
TEST(ResultSchema, NumericCellsRoundTripExactly) {
  const SchemaRun& run = schema_run();
  std::istringstream in(run.csv);
  const ResultCsv csv = read_result_csv(in, "schema.csv");
  const std::vector<std::string> lines = lines_of(run.jsonl);
  const auto& schema = result_schema();
  std::size_t doubles = 0;
  for (std::size_t r = 0; r < run.records.size(); ++r) {
    const SweepRecord& rec = run.records[r];
    JsonReader reader{lines[r]};
    const auto json = reader.object_line();
    for (std::size_t c = 0; c < schema.size(); ++c) {
      const FieldValue v = schema[c].get(rec);
      const std::string& cell = csv.rows[r][c];
      const std::string& member = json.at(std::string(schema[c].name));
      if (const double* d = std::get_if<double>(&v)) {
        ++doubles;
        EXPECT_EQ(parse_number<double>(cell), *d) << schema[c].name << " = " << cell;
        EXPECT_EQ(parse_number<double>(member), *d) << schema[c].name << " = " << member;
      } else if (const auto* u = std::get_if<std::uint64_t>(&v)) {
        EXPECT_EQ(parse_number<std::uint64_t>(cell), *u) << schema[c].name;
        EXPECT_EQ(parse_number<std::uint64_t>(member), *u) << schema[c].name;
      } else if (const auto* s = std::get_if<std::int64_t>(&v)) {
        EXPECT_EQ(parse_number<std::int64_t>(cell), *s) << schema[c].name;
        EXPECT_EQ(parse_number<std::int64_t>(member), *s) << schema[c].name;
      }
    }

    // And against the RunResult fields themselves, not only the getters.
    auto cell = [&](const char* name) {
      return parse_number<double>(csv.rows[r][static_cast<std::size_t>(
          std::find(csv.header.begin(), csv.header.end(), name) - csv.header.begin())]);
    };
    const RunResult& res = rec.result;
    EXPECT_EQ(cell("avg_delay_ns"), res.avg_delay_ns);
    EXPECT_EQ(cell("power_mw"), res.power_mw());
    EXPECT_EQ(cell("energy_delay_product_js"), res.energy_delay_product_js);
    EXPECT_EQ(cell("avg_frequency_ghz"), res.avg_frequency_hz * 1e-9);
    EXPECT_EQ(cell("leakage_j"), res.thermal.leakage_j);
    EXPECT_EQ(cell("max_delay_ns"), res.delay_dist.delay_ns.max);
    EXPECT_EQ(cell("p99_delay_ns"), res.delay_dist.delay_ns.p99);
    EXPECT_EQ(cell("lambda"), rec.point.scenario.lambda);
    EXPECT_GT(res.thermal.peak_temp_c, 0.0);
    EXPECT_GT(res.delay_dist.delay_ns.max, 0.0);

    // The compound per-island cells: "i<k>=<mW>;..." and
    // "i<k>=<MHz>MHz:<fraction>|...;...", every number exact.
    auto text_cell = [&](const char* name) {
      return csv.rows[r][static_cast<std::size_t>(
          std::find(csv.header.begin(), csv.header.end(), name) - csv.header.begin())];
    };
    const std::vector<std::string> powers = common::split_csv(text_cell("island_power_mw"), ';');
    const std::vector<std::string> residencies =
        common::split_csv(text_cell("freq_residency"), ';');
    ASSERT_EQ(powers.size(), res.islands.size());
    ASSERT_EQ(residencies.size(), res.islands.size());
    for (std::size_t i = 0; i < res.islands.size(); ++i) {
      const IslandResult& isl = res.islands[i];
      const std::string prefix = "i" + std::to_string(isl.island) + "=";
      ASSERT_EQ(powers[i].rfind(prefix, 0), 0u) << powers[i];
      EXPECT_EQ(parse_number<double>(powers[i].substr(prefix.size())),
                isl.power.average_power_mw())
          << powers[i];
      ASSERT_EQ(residencies[i].rfind(prefix, 0), 0u) << residencies[i];
      const std::vector<std::string> levels =
          common::split_csv(residencies[i].substr(prefix.size()), '|');
      ASSERT_EQ(levels.size(), isl.freq_residency.size()) << residencies[i];
      for (std::size_t l = 0; l < levels.size(); ++l) {
        const std::size_t mhz = levels[l].find("MHz:");
        ASSERT_NE(mhz, std::string::npos) << levels[l];
        const vfi::FreqDwell& level = isl.freq_residency[l];
        EXPECT_EQ(parse_number<double>(levels[l].substr(0, mhz)), level.f_hz * 1e-6)
            << levels[l];
        EXPECT_EQ(parse_number<double>(levels[l].substr(mhz + 4)),
                  static_cast<double>(level.dwell_ps) /
                      static_cast<double>(res.measure_duration_ps))
            << levels[l];
      }
    }
  }
  EXPECT_GE(doubles, 27u * run.records.size());
  EXPECT_NE(lines_of(run.csv)[1].find(",0.08,"), std::string::npos)
      << "lambda=0.08 must be written as 0.08, not a rounded or padded form";
}

TEST(SweepPointLabel, JoinsAxisNamesAndCoordinates) {
  const auto points = SweepRunner::expand(
      tiny(), {SweepAxis::lambda({0.05}), SweepAxis::policies({Policy::Dmsd})});
  const std::vector<SweepAxis> axes = {SweepAxis::lambda({0.05}),
                                       SweepAxis::policies({Policy::Dmsd})};
  EXPECT_EQ(points[0].label(axes), "lambda=0.05 policy=dmsd");
}

}  // namespace
}  // namespace nocdvfs::sim
