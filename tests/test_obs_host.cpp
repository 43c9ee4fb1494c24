// Host-observability suite: the phase profiler's accounting and off-mode
// guarantees, the run-provenance manifest, the .nocobs v3 host sections,
// the cross-tool magic diagnostics, the SweepRunner host report, and the
// by-name result diff (`nocdvfs_report diff`) against hostile input.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "obs/manifest.hpp"
#include "obs/memstats.hpp"
#include "obs/prof.hpp"
#include "obs/timeline.hpp"
#include "sim/result_diff.hpp"
#include "sim/result_schema.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "trace/trace.hpp"

// Global allocation counter, for the off-mode zero-allocation test.
#include "alloc_probe.hpp"

namespace nocdvfs {
namespace {

using obs::PhaseStats;
using obs::Profile;
using obs::RunManifest;
using obs::Timeline;

void spin_for(std::chrono::microseconds d) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < d) {
  }
}

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A small, fast scenario for end-to-end host-observability checks.
sim::Scenario small_scenario() {
  sim::Scenario s;
  s.network.width = 5;
  s.network.height = 5;
  s.lambda = 0.05;
  s.seed = 1;
  s.control_period = 5000;
  s.phases.warmup_node_cycles = 5000;
  s.phases.measure_node_cycles = 10000;
  s.phases.adaptive_warmup = false;
  return s;
}

// ---------------------------------------------------------------------------
// Profiler accounting
// ---------------------------------------------------------------------------

TEST(ProfCollector, NestedScopesAccountInclusiveAndExclusive) {
  obs::prof::Collector c;
  c.install();
  {
    PROF_SCOPE("outer");
    spin_for(std::chrono::microseconds(200));
    {
      PROF_SCOPE("inner");
      spin_for(std::chrono::microseconds(200));
    }
    {
      PROF_SCOPE("inner");
      spin_for(std::chrono::microseconds(200));
    }
  }
  c.uninstall();
  const Profile p = c.take();

  ASSERT_EQ(p.phases.size(), 2u);
  const PhaseStats& outer = p.phases[0];
  const PhaseStats& inner = p.phases[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.calls, 2u);  // same (name, id) → one node, two calls

  // Inclusive covers the children; exclusive is exactly the remainder.
  EXPECT_GE(outer.inclusive_ns, inner.inclusive_ns);
  EXPECT_EQ(outer.exclusive_ns, outer.inclusive_ns - inner.inclusive_ns);
  // A leaf's exclusive time is its inclusive time.
  EXPECT_EQ(inner.exclusive_ns, inner.inclusive_ns);
  // Both phases really measured the spins.
  EXPECT_GE(outer.exclusive_ns, 100'000u);
  EXPECT_GE(inner.inclusive_ns, 300'000u);
}

TEST(ProfCollector, PerIdScopesBecomeDistinctPhases) {
  obs::prof::Collector c;
  c.install();
  {
    PROF_SCOPE("run");
    for (int rep = 0; rep < 3; ++rep) {
      for (int island = 0; island < 2; ++island) {
        PROF_SCOPE_ID("island_step", island);
        spin_for(std::chrono::microseconds(50));
      }
    }
  }
  c.uninstall();
  const Profile p = c.take();

  ASSERT_EQ(p.phases.size(), 3u);
  EXPECT_EQ(p.phases[0].name, "run");
  EXPECT_EQ(p.phases[1].name, "island_step#0");
  EXPECT_EQ(p.phases[1].calls, 3u);
  EXPECT_EQ(p.phases[2].name, "island_step#1");
  EXPECT_EQ(p.phases[2].calls, 3u);
  EXPECT_EQ(p.root_inclusive_ns(), p.phases[0].inclusive_ns);
}

TEST(ProfProfile, MergeIsDeterministicAndSums) {
  const auto mk = [](std::vector<PhaseStats> phases) {
    Profile p;
    p.phases = std::move(phases);
    return p;
  };
  const Profile p1 = mk({{"run", 0, 1, 100, 40}, {"a", 1, 2, 30, 30}, {"b", 1, 1, 30, 30}});
  const Profile p2 = mk({{"run", 0, 1, 200, 80}, {"b", 1, 3, 60, 60}, {"c", 1, 1, 60, 60}});

  Profile m = p1;
  m.merge(p2);
  ASSERT_EQ(m.phases.size(), 4u);
  // First profile's order is preserved; new phases append in encounter order.
  EXPECT_EQ(m.phases[0].name, "run");
  EXPECT_EQ(m.phases[1].name, "a");
  EXPECT_EQ(m.phases[2].name, "b");
  EXPECT_EQ(m.phases[3].name, "c");
  EXPECT_EQ(m.phases[0].calls, 2u);
  EXPECT_EQ(m.phases[0].inclusive_ns, 300u);
  EXPECT_EQ(m.phases[0].exclusive_ns, 120u);
  EXPECT_EQ(m.phases[2].calls, 4u);
  EXPECT_EQ(m.phases[2].inclusive_ns, 90u);
  EXPECT_EQ(m.phases[3].calls, 1u);

  // Merging the same inputs again yields the identical result.
  Profile m2 = p1;
  m2.merge(p2);
  ASSERT_EQ(m2.phases.size(), m.phases.size());
  for (std::size_t i = 0; i < m.phases.size(); ++i) {
    EXPECT_EQ(m2.phases[i].name, m.phases[i].name);
    EXPECT_EQ(m2.phases[i].calls, m.phases[i].calls);
    EXPECT_EQ(m2.phases[i].inclusive_ns, m.phases[i].inclusive_ns);
    EXPECT_EQ(m2.phases[i].exclusive_ns, m.phases[i].exclusive_ns);
  }
}

TEST(ProfScope, OffModeAllocatesNothing) {
  ASSERT_FALSE(obs::prof::globally_enabled());
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    PROF_SCOPE("never_recorded");
    PROF_SCOPE_ID("never_recorded_id", i);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "prof=off scopes must not allocate";
}

// ---------------------------------------------------------------------------
// Manifest & memstats
// ---------------------------------------------------------------------------

TEST(RunManifest, SetOverwritesInPlaceAndFindsKeys) {
  RunManifest m;
  m.set("a", std::string("1"));
  m.set("b", std::uint64_t{2});
  m.set("a", std::string("3"));  // overwrite keeps position
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0].first, "a");
  EXPECT_EQ(m.entries[0].second, "3");
  ASSERT_NE(m.find("b"), nullptr);
  EXPECT_EQ(*m.find("b"), "2");
  EXPECT_EQ(m.find("missing"), nullptr);
}

TEST(RunManifest, BuildInfoNamesCompilerAndGit) {
  RunManifest m;
  obs::fill_build_info(m);
  ASSERT_NE(m.find("build.compiler"), nullptr);
  ASSERT_NE(m.find("build.git"), nullptr);
  ASSERT_NE(m.find("build.asserts"), nullptr);
  EXPECT_FALSE(m.find("build.compiler")->empty());
}

TEST(MemStats, ProcessMemorySamplesNonZeroOnLinux) {
#if defined(__linux__)
  const obs::MemSample s = obs::sample_process_memory();
  EXPECT_GT(s.peak_rss_bytes, 0u);
  EXPECT_GT(s.current_rss_bytes, 0u);
#else
  GTEST_SKIP() << "peak-RSS sampling is Linux-only";
#endif
}

TEST(HostResult, RunAttachesWallTimeManifestAndProfile) {
  sim::Scenario s = small_scenario();
  s.prof = "on";
  s.mem = "on";
  const sim::RunResult r = sim::run(s);

  EXPECT_GT(r.host.wall_s, 0.0);
#if defined(__linux__)
  EXPECT_GT(r.host.peak_rss_bytes, 0u);
#endif

  // The manifest re-runs the point: scenario keys + seed are all present.
  ASSERT_NE(r.manifest.find("scenario.seed"), nullptr);
  EXPECT_EQ(*r.manifest.find("scenario.seed"), "1");
  ASSERT_NE(r.manifest.find("scenario.lambda"), nullptr);
  ASSERT_NE(r.manifest.find("scenario.prof"), nullptr);
  ASSERT_NE(r.manifest.find("build.compiler"), nullptr);
  ASSERT_NE(r.manifest.find("host.wall_s"), nullptr);
  ASSERT_NE(r.manifest.find("host.calib_mops"), nullptr);
  ASSERT_NE(r.manifest.find("mem.total_bytes"), nullptr);
  ASSERT_NE(r.manifest.find("mem.flits_in_flight.bytes"), nullptr);

  // prof=on yields a profile rooted at the main loop's "run" phase, and
  // the root's inclusive time is bounded by the measured host wall time.
  ASSERT_FALSE(r.host.profile.empty());
  EXPECT_EQ(r.host.profile.phases.front().name, "run");
  EXPECT_GT(r.host.profile.root_inclusive_ns(), 0u);
  EXPECT_LE(static_cast<double>(r.host.profile.root_inclusive_ns()) * 1e-9,
            r.host.wall_s * 1.05);
}

TEST(HostResult, ProfOffLeavesProfileEmptyButManifestPresent) {
  const sim::RunResult r = sim::run(small_scenario());
  EXPECT_TRUE(r.host.profile.empty());
  EXPECT_GT(r.host.wall_s, 0.0);
  ASSERT_NE(r.manifest.find("scenario.seed"), nullptr);
  EXPECT_EQ(r.manifest.find("host.calib_mops"), nullptr);  // prof-gated spin
  EXPECT_EQ(r.manifest.find("mem.total_bytes"), nullptr);  // mem=off
}

// ---------------------------------------------------------------------------
// .nocobs v3 round-trip & cross-tool magic diagnostics
// ---------------------------------------------------------------------------

Timeline host_only_timeline() {
  Timeline tl;
  tl.manifest = {{"scenario.seed", "1"}, {"build.compiler", "test"}};
  tl.host_phases = {{"run", 0, 1, 5000, 2000}, {"island_step#0", 1, 10, 3000, 3000}};
  tl.host_spans = {{0, 0, 100, 200}, {1, 1, 120, 260}};
  tl.host_workers = {{0, 1, 100}, {1, 1, 140}};
  return tl;
}

TEST(TimelineV3, HostSectionsRoundTrip) {
  const std::string path = tmp_path("nocdvfs_test_host_sections.nocobs");
  const Timeline tl = host_only_timeline();
  obs::write_timeline_binary(tl, path);
  const Timeline back = obs::read_timeline_binary(path);

  EXPECT_EQ(back.version, Timeline::kVersion);
  ASSERT_EQ(back.manifest.size(), tl.manifest.size());
  EXPECT_EQ(back.manifest[0].first, "scenario.seed");
  EXPECT_EQ(back.manifest[0].second, "1");
  ASSERT_EQ(back.host_phases.size(), 2u);
  EXPECT_EQ(back.host_phases[0].name, "run");
  EXPECT_EQ(back.host_phases[1].name, "island_step#0");
  EXPECT_EQ(back.host_phases[1].depth, 1);
  EXPECT_EQ(back.host_phases[1].calls, 10u);
  EXPECT_EQ(back.host_phases[1].inclusive_ns, 3000u);
  ASSERT_EQ(back.host_spans.size(), 2u);
  EXPECT_EQ(back.host_spans[1].worker, 1);
  EXPECT_EQ(back.host_spans[1].t1_ns, 260u);
  ASSERT_EQ(back.host_workers.size(), 2u);
  EXPECT_EQ(back.host_workers[1].busy_ns, 140u);
  std::filesystem::remove(path);
}

TEST(TimelineV3, ExportedRunCarriesManifestAndPhases) {
  const std::string base = tmp_path("nocdvfs_test_prof_export");
  sim::Scenario s = small_scenario();
  s.prof = "on";
  s.telemetry = "windows";
  s.telemetry_out = base;
  sim::run(s);

  const Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  EXPECT_FALSE(tl.manifest.empty());
  ASSERT_FALSE(tl.host_phases.empty());
  EXPECT_EQ(tl.host_phases.front().name, "run");

  // The Perfetto export gained a "host" process with the phase spans.
  std::ifstream json(base + ".json");
  ASSERT_TRUE(json);
  std::stringstream buf;
  buf << json.rdbuf();
  const std::string j = buf.str();
  EXPECT_NE(j.find("\"name\":\"host\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"host\""), std::string::npos);
  std::filesystem::remove(base + ".nocobs");
  std::filesystem::remove(base + ".json");
}

TEST(MagicMismatch, TimelineReaderNamesTheTraceToolForNoctraceFiles) {
  const std::string path = tmp_path("nocdvfs_test_magic.noctrace");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "NOCTRACE";
    const std::string zeros(32, '\0');
    os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  try {
    obs::read_timeline_binary(path);
    FAIL() << "expected a magic-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NOCT"), std::string::npos) << msg;
    EXPECT_NE(msg.find("NOCO"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nocdvfs_trace"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

TEST(MagicMismatch, TraceReaderNamesTheReportToolForNocobsFiles) {
  const std::string path = tmp_path("nocdvfs_test_magic.nocobs");
  obs::write_timeline_binary(host_only_timeline(), path);
  try {
    trace::TraceReader reader(path);
    FAIL() << "expected a magic-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NOCO"), std::string::npos) << msg;
    EXPECT_NE(msg.find("NOCTRACE"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nocdvfs_report"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// SweepRunner host report & sinks
// ---------------------------------------------------------------------------

TEST(SweepHost, RunnerReportsWorkerSpansAndMergedProfile) {
  sim::Scenario base = small_scenario();
  base.prof = "on";
  sim::SweepRunner::Options opt;
  opt.threads = 2;
  sim::SweepRunner runner(opt);
  const auto records = runner.run(base, {sim::SweepAxis::seeds(4)}, "host_report");
  ASSERT_EQ(records.size(), 4u);

  const sim::SweepHostReport& report = runner.host_report();
  EXPECT_GT(report.wall_s, 0.0);
  ASSERT_EQ(report.spans.size(), 4u);
  std::uint64_t points = 0;
  for (const obs::HostWorkerStats& w : report.workers) points += w.points;
  EXPECT_EQ(points, 4u);
  for (const obs::HostWorkerSpan& span : report.spans) {
    EXPECT_GE(span.t1_ns, span.t0_ns);
    EXPECT_LT(span.point, 4u);
  }
  ASSERT_FALSE(report.profile.empty());
  EXPECT_EQ(report.profile.phases.front().name, "run");
  EXPECT_EQ(report.profile.phases.front().calls, 4u);  // one root per point

  // The host-only timeline export round-trips the report.
  const std::string base_path = tmp_path("nocdvfs_test_sweep_host");
  sim::write_sweep_host_timeline(report, base_path);
  const Timeline tl = obs::read_timeline_binary(base_path + ".nocobs");
  EXPECT_EQ(tl.host_spans.size(), 4u);
  EXPECT_EQ(tl.host_workers.size(), report.workers.size());
  EXPECT_EQ(tl.host_phases.size(), report.profile.phases.size());
  std::filesystem::remove(base_path + ".nocobs");
  std::filesystem::remove(base_path + ".json");
}

TEST(SweepHost, CsvSinkAppendsHostColumns) {
  std::ostringstream csv;
  sim::CsvResultSink sink(csv);
  sim::SweepRunner::Options opt;
  opt.threads = 1;
  sim::SweepRunner runner(opt);
  runner.add_sink(sink);
  runner.run(small_scenario(), {sim::SweepAxis::seeds(1)}, "host_cols");

  std::istringstream lines(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find(",host_wall_s,peak_rss_mb,manifest"), std::string::npos);
  std::string row;
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_NE(row.find("scenario.seed=1"), std::string::npos)
      << "the manifest cell must carry the scenario keys";
}

TEST(SweepHost, JsonlSinkCarriesHostFieldsAndManifestObject) {
  std::ostringstream jsonl;
  sim::JsonlResultSink sink(jsonl);
  sim::SweepRunner::Options opt;
  opt.threads = 1;
  sim::SweepRunner runner(opt);
  runner.add_sink(sink);
  runner.run(small_scenario(), {sim::SweepAxis::seeds(1)}, "host_jsonl");

  const std::string line = jsonl.str();
  EXPECT_NE(line.find("\"host_wall_s\":"), std::string::npos);
  EXPECT_NE(line.find("\"peak_rss_mb\":"), std::string::npos);
  EXPECT_NE(line.find("\"manifest\":{"), std::string::npos);
  EXPECT_NE(line.find("\"scenario.seed\":\"1\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// nocdvfs_report diff: result CSVs compared by column name
// ---------------------------------------------------------------------------

/// Two seeds under groups "a" and "b" (identical scenarios).
const std::string& diff_csv() {
  static const std::string text = [] {
    const sim::Scenario s = small_scenario();
    std::ostringstream csv;
    sim::CsvResultSink sink(csv);
    sim::SweepRunner runner(sim::SweepRunner::Options{.threads = 2});
    runner.add_sink(sink);
    runner.run(s, {sim::SweepAxis::seeds(2)}, "a");
    runner.run(s, {sim::SweepAxis::seeds(2)}, "b");
    return csv.str();
  }();
  return text;
}

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = tmp_path(name);
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

std::string csv_line(const std::vector<std::string>& cells) {
  std::string out;
  for (const std::string& cell : cells) {
    if (!out.empty()) out += ',';
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      out += cell;
      continue;
    }
    out += '"';
    for (const char ch : cell) out += ch == '"' ? std::string("\"\"") : std::string(1, ch);
    out += '"';
  }
  return out + "\n";
}

std::string to_csv_text(const sim::ResultCsv& csv) {
  std::string out = csv_line(csv.header);
  for (const auto& row : csv.rows) out += csv_line(row);
  return out;
}

sim::ResultCsv parse(const std::string& text) {
  std::istringstream in(text);
  return sim::read_result_csv(in, "test.csv");
}

std::size_t column(const sim::ResultCsv& csv, const std::string& name) {
  return static_cast<std::size_t>(
      std::find(csv.header.begin(), csv.header.end(), name) - csv.header.begin());
}

struct DiffRun {
  int code = -1;
  std::string out;
  std::string err;
};

DiffRun run_diff(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  DiffRun r;
  r.code = sim::result_diff_main(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::size_t compared_columns() {
  std::size_t n = 0;
  for (const sim::ResultField& f : sim::result_schema()) {
    n += f.cls == sim::FieldClass::Config || f.cls == sim::FieldClass::Metric;
  }
  return n;
}

TEST(ResultDiff, IdenticalGroupsMatchOnEveryConfigAndMetricColumn) {
  const std::string path = write_file("nocdvfs_diff_same.csv", diff_csv());
  const DiffRun r = run_diff({path, path, "a", "b"});
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("compared " + std::to_string(compared_columns()) +
                       " columns over 2 row pairs: 0 mismatches"),
            std::string::npos)
      << r.out;
  // Without a group, rows pair by (group, index) across the whole file.
  EXPECT_EQ(run_diff({path, path}).code, 0);
  std::filesystem::remove(path);
}

TEST(ResultDiff, OneUlpInMaxDelayIsNamed) {
  sim::ResultCsv csv = parse(diff_csv());
  const std::size_t col = column(csv, "max_delay_ns");
  std::string& cell = csv.rows[3][col];  // group b, index 1
  const double v = std::stod(cell);
  ASSERT_GT(v, 0.0);
  const std::string bumped = common::format_double(std::nextafter(v, 2 * v));
  ASSERT_NE(bumped, cell);
  const std::string original = cell;
  cell = bumped;
  const std::string path = write_file("nocdvfs_diff_ulp.csv", to_csv_text(csv));
  const DiffRun r = run_diff({path, path, "a", "b"});
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.out.find("mismatch: group=a|b index=1 column=max_delay_ns: " + original +
                       " != " + bumped),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find(": 1 mismatch\n"), std::string::npos) << r.out;
  std::filesystem::remove(path);
}

TEST(ResultDiff, HostColumnsAreIgnoredAndSkipIsHonoured) {
  sim::ResultCsv csv = parse(diff_csv());
  csv.rows[2][column(csv, "host_wall_s")] = "12345";
  csv.rows[2][column(csv, "manifest")] = "host.wall_s=12345";
  csv.rows[2][column(csv, "workload")] = "trace";
  const std::string path = write_file("nocdvfs_diff_skip.csv", to_csv_text(csv));
  const DiffRun named = run_diff({path, path, "a", "b"});
  EXPECT_EQ(named.code, 1);
  EXPECT_NE(named.out.find("column=workload: synthetic != trace"), std::string::npos)
      << named.out;
  const DiffRun skipped = run_diff({path, path, "a", "b", "skip=workload"});
  EXPECT_EQ(skipped.code, 0) << skipped.out;
  EXPECT_NE(skipped.out.find("compared " + std::to_string(compared_columns() - 1) + " columns"),
            std::string::npos)
      << skipped.out;
  EXPECT_EQ(run_diff({path, path, "a", "b", "skip=no_such_column"}).code, 2);
  std::filesystem::remove(path);
}

TEST(ResultDiff, EveryReferenceRowNeedsAPartner) {
  sim::ResultCsv csv = parse(diff_csv());
  csv.rows.erase(csv.rows.begin() + 1);  // group a loses index 1
  const std::string path = write_file("nocdvfs_diff_missing.csv", to_csv_text(csv));
  const DiffRun r = run_diff({path, path, "a", "b"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("row group=b index=1 has no partner"), std::string::npos) << r.out;
  // The other way round, the extra reference-side row is only counted.
  const DiffRun extra = run_diff({path, path, "b", "a"});
  EXPECT_EQ(extra.code, 0) << extra.out;
  EXPECT_NE(extra.out.find("1 further rows"), std::string::npos) << extra.out;
  // A group with no rows is an input error, not a vacuous pass.
  EXPECT_EQ(run_diff({path, path, "a", "nope"}).code, 2);
  std::filesystem::remove(path);
}

TEST(ResultDiff, HostileInputIsANamedErrorWithExitCode2) {
  const sim::ResultCsv good = parse(diff_csv());
  const std::string header = csv_line(good.header);
  std::vector<std::string> row = good.rows[0];
  const std::string good_path = write_file("nocdvfs_diff_good.csv", diff_csv());

  std::vector<std::string> shorter = row;
  shorter.pop_back();
  std::vector<std::string> unknown = good.header;
  unknown[5] = "not_a_column";
  const std::pair<std::string, std::string> cases[] = {
      {"", "empty file"},
      {header + "\"a,0,never closed\n", "unterminated quote"},
      {header + csv_line(row) + csv_line(shorter), "cells, but the header has"},
      {csv_line(unknown) + csv_line(row), "column 'not_a_column' is not in the result schema"},
      {header + csv_line(row) + csv_line(row), "duplicate row group='a' index=0"},
      {header + "a,0,x\"y\n", "stray quote"},
  };
  for (const auto& [text, message] : cases) {
    const std::string path = write_file("nocdvfs_diff_hostile.csv", text);
    for (const auto& args : {std::vector<std::string>{path, good_path},
                             std::vector<std::string>{good_path, path}}) {
      const DiffRun r = run_diff(args);
      EXPECT_EQ(r.code, 2) << message;
      EXPECT_NE(r.err.find(path), std::string::npos) << r.err;
      EXPECT_NE(r.err.find(message), std::string::npos) << r.err;
      EXPECT_TRUE(r.out.empty()) << r.out;
    }
    std::filesystem::remove(path);
  }
  EXPECT_EQ(run_diff({good_path}).code, 2);  // usage
  EXPECT_EQ(run_diff({good_path, tmp_path("nocdvfs_diff_absent.csv")}).code, 2);
  std::filesystem::remove(good_path);
}

}  // namespace
}  // namespace nocdvfs
