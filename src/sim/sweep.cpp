#include "sim/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <variant>

#include "common/strings.hpp"
#include "obs/timeline.hpp"
#include "sim/result_schema.hpp"

namespace nocdvfs::sim {

SweepAxis SweepAxis::lambda(const std::vector<double>& values) {
  SweepAxis axis;
  axis.name = "lambda";
  for (const double v : values) {
    axis.points.push_back(
        {common::format_double(v), [v](Scenario& s) { set_offered_lambda(s, v); }});
  }
  return axis;
}

SweepAxis SweepAxis::policies(const std::vector<Policy>& values) {
  SweepAxis axis;
  axis.name = "policy";
  for (const Policy p : values) {
    axis.points.push_back({to_string(p), [p](Scenario& s) { s.policy.policy = p; }});
  }
  return axis;
}

SweepAxis SweepAxis::speed(const std::vector<double>& values) {
  SweepAxis axis;
  axis.name = "speed";
  for (const double v : values) {
    axis.points.push_back({common::format_double(v), [v](Scenario& s) { s.speed = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::vf_levels(const std::vector<int>& values) {
  SweepAxis axis;
  axis.name = "vf_levels";
  for (const int v : values) {
    axis.points.push_back({v == 0 ? "cont." : std::to_string(v),
                           [v](Scenario& s) { s.vf_levels = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::seeds(int count, std::uint64_t base_seed) {
  SweepAxis axis;
  axis.name = "seed";
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    axis.points.push_back({std::to_string(seed), [seed](Scenario& s) { s.seed = seed; }});
  }
  return axis;
}

SweepAxis SweepAxis::islands(const std::vector<std::string>& values) {
  SweepAxis axis;
  axis.name = "islands";
  for (const std::string& v : values) {
    axis.points.push_back({v, [v](Scenario& s) { s.islands = v; }});
  }
  return axis;
}

SweepAxis SweepAxis::custom(std::string name, std::vector<Point> points) {
  SweepAxis axis;
  axis.name = std::move(name);
  axis.points = std::move(points);
  return axis;
}

std::string SweepPoint::label(const std::vector<SweepAxis>& axes) const {
  std::ostringstream os;
  for (std::size_t a = 0; a < coordinates.size(); ++a) {
    if (a > 0) os << ' ';
    os << (a < axes.size() ? axes[a].name : "axis") << '=' << coordinates[a];
  }
  return os.str();
}

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options options) : options_(options) {}

void SweepRunner::add_sink(ResultSink& sink) { sinks_.push_back(&sink); }

std::vector<SweepPoint> SweepRunner::expand(const Scenario& base,
                                            const std::vector<SweepAxis>& axes) {
  for (const SweepAxis& axis : axes) {
    if (axis.points.empty()) {
      throw std::invalid_argument("SweepRunner: axis '" + axis.name + "' has no points");
    }
  }
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) total *= axis.size();

  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    SweepPoint point;
    point.index = index;
    point.scenario = base;
    point.coordinates.resize(axes.size());
    // Row-major decode: the first axis varies slowest.
    std::vector<std::size_t> idx(axes.size());
    std::size_t rem = index;
    for (std::size_t a = axes.size(); a-- > 0;) {
      idx[a] = rem % axes[a].size();
      rem /= axes[a].size();
    }
    // Apply outer-to-inner so inner axes win field conflicts predictably.
    for (std::size_t a = 0; a < axes.size(); ++a) {
      point.coordinates[a] = axes[a].points[idx[a]].label;
      axes[a].points[idx[a]].apply(point.scenario);
    }
    points.push_back(std::move(point));
  }
  return points;
}

int SweepRunner::resolved_threads(std::size_t num_points) const {
  int n = options_.threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 1) n = 1;
  if (static_cast<std::size_t>(n) > num_points) n = static_cast<int>(num_points);
  return n;
}

namespace {

/// Lexically-normalized absolute form, so "out.noctrace" and
/// "./out.noctrace" (or different relative prefixes) compare equal.
std::string normalized_path(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path abs = std::filesystem::absolute(path, ec);
  if (ec) return path;
  return abs.lexically_normal().string();
}

/// Reject unrunnable points before any worker starts, naming the exact
/// sweep point (axis coordinates + group) instead of faulting mid-run.
void validate_points(const std::vector<SweepPoint>& points,
                     const std::vector<SweepAxis>& axes, const std::string& group) {
  std::set<std::string> trace_paths;
  for (const SweepPoint& p : points) {
    if (p.scenario.workload == Scenario::Workload::Trace && !p.scenario.trace_path.empty()) {
      trace_paths.insert(normalized_path(p.scenario.trace_path));
    }
  }
  std::set<std::string> record_paths;
  std::set<std::string> telemetry_paths;
  for (const SweepPoint& p : points) {
    std::string problem = scenario_problem(p.scenario);
    if (problem.empty()) {
      const Scenario& s = p.scenario;
      // telemetry_out= is inert with telemetry=off, so only an exporting
      // point can collide (the record_path rule, same rationale).
      const bool exports = !s.telemetry_out.empty() &&
                           obs::telemetry_mode_from_string(s.telemetry) != obs::TelemetryMode::Off;
      const std::string record = s.record_path.empty() ? "" : normalized_path(s.record_path);
      if (exports && !telemetry_paths.insert(normalized_path(s.telemetry_out)).second) {
        problem =
            "two sweep points export telemetry to the same basename (parallel workers "
            "would clobber the .json/.nocobs pair); vary telemetry_out per point or "
            "export a single run";
      } else if (!record.empty() && !record_paths.insert(record).second) {
        problem =
            "two sweep points record to the same .noctrace path (parallel workers "
            "would clobber it); vary record_path per point or record a single run";
      } else if (!record.empty() && points.size() > 1 && trace_paths.count(record) > 0) {
        problem =
            "a sweep point records to a .noctrace another point replays (the writer "
            "would truncate the file mid-sweep); use distinct paths";
      }
    }
    if (problem.empty()) continue;
    std::ostringstream os;
    os << "SweepRunner: cannot run sweep point #" << p.index;
    const std::string label = p.label(axes);
    if (!label.empty()) os << " (" << label << ")";
    if (!group.empty()) os << " of sweep '" << group << "'";
    os << ": " << problem;
    throw std::invalid_argument(os.str());
  }
}

}  // namespace

std::vector<SweepRecord> SweepRunner::run(const Scenario& base,
                                          const std::vector<SweepAxis>& axes,
                                          const std::string& group) {
  std::vector<SweepPoint> points = expand(base, axes);
  validate_points(points, axes, group);
  std::vector<RunResult> results(points.size());

  const int threads = resolved_threads(points.size());
  // Divide the host's CPUs among the runs executing at once, so a sweep
  // never asks for more threads than the host has.
  const int step_budget = noc::step_worker_budget(noc::host_cpus(), threads);
  for (SweepPoint& p : points) {
    if (p.scenario.network.step.workers == 0) p.scenario.network.step.workers = step_budget;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  // Per-worker span logs (worker-private, so no contention); merged into
  // host_report_ after the pool drains.
  const auto sweep_t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<obs::HostWorkerSpan>> worker_spans(
      static_cast<std::size_t>(threads));

  auto worker = [&](int wid) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error) return;
      }
      try {
        const auto t0 = std::chrono::steady_clock::now();
        results[i] = sim::run(points[i].scenario);
        const auto t1 = std::chrono::steady_clock::now();
        obs::HostWorkerSpan span;
        span.worker = wid;
        span.point = i;
        span.t0_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - sweep_t0).count());
        span.t1_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - sweep_t0).count());
        worker_spans[static_cast<std::size_t>(wid)].push_back(span);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  host_report_ = SweepHostReport{};
  host_report_.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - sweep_t0)
          .count();
  for (int t = 0; t < threads; ++t) {
    const auto& spans = worker_spans[static_cast<std::size_t>(t)];
    obs::HostWorkerStats stats;
    stats.worker = t;
    for (const obs::HostWorkerSpan& span : spans) {
      ++stats.points;
      stats.busy_ns += span.t1_ns - span.t0_ns;
      host_report_.spans.push_back(span);
    }
    host_report_.workers.push_back(stats);
  }
  // Merge per-run profiles in row-major point order: deterministic phase
  // ordering regardless of which worker ran which point.
  for (const RunResult& r : results) {
    if (!r.host.profile.empty()) host_report_.profile.merge(r.host.profile);
  }

  std::vector<SweepRecord> records;
  records.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    records.push_back(SweepRecord{group, std::move(points[i]), std::move(results[i])});
  }

  for (ResultSink* sink : sinks_) sink->begin_sweep(group, axes);
  for (const SweepRecord& record : records) {
    for (ResultSink* sink : sinks_) sink->on_result(record);
  }
  for (ResultSink* sink : sinks_) sink->end_sweep();
  return records;
}

void write_sweep_host_timeline(const SweepHostReport& report, const std::string& out_base) {
  obs::Timeline tl;  // host-only: no islands, no windows, no series
  tl.host_phases = report.profile.phases;
  tl.host_spans = report.spans;
  tl.host_workers = report.workers;
  obs::write_timeline_binary(tl, out_base + ".nocobs");
  obs::write_timeline_perfetto(tl, out_base + ".json");
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

/// One CSV cell: flags as 1/0, the manifest as ';'-joined k=v pairs.
struct CsvCell {
  std::string operator()(const std::string& text) const { return csv_escape(text); }
  std::string operator()(bool flag) const { return flag ? "1" : "0"; }
  std::string operator()(std::int64_t v) const { return std::to_string(v); }
  std::string operator()(std::uint64_t v) const { return std::to_string(v); }
  std::string operator()(double v) const { return common::format_double(v); }
  std::string operator()(const obs::RunManifest* m) const {
    std::string out;
    for (const auto& [key, value] : m->entries) {
      if (!out.empty()) out += ';';
      out += key + '=' + value;
    }
    return csv_escape(out);
  }
};

/// Appends JSON to `out`. `key` and `item` insert the separating comma
/// unless they open their object/array.
struct JsonOut {
  std::string& out;

  void item() const {
    if (out.back() != '{' && out.back() != '[') out += ',';
  }
  void key(std::string_view name) const {
    item();
    out += common::json_quote(name) + ':';
  }
  template <class T>
  void field(std::string_view name, const T& value) const {
    key(name);
    (*this)(value);
  }

  void operator()(const std::string& text) const { out += common::json_quote(text); }
  void operator()(bool flag) const { out += flag ? "true" : "false"; }
  void operator()(std::int64_t v) const { out += std::to_string(v); }
  void operator()(std::uint64_t v) const { out += std::to_string(v); }
  void operator()(double v) const { out += common::format_double(v); }
  void operator()(const obs::RunManifest* m) const {
    out += '{';
    for (const auto& [k, v] : m->entries) field(k, v);
    out += '}';
  }

  // Structured values with no scalar form.
  void operator()(const DelayDistResult::Slice& sl) const {
    out += '{';
    field("count", sl.count);
    field("min", sl.min);
    field("max", sl.max);
    field("p50", sl.p50);
    field("p90", sl.p90);
    field("p95", sl.p95);
    field("p99", sl.p99);
    field("p999", sl.p999);
    out += '}';
  }
  void operator()(const DelayDistResult& dd) const {
    out += '{';
    field("delay_ns", dd.delay_ns);
    field("latency_cycles", dd.latency_cycles);
    field("island_delay_ns", dd.island_delay_ns);
    field("hop_delay_ns", dd.hop_delay_ns);
    out += '}';
  }
  void operator()(const TelemetryResult::HotTile& t) const {
    out += '{';
    field("tile", std::int64_t{t.tile});
    field("flits", t.flits);
    out += '}';
  }
  void operator()(const TelemetryResult::HotLink& l) const {
    out += '{';
    field("src", std::int64_t{l.src});
    field("dst", std::int64_t{l.dst});
    field("flits", l.flits);
    out += '}';
  }
  void operator()(const dvfs::VfTracePoint& p) const {
    out += '{';
    field("t_ps", p.t);
    field("f_hz", p.f);
    field("vdd", p.vdd);
    out += '}';
  }
  void operator()(const WindowSample& w) const {
    out += '{';
    field("t_ps", w.t);
    field("avg_delay_ns", w.avg_delay_ns);
    field("packets", w.packets);
    field("f_hz", w.f_applied);
    out += '}';
  }
  void operator()(const vfi::FreqDwell& level) const {
    out += '{';
    field("f_hz", level.f_hz);
    field("dwell_ps", level.dwell_ps);
    out += '}';
  }
  void operator()(const IslandResult& isl) const {
    out += '{';
    field("island", std::int64_t{isl.island});
    field("nodes", std::int64_t{isl.nodes});
    field("policy", isl.policy);
    field("packets_delivered", isl.packets_delivered);
    field("avg_delay_ns", isl.avg_delay_ns);
    field("avg_frequency_ghz", isl.avg_frequency_hz * 1e-9);
    field("avg_voltage", isl.avg_voltage);
    field("final_frequency_ghz", isl.final_frequency_hz * 1e-9);
    field("measure_noc_cycles", isl.measure_noc_cycles);
    field("avg_buffer_occupancy", isl.avg_buffer_occupancy);
    field("power_mw", isl.power.average_power_mw());
    field("peak_temp_c", isl.peak_temp_c);
    field("throttle_residency", isl.throttle_residency);
    field("freq_residency", isl.freq_residency);
    field("vf_trace", isl.vf_trace);
    out += '}';
  }
  template <class T>
  void operator()(const std::vector<T>& items) const {
    out += '[';
    for (const T& x : items) {
      item();
      (*this)(x);
    }
    out += ']';
  }
};

}  // namespace

CsvResultSink::CsvResultSink(std::ostream& os) : os_(os) {}

void CsvResultSink::begin_sweep(const std::string& group,
                                const std::vector<SweepAxis>& axes) {
  (void)group;
  (void)axes;
  if (header_written_) return;
  std::string header;
  for (const ResultField& field : result_schema()) {
    if (!header.empty()) header += ',';
    header += field.name;
  }
  os_ << header << '\n';
  header_written_ = true;
}

void CsvResultSink::on_result(const SweepRecord& record) {
  std::string row;
  for (const ResultField& field : result_schema()) {
    if (!row.empty()) row += ',';
    row += std::visit(CsvCell{}, field.get(record));
  }
  row += '\n';
  os_ << row;
}

JsonlResultSink::JsonlResultSink(std::ostream& os) : os_(os) {}

void JsonlResultSink::on_result(const SweepRecord& record) {
  const RunResult& r = record.result;
  std::string out = "{";
  const JsonOut j{out};
  for (const ResultField& field : result_schema()) {
    j.key(field.name);
    std::visit(j, field.get(record));
  }

  j.field("coordinates", record.point.coordinates);
  j.field("top_tiles", r.telemetry.top_tiles);
  j.field("top_links", r.telemetry.top_links);
  j.field("delay_dist", r.delay_dist);
  j.field("island_results", r.islands);
  j.field("window_trace", r.window_trace);
  j.field("vf_trace", r.vf_trace);
  out += "}\n";
  os_ << out;
}

}  // namespace nocdvfs::sim
