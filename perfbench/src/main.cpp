/// \file main.cpp
/// Simulator benchmark program.
///
///   nocdvfs_perfbench --workload <quadrants32|paper5_sweep|sparse64>
///                     --seed <n> --seconds <s> --trace <0|1>
///
/// --trace 0 repeats the workload's batch through the public API
/// (make_simulator + Simulator::run, or SweepRunner::run for the sweep)
/// until --seconds have passed and reports the end-to-end metrics as
/// medians over the repetitions. --trace 1 runs the batch untraced, then
/// replays it with a span around every call into a layer, repeating the
/// pair until --seconds have passed, and reports the per-layer metrics; it
/// also runs an untimed stall-counting pass and an untimed prof=on pass. The last line of stdout is one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "obs/memstats.hpp"
#include "replay.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace {

namespace sim = nocdvfs::sim;
namespace noc = nocdvfs::noc;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
/// The run_s bound in BENCHMARK.json.
constexpr double kRunBound = 0.25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// The result line and the failure ledger behind it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void attempt(std::uint64_t runs) { attempted_ += runs; }
  /// Record a failed check or a throwing run (one line to stderr).
  void fail(std::uint64_t runs, const std::string& why) {
    failed_ += runs;
    std::cerr << "FAILED: " << why << '\n';
  }
  /// Record a check that invalidates the whole invocation without being a
  /// failed run (a broken self-test, a disagreeing profile).
  void invalidate(const std::string& why) {
    invalid_ = true;
    std::cerr << "INVALID: " << why << '\n';
  }
  bool ok() const noexcept { return failed_ == 0 && !invalid_; }

  void print(std::ostream& os) const {
    for (const Metric& m : metrics_) os << m.name << " = " << fmt(m.value) << ' ' << m.unit << '\n';
    os << "{\"correct\": " << (ok() ? "true" : "false") << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
         << fmt(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    os << "}}\n";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool invalid_ = false;
};

/// Times the sinks SweepRunner feeds after a sweep completes.
class TimedSink final : public sim::ResultSink {
 public:
  explicit TimedSink(sim::ResultSink& inner) : inner_(inner) {}
  void begin_sweep(const std::string& group, const std::vector<sim::SweepAxis>& axes) override {
    const auto t0 = Clock::now();
    inner_.begin_sweep(group, axes);
    seconds_ += seconds_since(t0);
  }
  void on_result(const sim::SweepRecord& record) override {
    const auto t0 = Clock::now();
    inner_.on_result(record);
    seconds_ += seconds_since(t0);
  }
  void end_sweep() override {
    const auto t0 = Clock::now();
    inner_.end_sweep();
    seconds_ += seconds_since(t0);
  }
  double seconds() const noexcept { return seconds_; }

 private:
  sim::ResultSink& inner_;
  double seconds_ = 0.0;
};

/// One SweepRunner pass with CSV and JSONL sinks writing to memory.
struct SweepPass {
  std::vector<sim::SweepRecord> records;
  sim::SweepHostReport host;
  double makespan_s = 0.0;
  double sink_s = 0.0;
  std::uint64_t sink_bytes = 0;
};

SweepPass run_sweep(const Workload& w) {
  std::ostringstream csv, jsonl;
  sim::CsvResultSink csv_sink(csv);
  sim::JsonlResultSink jsonl_sink(jsonl);
  TimedSink timed_csv(csv_sink), timed_jsonl(jsonl_sink);
  sim::SweepRunner::Options opt;
  opt.threads = w.sweep_threads;
  sim::SweepRunner runner(opt);
  runner.add_sink(timed_csv);
  runner.add_sink(timed_jsonl);
  SweepPass pass;
  const auto t0 = Clock::now();
  pass.records = runner.run(w.base, w.axes, w.name);
  pass.makespan_s = seconds_since(t0);
  pass.host = runner.host_report();
  pass.sink_s = timed_csv.seconds() + timed_jsonl.seconds();
  pass.sink_bytes = csv.str().size() + jsonl.str().size();
  return pass;
}

/// Checks that need only the run's result; returns the first problem.
std::string result_problem(const sim::RunResult& r) {
  if (std::string p = perfbench::island_energy_problem(r); !p.empty()) return p;
  return perfbench::saturation_problem(r);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

struct Repetition {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t node_cycles = 0;
  std::uint64_t packets = 0;
  double delay_weighted_ns = 0.0;  ///< Σ packets × mean delay
  double energy_j = 0.0;
  double measured_s = 0.0;
  std::string fingerprint;
  std::string island_ghz;  ///< mean frequency per island, for the log
  bool ok = true;

  void add(const sim::RunResult& r) {
    node_cycles += r.warmup_node_cycles_used + r.measure_node_cycles;
    packets += r.packets_delivered;
    delay_weighted_ns += static_cast<double>(r.packets_delivered) * r.avg_delay_ns;
    energy_j += r.power.total_j();
    measured_s += r.power.elapsed_s();
    fingerprint += perfbench::to_string(perfbench::fingerprint_of(r)) + ";";
    for (const sim::IslandResult& isl : r.islands) {
      island_ghz += std::to_string(isl.avg_frequency_hz * 1e-9).substr(0, 5) + " ";
    }
  }
};

/// Set-up rounds per repetition; setup_s is their median.
constexpr int kSetupRounds = 3;

/// Time make_simulator for every run of the batch, kSetupRounds times, and
/// return the median round. `keep` receives the last simulator built.
double time_setup(const std::vector<sim::SweepPoint>& points,
                  std::unique_ptr<sim::Simulator>& keep) {
  std::vector<double> rounds;
  for (int round = 0; round < kSetupRounds; ++round) {
    double total = 0.0;
    for (const sim::SweepPoint& p : points) {
      keep.reset();
      const auto t0 = Clock::now();
      keep = sim::make_simulator(p.scenario);
      total += seconds_since(t0);
    }
    rounds.push_back(total);
  }
  return median(rounds);
}

/// One batch: make_simulator for every run (timed as setup), then the runs.
Repetition run_batch(const Workload& w, Report& report) {
  Repetition rep;
  const std::vector<sim::SweepPoint> points = w.points();
  report.attempt(points.size());
  try {
    std::unique_ptr<sim::Simulator> simulator;
    rep.setup_s = time_setup(points, simulator);
    if (w.is_sweep()) {
      // SweepRunner builds its own simulators, so run_s is its makespan and
      // setup is timed above on the same scenarios.
      simulator.reset();
      const SweepPass pass = run_sweep(w);
      rep.run_s = pass.makespan_s;
      for (const sim::SweepRecord& rec : pass.records) {
        rep.add(rec.result);
        if (const std::string p = result_problem(rec.result); !p.empty()) {
          rep.ok = false;
          report.fail(1, rec.point.label(w.axes) + ": " + p);
        }
      }
    } else {
      const auto t0 = Clock::now();
      const sim::RunResult r = simulator->run(w.base.phases);
      rep.run_s = seconds_since(t0);
      rep.add(r);
      std::string p = perfbench::conservation_problem(perfbench::ledger_of(simulator->network()));
      if (p.empty()) p = result_problem(r);
      if (!p.empty()) {
        rep.ok = false;
        report.fail(1, p);
      }
    }
  } catch (const std::exception& e) {
    rep.ok = false;
    report.fail(points.size(), std::string("run threw: ") + e.what());
  }
  return rep;
}

void end_to_end(const Workload& w, const Args& args, Report& report) {
  std::vector<Repetition> reps;
  const auto t0 = Clock::now();
  constexpr std::size_t kMinRepetitions = 3;
  while (reps.size() < kMinRepetitions || seconds_since(t0) < args.seconds) {
    reps.push_back(run_batch(w, report));
    const Repetition& r = reps.back();
    std::cout << "repetition " << reps.size() << ": setup_s " << r.setup_s << " run_s "
              << r.run_s << " node_cycles " << r.node_cycles << " fingerprint " << r.fingerprint
              << " island GHz " << r.island_ghz << '\n';
  }
  std::vector<double> setup, run;
  std::vector<std::string> prints;
  for (const Repetition& r : reps) {
    if (!r.ok) continue;
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    prints.push_back(r.fingerprint);
  }
  if (const std::string p = perfbench::repeat_problem(prints); !p.empty()) {
    report.fail(prints.size() * w.points().size(), p);
  }
  if (run.empty()) return;
  const Repetition& first = *std::find_if(reps.begin(), reps.end(), [](auto& r) { return r.ok; });
  const double run_s = median(run);
  report.metric("run_s", run_s, "s");
  report.metric("setup_s", median(setup), "s");
  report.metric("node_cycles_per_s", static_cast<double>(first.node_cycles) / run_s, "1/s");
  report.metric("peak_rss_mb",
                static_cast<double>(nocdvfs::obs::sample_process_memory().peak_rss_bytes) / kMiB,
                "MB");
  report.metric("sim_delay_ns", first.delay_weighted_ns / static_cast<double>(first.packets), "ns");
  report.metric("sim_power_mw", first.energy_j / first.measured_s * 1e3, "mW");
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Per-layer totals over the runs of one batch.
struct BatchTrace {
  perfbench::LayerTrace sum;
  double untraced_s = 0.0;
  double build_s = 0.0;
  double build_mb = 0.0;  ///< largest RSS growth across one Network construction

};

/// The resolved configuration of one scenario, and a Network built from it
/// with its construction timed. The probe simulator stays alive so the RSS
/// growth measured across the construction is the new network's own.
struct Built {
  std::unique_ptr<sim::Simulator> probe;
  std::unique_ptr<noc::Network> net;
  double build_s = 0.0;
  double build_mb = 0.0;
};

Built build_network(const sim::Scenario& s) {
  Built b;
  b.probe = sim::make_simulator(s);
  const std::uint64_t rss0 = nocdvfs::obs::sample_process_memory().current_rss_bytes;
  const auto t0 = Clock::now();
  b.net = std::make_unique<noc::Network>(b.probe->network().config());
  b.build_s = seconds_since(t0);
  const std::uint64_t rss1 = nocdvfs::obs::sample_process_memory().current_rss_bytes;
  b.build_mb = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) / kMiB;
  return b;
}

/// Untraced run, then the traced replay of it, for one scenario. `timed`
/// is the run whose load the replay must reproduce: the untraced run
/// itself, or the SweepRunner record of the same point.
sim::RunResult trace_one(const sim::Scenario& s, const sim::RunResult* timed, BatchTrace& bt,
                         Report& report, const std::string& label) {
  Built b = build_network(s);
  bt.build_s += b.build_s;
  bt.build_mb = std::max(bt.build_mb, b.build_mb);

  auto simulator = sim::make_simulator(s);
  const auto t0 = Clock::now();
  const sim::RunResult untraced = simulator->run(s.phases);
  bt.untraced_s += seconds_since(t0);
  std::string p = perfbench::conservation_problem(perfbench::ledger_of(simulator->network()));
  if (p.empty()) p = result_problem(untraced);
  simulator.reset();
  if (timed == nullptr) {
    timed = &untraced;
  } else if (p.empty()) {
    p = perfbench::repeat_problem({perfbench::to_string(perfbench::fingerprint_of(*timed)),
                                   perfbench::to_string(perfbench::fingerprint_of(untraced))});
  }

  const perfbench::ReplayPlan plan{s, b.probe->config(), b.probe->energy_model(), *timed};
  const perfbench::LayerTrace t = perfbench::replay(*b.net, plan, true);
  if (p.empty()) p = perfbench::replay_problem(perfbench::fingerprint_of(*timed), t.measured);
  if (p.empty()) p = perfbench::conservation_problem(t.ledger);
  if (!p.empty()) report.fail(1, label + p);
  bt.sum += t;
  return untraced;
}

/// Untimed stall-counting replay: stall tracking switches the routers onto
/// another code path, so it never runs inside a timed pass.
void count_stalls(const sim::Scenario& s, const sim::RunResult& timed, BatchTrace& bt,
                  Report& report, const std::string& label) {
  auto probe = sim::make_simulator(s);
  noc::Network net(probe->network().config());
  net.set_stall_tracking(true);
  const perfbench::ReplayPlan plan{s, probe->config(), probe->energy_model(), timed};
  const perfbench::LayerTrace t = perfbench::replay(net, plan, false);
  if (const std::string p = perfbench::replay_problem(perfbench::fingerprint_of(timed), t.measured);
      !p.empty()) {
    report.invalidate(label + "stall pass " + p);
  }
  bt.sum.stall_vc_alloc += t.stall_vc_alloc;
  bt.sum.stall_switch += t.stall_switch;
  bt.sum.stall_credit += t.stall_credit;
}

/// Exclusive island_step share of the prof=on profile, summed over runs.
struct ProfShare {
  std::uint64_t island_step_ns = 0;
  std::uint64_t root_ns = 0;
};

void profile_one(sim::Scenario s, const sim::RunResult& timed, ProfShare& share, Report& report,
                 const std::string& label) {
  s.prof = "on";
  const sim::RunResult r = sim::make_simulator(s)->run(s.phases);
  for (const nocdvfs::obs::PhaseStats& ph : r.host.profile.phases) {
    if (ph.name.rfind("island_step", 0) == 0) share.island_step_ns += ph.exclusive_ns;
  }
  share.root_ns += r.host.profile.root_inclusive_ns();
  if (perfbench::to_string(perfbench::fingerprint_of(r)) !=
      perfbench::to_string(perfbench::fingerprint_of(timed))) {
    report.invalidate(label + "prof=on run differs from the timed run");
  }
}

void per_layer(const Workload& w, const Args& args, Report& report) {
  const std::vector<sim::SweepPoint> points = w.points();
  auto label = [&](std::size_t i) {
    return w.is_sweep() ? points[i].label(w.axes) + ": " : std::string();
  };

  // The real sweep pass (the sweep.* metrics); its records are the timed
  // runs the replay reproduces.
  const auto t0 = Clock::now();
  SweepPass pass;
  if (w.is_sweep()) {
    report.attempt(points.size());
    pass = run_sweep(w);
  }
  auto timed_run = [&](std::size_t i) -> const sim::RunResult* {
    return w.is_sweep() ? &pass.records[i].result : nullptr;
  };

  // Untraced/traced pairs until --seconds have passed; the pair with the
  // median traced wall time is reported.
  std::vector<BatchTrace> pairs;
  std::vector<sim::RunResult> untraced(points.size());
  while (pairs.empty() || seconds_since(t0) < args.seconds) {
    BatchTrace bt;
    report.attempt(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      try {
        untraced[i] = trace_one(points[i].scenario, timed_run(i), bt, report, label(i));
      } catch (const std::exception& e) {
        report.fail(1, label(i) + "traced run threw: " + e.what());
      }
    }
    pairs.push_back(bt);
  }
  std::vector<std::size_t> order(pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return pairs[a].sum.wall_s < pairs[b].sum.wall_s; });
  BatchTrace bt = pairs[order[order.size() / 2]];
  // Later pairs reuse the heap the first one grew, so only the first
  // construction of each network shows its RSS growth.
  for (const BatchTrace& p : pairs) bt.build_mb = std::max(bt.build_mb, p.build_mb);
  std::vector<double> overheads;
  for (const BatchTrace& p : pairs) overheads.push_back((p.sum.wall_s - p.untraced_s) / p.untraced_s);

  // Untimed passes: stall counting and the program's own profiler, each
  // against the run the traced pass reproduced.
  ProfShare prof;
  for (std::size_t i = 0; i < points.size(); ++i) {
    try {
      const sim::Scenario& s = points[i].scenario;
      const sim::RunResult* timed = timed_run(i);
      count_stalls(s, timed ? *timed : untraced[i], bt, report, label(i));
      profile_one(s, timed ? *timed : untraced[i], prof, report, label(i));
    } catch (const std::exception& e) {
      report.invalidate(label(i) + "untimed pass threw: " + e.what());
    }
  }

  // A split of a different load would mislead: publish none.
  if (!report.ok()) {
    std::cerr << "no per-layer split published\n";
    return;
  }

  const perfbench::LayerTrace& t = bt.sum;
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  report.metric("traffic.node_tick_s", t.node_tick_s, "s");
  report.metric("traffic.node_ticks", d(t.node_ticks), "count");
  report.metric("traffic.ns_per_node_tick", ratio(t.node_tick_s * 1e9, d(t.node_ticks)), "ns");
  report.metric("traffic.packets_generated", d(t.packets_generated), "count");

  report.metric("noc.tick_s", t.tick_s, "s");
  report.metric("noc.phases_s", t.phases_s, "s");
  report.metric("noc.island_steps", d(t.island_steps), "count");
  report.metric("noc.active_tiles_mean", ratio(d(t.tiles_stepped), d(t.island_steps)), "count");
  report.metric("noc.active_fraction", ratio(d(t.tiles_stepped), d(t.tile_slots)), "ratio");
  report.metric("noc.ns_per_tile_step", ratio(t.phases_s * 1e9, d(t.tiles_stepped)), "ns");
  report.metric("noc.flit_hops", d(t.flit_hops), "count");
  report.metric("noc.ns_per_flit_hop", ratio(t.phases_s * 1e9, d(t.flit_hops)), "ns");
  report.metric("noc.buffer_occupancy", ratio(d(t.buffered_flit_sum), d(t.buffer_capacity_sum)),
                "ratio");
  report.metric("noc.cdc_flits_mean", ratio(d(t.cdc_flit_sum), d(t.boundary_samples)), "flits");
  report.metric("noc.source_backlog_flits_mean", ratio(d(t.backlog_sum), d(t.boundary_samples)),
                "flits");
  report.metric("noc.stall_vc_alloc_per_hop", ratio(d(t.stall_vc_alloc), d(t.flit_hops)), "cycles");
  report.metric("noc.stall_switch_per_hop", ratio(d(t.stall_switch), d(t.flit_hops)), "cycles");
  report.metric("noc.stall_credit_per_hop", ratio(d(t.stall_credit), d(t.flit_hops)), "cycles");
  report.metric("noc.build_s", bt.build_s, "s");
  report.metric("noc.build_mb", bt.build_mb, "MB");

  report.metric("sim.clock_s", t.clock_s, "s");
  report.metric("sim.clock_edges", d(t.clock_edges), "count");
  report.metric("sim.deliveries_s", t.deliveries_s, "s");
  report.metric("sim.packets_delivered", d(t.packets_drained), "count");

  report.metric("dvfs.update_s", t.dvfs_s, "s");
  report.metric("dvfs.updates", d(t.dvfs_updates), "count");
  report.metric("dvfs.freq_changes", d(t.freq_changes), "count");
  report.metric("power.account_s", t.power_s, "s");
  report.metric("power.segments", d(t.power_calls), "count");
  report.metric("thermal.advance_s", t.thermal_s, "s");
  report.metric("thermal.advances", d(t.thermal_advances), "count");
  report.metric("thermal.throttle_events", d(t.throttle_events), "count");

  double p50 = 0.0, pmax = 0.0, util = 0.0, idle = 0.0;
  if (w.is_sweep()) {
    std::vector<double> point_s;
    for (const auto& span : pass.host.spans) point_s.push_back(static_cast<double>(span.t1_ns - span.t0_ns) * 1e-9);
    p50 = median(point_s);
    pmax = point_s.empty() ? 0.0 : *std::max_element(point_s.begin(), point_s.end());
    double busy = 0.0;
    for (const auto& wk : pass.host.workers) busy += static_cast<double>(wk.busy_ns) * 1e-9;
    const double capacity = pass.host.wall_s * static_cast<double>(pass.host.workers.size());
    util = ratio(busy, capacity);
    idle = capacity - busy;
  }
  report.metric("sweep.points", d(w.is_sweep() ? pass.records.size() : 0), "count");
  report.metric("sweep.point_s_p50", p50, "s");
  report.metric("sweep.point_s_max", pmax, "s");
  report.metric("sweep.worker_util", util, "ratio");
  report.metric("sweep.worker_idle_s", idle, "s");
  report.metric("sweep.sink_s", pass.sink_s, "s");
  report.metric("sweep.sink_bytes", d(pass.sink_bytes), "bytes");

  const double phases_share = ratio(t.phases_s, t.wall_s);
  const double prof_share = ratio(d(prof.island_step_ns), d(prof.root_ns));
  report.metric("trace.wall_s", t.wall_s, "s");
  report.metric("trace.untraced_s", bt.untraced_s, "s");
  report.metric("trace.overhead_frac", median(overheads), "ratio");
  report.metric("trace.phases_share", phases_share, "ratio");
  report.metric("trace.prof_island_step_share", prof_share, "ratio");
  std::cout << "noc.phases_s share of the traced run " << phases_share
            << ", prof=on exclusive island_step share " << prof_share << '\n';
  // The outside-in split is anchored to the program's own profiler: the
  // two shares must agree within the run_s bound of BENCHMARK.json.
  if (!(std::abs(phases_share - prof_share) <= kRunBound * prof_share)) {
    report.invalidate("noc.phases_s share " + std::to_string(phases_share) +
                      " disagrees with the prof=on island_step share " +
                      std::to_string(prof_share));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "usage: nocdvfs_perfbench --workload <"
              << "quadrants32|paper5_sweep|sparse64> --seed <n> --seconds <s> --trace <0|1>\n"
              << e.what() << '\n';
    return 2;
  }
  std::cout << "host: nproc " << std::thread::hardware_concurrency() << ", compiler "
            << PERFBENCH_CXX_COMPILER << ", build " << PERFBENCH_BUILD_TYPE << ", asserts "
#ifdef NOCDVFS_ENABLE_ASSERTS
            << "on"
#else
            << "off"
#endif
            << '\n';
  Report report;
  if (const int broken = perfbench::run_self_tests(std::cerr); broken > 0) {
    report.invalidate(std::to_string(broken) + " check self-tests misbehaved");
  }
  try {
    const Workload w = perfbench::make_workload(args.workload, args.seed);
    if (args.trace) {
      per_layer(w, args, report);
    } else {
      end_to_end(w, args, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark error: " << e.what() << '\n';
    return 1;
  }
  report.print(std::cout);
  return 0;
}
