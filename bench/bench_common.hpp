#pragma once

/// \file bench_common.hpp
/// Shared scaffolding for the figure-reproduction benches, built on the
/// declarative `sim::Scenario` + `sim::SweepRunner` API: paper-faithful
/// default phases, a `Harness` that gives every bench `key=value`
/// overrides, `--help` (`help=1`), the one anchoring call
/// (`Harness::anchor`: `sim::find_anchors` with the bench saturation
/// options, printed as one line), parallel sweep execution (`threads=N`)
/// and machine-readable output (`csv=…` / `json=…`, e.g. under
/// `bench/out/`), and uniform banner output.
///
/// Command-line contract (shared with the examples through
/// `common::run_main`): arguments are `key=value` tokens; `help=1` prints
/// every key with its default and exits 0; a run exits 0 on success and 1
/// on any error, printing one `<program>: <reason>` line on stderr. An
/// unknown key, an invalid Scenario or an output path that cannot be
/// opened is rejected before the banner, so no simulation starts. A
/// bench resolves its own list keys (`workloads=`, `layouts=`,
/// `topologies=`, `routings=`, `fault_specs=`) in the same step, so an
/// unknown name fails there too.
///
/// λ is the load of every workload. Benches set it only through
/// `sim::operating_point` (the anchors, then one load) and
/// `sim::SweepAxis::lambda`, which write the workload's own load field
/// (synthetic λ, app speed, trace time-warp) with `sim::set_offered_lambda`,
/// so a bench run with `workload=app|trace` runs each row at its λ label.
///
/// The extension figures share their workloads and axes from here:
/// `UnevenWorkloads` and `island_axis` (fig11, fig12), `topology_axis`,
/// `routing_axis` and `anchored_base` (fig13, fig14).
///
/// Fast mode: pass `fast=1` to shrink sweeps and phases (~4× faster,
/// coarser curves). Every Scenario key, with its default and help text,
/// comes from `sim::Scenario::declare_keys`; fast mode only changes the
/// defaults the harness hands it.

#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "noc/routing.hpp"
#include "sim/saturation.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "topo/topology.hpp"
#include "vfi/island_map.hpp"

namespace nocdvfs::bench {

namespace detail {
inline bool fast = false;  ///< the `fast` key, set by Harness::run
}  // namespace detail

inline bool fast_mode() { return detail::fast; }

/// Paper-faithful run phases (control period stays the config's 10 000
/// node cycles); FAST mode shortens everything.
inline sim::RunPhases bench_phases() {
  sim::RunPhases phases;
  if (fast_mode()) {
    phases.warmup_node_cycles = 60000;
    phases.measure_node_cycles = 50000;
    phases.max_warmup_node_cycles = 400000;
  } else {
    phases.warmup_node_cycles = 120000;
    phases.measure_node_cycles = 100000;
    phases.max_warmup_node_cycles = 1000000;
  }
  return phases;
}

inline sim::SaturationSearchOptions bench_saturation_options() {
  sim::SaturationSearchOptions opt;
  if (fast_mode()) {
    opt.warmup_node_cycles = 25000;
    opt.measure_node_cycles = 25000;
    opt.resolution = 0.01;
  }
  return opt;
}

/// Control period used by all benches. The paper's control period is
/// 10 000 cycles of the fastest clock; FAST mode halves it so the PI loop
/// fits the same number of updates into the shortened settle budget (the
/// paper's own ablation-D result: tracking quality is insensitive to the
/// period in this range).
inline std::uint64_t bench_control_period() { return fast_mode() ? 5000 : 10000; }

/// The paper's default scenario: 5×5 mesh, 8 VCs × 4 flits, 20-flit
/// packets, uniform traffic, with the bench phase protocol applied.
inline sim::Scenario paper_default_scenario() {
  sim::Scenario s;
  s.network.width = 5;
  s.network.height = 5;
  s.network.num_vcs = 8;
  s.network.vc_buffer_depth = 4;
  s.packet_size = 20;
  s.pattern = "uniform";
  s.control_period = bench_control_period();
  s.phases = bench_phases();
  return s;
}

/// Load sweep as fractions of the saturation rate, mirroring the paper's
/// x-axes that run from near zero to just below saturation.
inline std::vector<double> lambda_sweep(double lambda_sat, int points) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 1; i <= points; ++i) {
    out.push_back(lambda_sat * 0.95 * static_cast<double>(i) / points);
  }
  return out;
}

inline int sweep_points(int full, int fast) { return fast_mode() ? fast : full; }

inline void banner(const std::string& figure, const std::string& what) {
  std::cout << "=================================================================\n"
            << figure << " — " << what << "\n"
            << "Casu & Giaccone, \"Rate-based vs Delay-based Control for DVFS in "
               "NoC\", DATE 2015\n"
            << (fast_mode() ? "[FAST mode: shortened sweeps]\n" : "")
            << "=================================================================\n";
}

/// Per-bench front end: declares the full Scenario key set plus the
/// harness keys, runs the bench body through `common::run_main`, and
/// executes sweeps through a SweepRunner wired to the optional CSV/JSONL
/// sinks. Typical use:
///
///   bench::Harness h("Figure 7", "Synthetic patterns …");
///   return h.run(argc, argv, [&] {
///     auto recs = h.sweep(h.scenario(), {sim::SweepAxis::lambda(...),
///                                         sim::SweepAxis::policies(...)}, "group");
///     return 0;
///   });
class Harness {
 public:
  Harness(std::string figure, std::string what)
      : figure_(std::move(figure)), what_(std::move(what)) {
    sim::Scenario::declare_keys(config_, paper_default_scenario());
    config_.declare_bool("fast", false, "shrink sweeps and phases (~4x faster, coarser curves)");
    config_.declare_int("threads", 0, "sweep worker threads (0 = all cores)");
    config_.declare("csv", "", "write headline-metric CSV rows to this path");
    config_.declare("json", "", "write JSONL results + trajectories to this path");
    config_.declare("prof_out", "",
                    "write the sweep's host timeline (worker spans + merged prof=on "
                    "phase profile) to <prof_out>.nocobs/.json; reflects the most "
                    "recently executed sweep");
  }

  common::Config& config() noexcept { return config_; }
  const common::Config& config() const noexcept { return config_; }

  /// The bench's `main`: common::run_main over argv. After the parse,
  /// `fast=1` rescales the phase/period defaults (explicit assignments win;
  /// Config::declare keeps them), so `help=1 fast=1` lists the fast
  /// defaults. Before `body` runs, the Scenario is built and validated,
  /// `resolve` (if set) turns the bench's own keys into workloads and axes,
  /// and the csv/json/prof_out outputs are opened; any failure there exits
  /// 1 before the banner.
  int run(int argc, const char* const* argv, const std::function<int()>& body) {
    return run(argc, argv, {}, body);
  }
  int run(int argc, const char* const* argv, const std::function<void()>& resolve,
          const std::function<int()>& body) {
    return common::run_main(
        config_, argc, argv,
        [&] {
          scenario_ = sim::Scenario::from_config(config_);
          sim::check_scenario(scenario_);
          if (resolve) resolve();
          open_outputs();
          banner(figure_, what_);
          return body();
        },
        [this] {
          detail::fast = config_.get_bool("fast");
          sim::Scenario::declare_keys(config_, paper_default_scenario());
        });
  }

  /// The base scenario described by the (possibly overridden) config.
  const sim::Scenario& scenario() const noexcept { return scenario_; }

  /// The paper's anchors for `base` (sim::find_anchors with
  /// bench_saturation_options()), printed as one line. Apply them with
  /// sim::operating_point (or sim::anchored when a load axis follows).
  static sim::Anchors anchor(const sim::Scenario& base) {
    const sim::Anchors a = sim::find_anchors(base, bench_saturation_options());
    std::cout << "lambda_sat = " << common::Table::fmt(a.lambda_sat, 3)
              << "   lambda_max = " << common::Table::fmt(a.lambda_max, 3)
              << "   DMSD target = " << common::Table::fmt(a.target_delay_ns, 1) << " ns";
    if (a.traffic_scale > 0.0) {
      std::cout << "   (app: traffic_scale " << a.traffic_scale << " puts lambda_max at speed 1.0)";
    }
    std::cout << "\n";
    return a;
  }

  /// Run the cross product of `axes` over `base` on the worker pool,
  /// streaming results to any configured CSV/JSONL sinks. Records come
  /// back in deterministic row-major order regardless of thread count.
  std::vector<sim::SweepRecord> sweep(const sim::Scenario& base,
                                      const std::vector<sim::SweepAxis>& axes,
                                      const std::string& group = "") {
    auto records = runner_->run(base, axes, group.empty() ? figure_ : group);
    const std::string prof_out = config_.get_string("prof_out");
    if (!prof_out.empty()) {
      sim::write_sweep_host_timeline(runner_->host_report(), prof_out);
      std::cout << "wrote host timeline " << prof_out << ".nocobs / .json\n";
    }
    return records;
  }

 private:
  void open_outputs() {
    sim::SweepRunner::Options opt;
    opt.threads = static_cast<int>(config_.get_int("threads"));
    runner_ = std::make_unique<sim::SweepRunner>(opt);
    if (const std::string path = config_.get_string("csv"); !path.empty()) {
      csv_out_ = common::open_output(path);
      csv_sink_ = std::make_unique<sim::CsvResultSink>(csv_out_);
      runner_->add_sink(*csv_sink_);
    }
    if (const std::string path = config_.get_string("json"); !path.empty()) {
      json_out_ = common::open_output(path);
      json_sink_ = std::make_unique<sim::JsonlResultSink>(json_out_);
      runner_->add_sink(*json_sink_);
    }
    // The timeline is written after each sweep; check its path up front.
    if (const std::string path = config_.get_string("prof_out"); !path.empty()) {
      common::open_output(path + ".nocobs");
    }
  }

  std::string figure_;
  std::string what_;
  common::Config config_;
  sim::Scenario scenario_;
  std::unique_ptr<sim::SweepRunner> runner_;
  std::ofstream csv_out_;
  std::ofstream json_out_;
  std::unique_ptr<sim::CsvResultSink> csv_sink_;
  std::unique_ptr<sim::JsonlResultSink> json_sink_;
};

/// The load of the extension figures (fig11–fig14), as a fraction of λ_sat.
inline constexpr double kExtensionLoad = 0.6;

/// The spatially uneven workloads the island and thermal figures (fig11,
/// fig12) compare on, each at kExtensionLoad·λ_sat of its own anchors:
/// `hotspot`, `transpose`, and `trace`, the anchored hotspot stream
/// recorded once under No-DVFS (so the capture is policy-free) and replayed
/// looped. The hotspot anchors are found once and reused.
class UnevenWorkloads {
 public:
  /// Declares `workloads=` and `trace_file=` (default
  /// `bench/out/<program>.noctrace`).
  static void declare_keys(common::Config& c, const std::string& program) {
    c.declare("workloads", "hotspot,transpose,trace",
              "comma list of workloads (hotspot,transpose,trace)");
    c.declare("trace_file", "bench/out/" + program + ".noctrace",
              "scratch .noctrace recorded for the trace workload");
  }

  /// Reads the keys back. An unknown workload throws; with `trace` listed,
  /// the trace file is opened (common::open_output), so an unwritable path
  /// fails here.
  explicit UnevenWorkloads(const common::Config& c)
      : names_(common::split_csv(c.get_string("workloads"))),
        trace_file_(c.get_string("trace_file")) {
    for (const std::string& name : names_) {
      if (name == "trace") {
        common::open_output(trace_file_);
      } else if (name != "hotspot" && name != "transpose") {
        throw std::invalid_argument("workloads: unknown workload '" + name +
                                    "' (valid: hotspot transpose trace)");
      }
    }
  }

  const std::vector<std::string>& names() const noexcept { return names_; }

  /// Workload `name` on `base` at its operating point; anchoring prints
  /// its line (Harness::anchor), and `trace` records its capture first.
  sim::Scenario build(sim::Scenario base, const std::string& name) {
    if (name == "transpose") {
      base.pattern = "transpose";
      return sim::operating_point(base, Harness::anchor(base), kExtensionLoad);
    }
    base.pattern = "hotspot";
    if (!hotspot_anchors_) hotspot_anchors_ = Harness::anchor(base);
    sim::Scenario s = sim::operating_point(base, *hotspot_anchors_, kExtensionLoad);
    if (name == "trace") {
      sim::Scenario rec = s;
      rec.policy.policy = sim::Policy::NoDvfs;
      rec.record_path = trace_file_;
      sim::run(rec);
      s.workload = sim::Scenario::Workload::Trace;
      s.trace_path = trace_file_;
      s.trace_loop = true;
      s.trace_scale = 1.0;
    }
    return s;
  }

 private:
  std::vector<std::string> names_;
  std::string trace_file_;
  std::optional<sim::Anchors> hotspot_anchors_;
};

/// `names` (the `layouts=` key) as a VF-island layout axis; an unknown
/// layout throws.
inline sim::SweepAxis island_axis(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    common::parse_key_value("layouts", name, vfi::preset_from_string);
  }
  return sim::SweepAxis::islands(names);
}

/// The topology axis (`topologies=`) of fig13 and fig14; an unknown name
/// throws. `mesh` is a no-op, so its rows stay bit-identical to a
/// `baseline` group that never touches a topology key; `cmesh` is the 6×4
/// NI grid in 2×2 blocks (6 routers switching 24 NIs).
inline sim::SweepAxis topology_axis(const std::vector<std::string>& names) {
  std::vector<sim::SweepAxis::Point> points;
  for (const std::string& name : names) {
    const topo::TopologyKind kind =
        common::parse_key_value("topologies", name, topo::topology_kind_from_string);
    points.push_back({name, [kind](sim::Scenario& s) {
                        if (kind == topo::TopologyKind::Mesh) return;
                        s.network.topology = kind;
                        if (kind == topo::TopologyKind::Cmesh) {
                          s.network.width = 6;
                          s.network.height = 4;
                          s.network.concentration = 4;
                        }
                      }});
  }
  return sim::SweepAxis::custom("topology", std::move(points));
}

/// The routing axis (`routings=`) of fig13; an unknown algorithm throws.
inline sim::SweepAxis routing_axis(const std::vector<std::string>& names) {
  std::vector<sim::SweepAxis::Point> points;
  for (const std::string& name : names) {
    const noc::RoutingAlgo algo =
        common::parse_key_value("routings", name, noc::routing_algo_from_string);
    points.push_back({name, [algo](sim::Scenario& s) { s.network.routing = algo; }});
  }
  return sim::SweepAxis::custom("routing", std::move(points));
}

/// The base scenario fig13 and fig14 sweep from: `base` at
/// kExtensionLoad·λ_sat of `anchors`, with telemetry_out cleared (the
/// points of one sweep would collide on it; a dedicated export run sets it
/// back).
inline sim::Scenario anchored_base(const sim::Scenario& base, const sim::Anchors& anchors) {
  sim::Scenario s = sim::operating_point(base, anchors, kExtensionLoad);
  s.telemetry_out.clear();
  return s;
}

}  // namespace nocdvfs::bench
