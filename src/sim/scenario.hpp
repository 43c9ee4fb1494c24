#pragma once

/// \file scenario.hpp
/// The declarative experiment surface: one `Scenario` value describes a
/// complete run — workload (synthetic pattern / app task-graph / custom
/// traffic factory), DVFS policy, platform parameters and run phases —
/// and `run(scenario)` executes it. Every bench and example builds on
/// this type; `declare_keys` / `from_config` bind the whole surface to
/// `common::Config` so any scenario is expressible as `key=value`
/// overrides on the command line. One private table in scenario.cpp
/// declares, reads and range-checks every key, so `from_config` is the
/// inverse of `declare_keys` by construction, and `scenario_problem` is
/// the one validator every run passes through.
///
/// The paper's methodology is "each figure is a sweep over these
/// scenarios"; `sim/sweep.hpp` provides the cross-product sweep engine
/// on top of this type.

#include <functional>
#include <memory>
#include <string>

#include "apps/task_graph.hpp"
#include "common/config.hpp"
#include "dvfs/controller.hpp"
#include "sim/simulator.hpp"
#include "traffic/traffic_model.hpp"

namespace nocdvfs::sim {

enum class Policy { NoDvfs, Rmsd, RmsdClosed, Dmsd, Qbsd };

const char* to_string(Policy policy) noexcept;

/// Case-insensitive lookup; throws std::invalid_argument naming the
/// offending input and the valid set.
Policy policy_from_string(const std::string& name);

/// Policy parameters (only the fields relevant to the chosen policy are
/// read: lambda_max for RMSD, target/gains for DMSD).
struct PolicyConfig {
  Policy policy = Policy::NoDvfs;
  double lambda_max = 0.378;      ///< RMSD target network load (flits/noc-cycle/node)
  double target_delay_ns = 150.0; ///< DMSD delay target
  double ki = 0.025;              ///< paper's integral gain
  double kp = 0.0125;             ///< paper's proportional gain
  double occupancy_setpoint = 0.15;  ///< QBSD buffer-occupancy target (fraction)
};

std::unique_ptr<dvfs::DvfsController> make_controller(const PolicyConfig& cfg);

/// The task graph behind an app name; throws std::invalid_argument for
/// unknown names.
apps::TaskGraph app_graph(const std::string& app);

/// One fully specified experiment. Synthetic processes, app task graphs,
/// recorded packet traces and custom traffic factories are all states of
/// this single value type.
struct Scenario {
  enum class Workload { Synthetic, App, Trace, Custom };

  /// Builds the traffic model for a Custom-workload scenario. Called once
  /// per run, possibly concurrently from SweepRunner worker threads, so it
  /// must be a pure function of the scenario and its captures.
  using TrafficFactory =
      std::function<std::unique_ptr<traffic::TrafficModel>(const Scenario&)>;

  Workload workload = Workload::Synthetic;

  // --- synthetic workload (paper Secs. III–V) ---
  std::string pattern = "uniform";
  std::string process = "bernoulli";
  double lambda = 0.1;  ///< offered flits per node cycle per node
  double hotspot_fraction = 0.2;

  // --- app task-graph workload (paper Sec. VI) ---
  std::string app = "h264";    ///< "h264" (4×4) or "vce" (5×5)
  double speed = 1.0;          ///< relative to 75 frames/s
  double traffic_scale = 1.0;  ///< calibration multiplier on the rate matrix

  // --- trace replay workload (src/trace/) ---
  std::string trace_path;     ///< .noctrace file to replay (workload == Trace)
  double trace_scale = 1.0;   ///< replay time-warp; > 1 = higher offered load
  bool trace_loop = false;    ///< restart the stream when it ends

  // --- custom workload escape hatch ---
  TrafficFactory traffic_factory;  ///< required iff workload == Custom

  // --- recording (orthogonal to the workload) ---
  /// When non-empty, the run's injected packet stream is captured to this
  /// `.noctrace` file (any workload; see trace/recording_traffic.hpp).
  std::string record_path;

  // --- voltage–frequency islands (src/vfi/) ---
  /// Partition preset: global|rows|cols|quadrants|per_router|custom. Each
  /// island gets its own clock domain and DVFS controller instance;
  /// island-boundary links pay `network.cdc_sync_cycles` of synchronizer
  /// latency.
  std::string islands = "global";
  std::string island_map;        ///< node→island ids, row-major (islands=custom)
  /// Comma-separated per-island policy overrides ("rmsd,dmsd,..."); empty =
  /// every island runs `policy`. Must have exactly one entry per island.
  std::string island_policies;

  // --- telemetry / observability (src/obs/) ---
  /// `off` (default; bit-identical to a build without src/obs/), `windows`
  /// (per-window tile/node/island metrics + event timeline), or `full`
  /// (adds per-link columns).
  std::string telemetry = "off";
  /// Output basename for the exported timeline: the run writes
  /// `<telemetry_out>.json` (Perfetto/Chrome trace-event) and
  /// `<telemetry_out>.nocobs` (versioned binary, read by nocdvfs_report).
  /// Empty keeps the timeline in memory (RunResult::telemetry only).
  /// Inert when telemetry=off.
  std::string telemetry_out;
  /// `on` samples whole packet journeys into the flight recorder and
  /// exports them with the telemetry timeline — requires `telemetry=` to
  /// be non-off (the flights ride in the `.nocobs`/Perfetto files).
  std::string pkt_trace = "off";
  /// Sample 1 in N packets (deterministic in the packet id); >= 1.
  std::uint64_t pkt_trace_rate = 64;
  /// `on` profiles the *host*: RAII phase scopes around the simulator
  /// main-loop phases feed a per-thread tree (RunResult::host.profile,
  /// nocdvfs_report profile, the Perfetto "host" process). Host-side
  /// only — simulated metrics are bit-identical either way; `off` (the
  /// default) costs one predictable branch per scope.
  std::string prof = "off";
  /// `on` adds a host memory breakdown (flits in flight, timeline,
  /// histogram pools, trace buffers) to the run manifest as `mem.*`
  /// entries. Computed once at end of run; no hot-path counters.
  std::string mem = "off";

  // --- thermal model & throttling (src/thermal/, dvfs/thermal_guard.hpp) ---
  /// Enable the RC thermal network, temperature-dependent leakage and the
  /// hysteretic thermal throttle. Off (the default) reproduces the
  /// temperature-blind simulator bit-identically.
  bool thermal = false;
  double thermal_step_ns = 1000.0;  ///< RC integration step (explicit Euler)
  double temp_ambient_c = 45.0;     ///< ambient / package sink temperature
  double temp_cap_c = 85.0;         ///< throttle engages at this peak tile temp
  double temp_hysteresis_c = 2.0;   ///< throttle releases at cap − hysteresis
  double rc_vertical = 3000.0;      ///< tile → heat-spreader resistance [K/W]
  double rc_lateral = 6000.0;       ///< tile ↔ neighbour-tile resistance [K/W]
  double leak_temp_coeff = 0.04;    ///< leakage ∝ exp(coeff·(T − T_ref)) [1/K]

  // --- platform ---
  noc::NetworkConfig network{};  ///< defaults: 5×5, 8 VCs, 4 flits/VC, XY
  int packet_size = 20;          ///< flits per packet
  PolicyConfig policy{};
  std::uint64_t control_period = 10000;  ///< node cycles (paper: 10 000)
  common::Hertz f_node = 1e9;
  int vf_levels = 0;  ///< 0 = continuous frequency tuning, else discrete levels
  int flit_bits = 128;
  std::uint64_t seed = 1;
  /// Bound on each island's (t, F, V) actuation trace (most recent points
  /// kept); 0 = unbounded.
  std::uint64_t vf_trace_max = 0;
  RunPhases phases{};

  /// Register every scenario key on `c`, using `defaults` for the default
  /// values so a bench's base scenario round-trips through `--help`.
  static void declare_keys(common::Config& c, const Scenario& defaults);
  static void declare_keys(common::Config& c);

  /// Read every declared key back into a Scenario (the inverse of
  /// declare_keys; an integer outside its key's range throws
  /// std::invalid_argument naming the key and the range. `workload=custom`
  /// additionally needs a traffic_factory assigned by the caller before
  /// the scenario can run).
  static Scenario from_config(const common::Config& c);
};

const char* to_string(Scenario::Workload workload) noexcept;

/// Execute one scenario: assemble the simulator for its workload variant
/// and run the standard phase protocol.
RunResult run(const Scenario& scenario);

/// Build (but do not run) the simulator for a scenario — for callers that
/// need to poke at the network or clock between phases.
std::unique_ptr<Simulator> make_simulator(const Scenario& scenario);

/// Check a scenario, whether it was read from `key=value` text or built in
/// code. First every key's own range (an integer outside the range its
/// field is narrowed to, or an on/off key holding anything else), then the
/// cross-key rules: VF islands (preset, custom map and per-island policy
/// list against the *effective* mesh — an app workload pins its own
/// dimensions), thermal (with `thermal=on` only: step vs the explicit-Euler
/// stability bound, cap vs ambient, RC/coefficient ranges), topology
/// (dimensions and concentration legal for the kind, enough VCs for the
/// routing's deadlock-avoidance classes, a well-formed fault spec, thermal
/// only on the plain mesh, no island splitting a concentrated tile),
/// telemetry (mode name, `pkt_trace=on` needing a non-off mode, a rate of
/// at least 1), and the workload's inputs (`workload=synthetic` needs a
/// known pattern that fits the mesh and a known injection process,
/// `workload=trace` a trace file that opens and validates, `workload=custom`
/// a traffic_factory). Returns an empty string when the scenario is
/// runnable, else a human-readable description of the first problem.
/// `make_simulator` and `check_scenario` throw it; `SweepRunner` prefixes it
/// with the offending point/axis.
std::string scenario_problem(const Scenario& scenario);

/// Throws std::invalid_argument("Scenario: <problem>") when
/// scenario_problem finds one. Programs call it on the scenario their keys
/// describe, so a bad value is rejected before anything runs.
void check_scenario(const Scenario& scenario);

/// A workload's load axis: the one scenario field that carries its
/// offered load (`lambda` for synthetic traffic, `speed` for app task
/// graphs, the replay time-warp `trace_scale` for traces) and the λ
/// (flits/node-cycle/node) one unit of that field offers. Every axis is
/// linear in its field, so the inverse is one division.
struct LoadAxis {
  const char* name = "lambda";                  ///< the field's key
  double Scenario::*field = &Scenario::lambda;  ///< the field itself
  double lambda_per_unit = 1.0;                 ///< λ offered at field value 1.0

  double lambda_at(double value) const noexcept { return value * lambda_per_unit; }
  double value_at(double lambda) const noexcept { return lambda / lambda_per_unit; }
  /// Write the field value that offers `lambda`; throws
  /// std::invalid_argument when no value offers load (an empty capture,
  /// traffic_scale 0).
  void set(Scenario& scenario, double lambda) const;
};

/// The load axis of `scenario`'s workload, read at its other fields (app:
/// task graph, traffic_scale, packet_size, f_node; trace: the capture and
/// the scenario's mesh). Throws std::invalid_argument naming the workload
/// for custom workloads (only their traffic factory knows their load) and
/// for a trace workload without a path.
LoadAxis load_axis(const Scenario& scenario);

/// Nominal mean offered load (flits/node-cycle/node): the load field read
/// through `load_axis`. For app workloads this derives from the task-graph
/// rate matrix at the scenario's speed and traffic_scale; for trace
/// workloads it reads the trace file (total flits over the scaled span,
/// per target-mesh node).
double mean_lambda(const Scenario& scenario);

/// Make `scenario` offer `lambda` flits/node-cycle/node, whatever its
/// workload: the one place a load is written. Synthetic traffic gets
/// `lambda = lambda` bit for bit; app and trace workloads get the speed or
/// time-warp whose `mean_lambda` is `lambda`. Call it after any change to
/// the fields the axis reads (`anchored` rescales an app's traffic_scale).
/// Throws as `load_axis` and `LoadAxis::set` do.
void set_offered_lambda(Scenario& scenario, double lambda);

}  // namespace nocdvfs::sim
