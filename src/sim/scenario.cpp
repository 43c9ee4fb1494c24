#include "sim/scenario.hpp"

#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/app_graphs.hpp"
#include "common/strings.hpp"
#include "dvfs/dmsd.hpp"
#include "dvfs/qbsd.hpp"
#include "dvfs/rmsd.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "topo/fault_model.hpp"
#include "topo/routing_engine.hpp"
#include "topo/topology.hpp"
#include "trace/recording_traffic.hpp"
#include "trace/trace.hpp"
#include "trace/trace_traffic.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"
#include "vfi/island_map.hpp"

namespace nocdvfs::sim {

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::NoDvfs: return "nodvfs";
    case Policy::Rmsd: return "rmsd";
    case Policy::RmsdClosed: return "rmsd-closed";
    case Policy::Dmsd: return "dmsd";
    case Policy::Qbsd: return "qbsd";
  }
  return "?";
}

namespace {

constexpr Policy kAllPolicies[] = {Policy::NoDvfs, Policy::Rmsd, Policy::RmsdClosed,
                                   Policy::Dmsd, Policy::Qbsd};

}  // namespace

Policy policy_from_string(const std::string& name) {
  return common::from_name(name, kAllPolicies, "unknown policy");
}

std::unique_ptr<dvfs::DvfsController> make_controller(const PolicyConfig& cfg) {
  switch (cfg.policy) {
    case Policy::NoDvfs:
      return std::make_unique<dvfs::NoDvfsController>();
    case Policy::Rmsd: {
      dvfs::RmsdConfig rc;
      rc.lambda_max = cfg.lambda_max;
      rc.mode = dvfs::RmsdConfig::Mode::OpenLoop;
      return std::make_unique<dvfs::RmsdController>(rc);
    }
    case Policy::RmsdClosed: {
      dvfs::RmsdConfig rc;
      rc.lambda_max = cfg.lambda_max;
      rc.mode = dvfs::RmsdConfig::Mode::ClosedLoop;
      return std::make_unique<dvfs::RmsdController>(rc);
    }
    case Policy::Dmsd: {
      dvfs::DmsdConfig dc;
      dc.target_delay_ns = cfg.target_delay_ns;
      dc.ki = cfg.ki;
      dc.kp = cfg.kp;
      return std::make_unique<dvfs::DmsdController>(dc);
    }
    case Policy::Qbsd: {
      dvfs::QbsdConfig qc;
      qc.occupancy_setpoint = cfg.occupancy_setpoint;
      return std::make_unique<dvfs::QbsdController>(qc);
    }
  }
  throw std::invalid_argument("make_controller: unhandled policy");
}

apps::TaskGraph app_graph(const std::string& app) {
  if (app == "h264") return apps::h264_encoder();
  if (app == "vce") return apps::video_conference_encoder();
  throw std::invalid_argument("app_graph: unknown app '" + app + "' (use h264 or vce)");
}

const char* to_string(Scenario::Workload workload) noexcept {
  switch (workload) {
    case Scenario::Workload::Synthetic: return "synthetic";
    case Scenario::Workload::App: return "app";
    case Scenario::Workload::Trace: return "trace";
    case Scenario::Workload::Custom: return "custom";
  }
  return "?";
}

namespace {

Scenario::Workload workload_from_string(const std::string& name) {
  if (name == "synthetic") return Scenario::Workload::Synthetic;
  if (name == "app") return Scenario::Workload::App;
  if (name == "trace") return Scenario::Workload::Trace;
  if (name == "custom") return Scenario::Workload::Custom;
  throw std::invalid_argument("Scenario: unknown workload '" + name +
                              "' (valid: synthetic app trace custom)");
}

power::VfCurve make_curve(int vf_levels) {
  power::VfCurve curve = power::VfCurve::fdsoi28();
  if (vf_levels > 0) curve = curve.quantized(static_cast<std::size_t>(vf_levels));
  return curve;
}

std::unique_ptr<traffic::TrafficModel> make_traffic(const Scenario& s,
                                                    SimulatorConfig& sim_cfg) {
  switch (s.workload) {
    case Scenario::Workload::Synthetic: {
      noc::MeshTopology topo(s.network.width, s.network.height);
      traffic::SyntheticTrafficParams tp;
      tp.lambda = s.lambda;
      tp.packet_size = s.packet_size;
      tp.pattern = s.pattern;
      tp.process = s.process;
      tp.seed = s.seed;
      tp.hotspot_fraction = s.hotspot_fraction;
      return std::make_unique<traffic::SyntheticTraffic>(topo, tp);
    }
    case Scenario::Workload::App: {
      const apps::TaskGraph graph = app_graph(s.app);
      // The task graph pins the mesh; VC/buffer/routing knobs still apply.
      sim_cfg.network.width = graph.mesh_width();
      sim_cfg.network.height = graph.mesh_height();
      auto rates = graph.rate_matrix_pps(apps::kReferenceFps * s.speed);
      for (auto& row : rates) {
        for (double& r : row) r *= s.traffic_scale;
      }
      return std::make_unique<traffic::MatrixTraffic>(std::move(rates), s.packet_size,
                                                      s.f_node, s.seed);
    }
    case Scenario::Workload::Trace: {
      trace::TraceReplayOptions opt;
      opt.scale = s.trace_scale;
      opt.loop = s.trace_loop;
      // The scenario's mesh rules: the recorded stream is remapped onto it
      // (a no-op when the dimensions match the trace header).
      opt.mesh_width = s.network.width;
      opt.mesh_height = s.network.height;
      return std::make_unique<trace::TraceTraffic>(s.trace_path, opt);
    }
    case Scenario::Workload::Custom:
      return s.traffic_factory(s);
  }
  throw std::invalid_argument("Scenario: unhandled workload variant");
}

/// Mesh the run will actually use: an app workload pins its own dimensions.
std::pair<int, int> effective_mesh_dims(const Scenario& s) {
  if (s.workload == Scenario::Workload::App) {
    const apps::TaskGraph graph = app_graph(s.app);
    return {graph.mesh_width(), graph.mesh_height()};
  }
  return {s.network.width, s.network.height};
}

std::vector<std::unique_ptr<dvfs::DvfsController>> make_island_controllers(
    const Scenario& s, int num_islands) {
  const std::vector<std::string> names = common::split_csv(s.island_policies);
  std::vector<std::unique_ptr<dvfs::DvfsController>> out;
  out.reserve(static_cast<std::size_t>(num_islands));
  for (int i = 0; i < num_islands; ++i) {
    PolicyConfig pc = s.policy;
    if (!names.empty()) pc.policy = policy_from_string(names[static_cast<std::size_t>(i)]);
    out.push_back(make_controller(pc));
  }
  return out;
}

thermal::ThermalParams thermal_params_from(const Scenario& s) {
  thermal::ThermalParams p;
  p.ambient_c = s.temp_ambient_c;
  p.rc_vertical_k_per_w = s.rc_vertical;
  p.rc_lateral_k_per_w = s.rc_lateral;
  p.leak_temp_coeff_per_k = s.leak_temp_coeff;
  return p;
}

common::Picoseconds thermal_step_ps_from(const Scenario& s) {
  return static_cast<common::Picoseconds>(s.thermal_step_ns * 1000.0 + 0.5);
}

// ---- the key table ----------------------------------------------------------

/// Where a key's value lives in a Scenario.
template <typename T>
using Field = T& (*)(Scenario&);

/// Reads a field of a const Scenario through its accessor.
template <typename T>
const T& value_of(Field<T> field, const Scenario& s) {
  return field(const_cast<Scenario&>(s));
}

/// One scenario key: its name and help text, its value as Config text, how
/// Config text is read back into a Scenario, and the check a Scenario's own
/// value gets (empty when every value of the field's type is legal).
struct Key {
  const char* name;
  const char* help;
  std::function<std::string(const Scenario&)> text;
  std::function<void(Scenario&, const common::Config&)> read;
  std::function<std::string(const Scenario&)> problem;
};

Key text_key(const char* name, Field<std::string> f, const char* help) {
  return {name, help, [f](const Scenario& s) { return value_of(f, s); },
          [=](Scenario& s, const common::Config& c) { f(s) = c.get_string(name); }, {}};
}

/// A string field that must read "on" or "off".
Key on_off_key(const char* name, Field<std::string> f, const char* help) {
  Key k = text_key(name, f, help);
  k.problem = [=](const Scenario& s) -> std::string {
    const std::string& v = value_of(f, s);
    if (v == "on" || v == "off") return "";
    return std::string(name) + "= must be on or off (got " + name + "=" + v + ")";
  };
  return k;
}

Key double_key(const char* name, Field<double> f, const char* help) {
  return {name, help, [f](const Scenario& s) { return common::format_double(value_of(f, s)); },
          [=](Scenario& s, const common::Config& c) { f(s) = c.get_double(name); }, {}};
}

Key bool_key(const char* name, Field<bool> f, const char* help) {
  return {name, help, [f](const Scenario& s) { return value_of(f, s) ? "true" : "false"; },
          [=](Scenario& s, const common::Config& c) { f(s) = c.get_bool(name); }, {}};
}

/// An enum field written by name.
template <typename E>
Key named_key(const char* name, Field<E> f, const char* (*to_text)(E),
              E (*parse)(const std::string&), const char* help) {
  return {name, help, [=](const Scenario& s) { return std::string(to_text(value_of(f, s))); },
          [=](Scenario& s, const common::Config& c) { f(s) = parse(c.get_string(name)); }, {}};
}

/// An integer field narrowed on read. A value outside [lo, hi] is an error
/// naming the key and the range, never a wrapped one, whether it arrives as
/// Config text or was set on the Scenario in code.
template <typename T>
Key ranged_key(const char* name, Field<T> f, std::int64_t lo, std::int64_t hi,
               const char* help) {
  return {name, help, [f](const Scenario& s) { return std::to_string(value_of(f, s)); },
          [=](Scenario& s, const common::Config& c) {
            f(s) = static_cast<T>(c.get_int_in(name, lo, hi));
          },
          [=](const Scenario& s) -> std::string {
            const T v = value_of(f, s);
            if (std::cmp_greater_equal(v, lo) && std::cmp_less_equal(v, hi)) return "";
            return "key '" + std::string(name) + "' value " + std::to_string(v) +
                   " is outside [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
          }};
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

Key int_key(const char* name, Field<int> f, std::int64_t lo, std::int64_t hi,
            const char* help) {
  return ranged_key<int>(name, f, lo, hi, help);
}

/// Non-negative counts and seeds (a negative one would wrap to ~2^64).
Key count_key(const char* name, Field<std::uint64_t> f, const char* help) {
  return ranged_key<std::uint64_t>(name, f, 0, std::numeric_limits<std::int64_t>::max(), help);
}

#define FIELD(member) [](Scenario& s) -> auto& { return s.member; }

/// Every scenario key, in the order they are read and checked.
const std::vector<Key>& keys() {
  static const std::vector<Key> table = {
      named_key<Scenario::Workload>("workload", FIELD(workload), to_string,
                                    workload_from_string, "synthetic|app|trace|custom"),

      text_key("pattern", FIELD(pattern), "synthetic traffic pattern"),
      text_key("process", FIELD(process), "injection process (bernoulli|onoff)"),
      double_key("lambda", FIELD(lambda), "offered flits per node cycle per node"),
      double_key("hotspot_fraction", FIELD(hotspot_fraction),
                 "traffic share of the hotspot (pattern=hotspot)"),

      text_key("app", FIELD(app), "task-graph app: h264 (4x4) or vce (5x5)"),
      double_key("speed", FIELD(speed), "app speed relative to 75 fps"),
      double_key("traffic_scale", FIELD(traffic_scale), "rate-matrix calibration multiplier"),

      text_key("trace", FIELD(trace_path), ".noctrace file to replay (workload=trace)"),
      double_key("trace_scale", FIELD(trace_scale),
                 "replay time-warp factor (>1 = higher offered load)"),
      bool_key("trace_loop", FIELD(trace_loop), "loop the trace when it ends"),
      text_key("record", FIELD(record_path),
               "capture this run's injected packets to a .noctrace file"),

      text_key("telemetry", FIELD(telemetry),
               "observability: off|windows|full (full adds per-link columns)"),
      text_key("telemetry_out", FIELD(telemetry_out),
               "timeline output basename (writes <base>.json + <base>.nocobs)"),
      on_off_key("pkt_trace", FIELD(pkt_trace),
                 "packet flight recorder: on|off (needs telemetry != off)"),
      count_key("pkt_trace_rate", FIELD(pkt_trace_rate),
                "sample 1 in N packets (deterministic in the packet id)"),
      on_off_key("prof", FIELD(prof),
                 "host phase profiler: on|off (host-side only; metrics-invisible)"),
      on_off_key("mem", FIELD(mem), "host memory breakdown in the run manifest: on|off"),

      bool_key("thermal", FIELD(thermal),
               "enable the RC thermal model, T-dependent leakage and throttling"),
      double_key("thermal_step_ns", FIELD(thermal_step_ns),
                 "RC integration step in ns (explicit Euler)"),
      double_key("temp_ambient_c", FIELD(temp_ambient_c), "ambient sink temperature"),
      double_key("temp_cap_c", FIELD(temp_cap_c),
                 "throttle engages at this peak tile temperature"),
      double_key("temp_hysteresis_c", FIELD(temp_hysteresis_c),
                 "throttle releases at temp_cap_c - hysteresis"),
      double_key("rc_vertical", FIELD(rc_vertical), "tile->spreader resistance in K/W"),
      double_key("rc_lateral", FIELD(rc_lateral), "tile<->neighbor-tile resistance in K/W"),
      double_key("leak_temp_coeff", FIELD(leak_temp_coeff),
                 "leakage-temperature coefficient in 1/K (exp(k*(T-Tref)))"),

      text_key("islands", FIELD(islands),
               "VF-island partition: global|rows|cols|quadrants|per_router|custom"),
      text_key("island_map", FIELD(island_map),
               "node->island ids, comma-separated row-major (islands=custom)"),
      int_key("cdc_sync_cycles", FIELD(network.cdc_sync_cycles), 0, kIntMax,
              "synchronizer cycles on island-boundary links"),
      text_key("island_policies", FIELD(island_policies),
               "per-island policy overrides, comma-separated (one per island)"),

      int_key("width", FIELD(network.width), 1, kIntMax, "mesh width"),
      int_key("height", FIELD(network.height), 1, kIntMax, "mesh height"),
      named_key<topo::TopologyKind>("topology", FIELD(network.topology), topo::to_string,
                                    topo::topology_kind_from_string,
                                    "physical topology: mesh|torus|cmesh|dragonfly"),
      named_key<noc::RoutingAlgo>("routing", FIELD(network.routing), noc::to_string,
                                  noc::routing_algo_from_string,
                                  "routing algorithm: xy|yx|adaptive|ugal"),
      int_key("concentration", FIELD(network.concentration), 1, kIntMax,
              "NIs per router (cmesh: 2 or 4; dragonfly: >= 1; else 1)"),
      text_key("faults", FIELD(network.faults),
               "fault injection: links:K[@CYCLE]+routers:K[@CYCLE], or off"),
      count_key("fault_seed", FIELD(network.fault_seed), "RNG seed for fault site selection"),
      int_key("vcs", FIELD(network.num_vcs), 1, noc::kMaxVcs,
              "virtual channels per port (1..64)"),
      int_key("bufs", FIELD(network.vc_buffer_depth), 1, noc::kMaxVcBufferDepth,
              "flit buffers per VC (1..255)"),
      int_key("link_latency", FIELD(network.link_latency), 1, kIntMax,
              "inter-router link cycles"),
      // Flit::packet_size and the NI queue hold the size in 16 bits.
      int_key("packet", FIELD(packet_size), 1, std::numeric_limits<std::uint16_t>::max(),
              "flits per packet (1..65535)"),

      named_key<Policy>("policy", FIELD(policy.policy), to_string, policy_from_string,
                        "nodvfs|rmsd|rmsd-closed|dmsd|qbsd"),
      double_key("lambda_max", FIELD(policy.lambda_max),
                 "RMSD target load (flits/noc-cycle/node)"),
      double_key("target_delay_ns", FIELD(policy.target_delay_ns), "DMSD delay target"),
      double_key("ki", FIELD(policy.ki), "DMSD integral gain"),
      double_key("kp", FIELD(policy.kp), "DMSD proportional gain"),
      double_key("occupancy_setpoint", FIELD(policy.occupancy_setpoint),
                 "QBSD buffer-occupancy target (fraction)"),

      count_key("control_period", FIELD(control_period),
                "control update period in node cycles"),
      double_key("f_node", FIELD(f_node), "node clock in Hz"),
      int_key("vf_levels", FIELD(vf_levels), 0, kIntMax, "discrete V/F levels (0 = continuous)"),
      int_key("flit_bits", FIELD(flit_bits), 1, kIntMax, "flit width in bits"),
      count_key("seed", FIELD(seed), "random seed"),
      count_key("vf_trace_max", FIELD(vf_trace_max),
                "keep only the most recent N actuation-trace points (0 = unbounded)"),

      count_key("warmup", FIELD(phases.warmup_node_cycles), "warmup node cycles"),
      count_key("measure", FIELD(phases.measure_node_cycles), "measurement node cycles"),
      bool_key("adaptive_warmup", FIELD(phases.adaptive_warmup),
               "extend warmup until the controller settles"),
      count_key("max_warmup", FIELD(phases.max_warmup_node_cycles),
                "adaptive warmup bound in node cycles"),
  };
  return table;
}

#undef FIELD

/// The checks behind scenario_problem. The island map they resolve is left
/// in `map`, so make_simulator builds it only once.
std::string problem_of(const Scenario& s, vfi::IslandMap& map) {
  for (const Key& key : keys()) {
    if (!key.problem) continue;
    if (std::string problem = key.problem(s); !problem.empty()) return problem;
  }
  std::ostringstream os;
  try {
    const auto [width, height] = effective_mesh_dims(s);

    // VF islands: preset, custom map and per-island policies, resolved
    // against the mesh the run will actually use.
    const vfi::Preset preset =
        common::parse_key_value("islands", s.islands, vfi::preset_from_string);
    if (preset != vfi::Preset::Custom && !s.island_map.empty()) {
      return "island_map= is only read with islands=custom (got islands=" + s.islands + ")";
    }
    map = vfi::IslandMap::build(preset, width, height, s.island_map);
    const std::vector<std::string> names = common::split_csv(s.island_policies);
    if (!names.empty() && static_cast<int>(names.size()) != map.num_islands()) {
      return "island_policies lists " + std::to_string(names.size()) + " policies but the '" +
             s.islands + "' partition has " + std::to_string(map.num_islands()) + " islands";
    }
    for (const std::string& name : names) {
      common::parse_key_value("island_policies", name, policy_from_string);
    }

    // Thermal: the keys are inert with thermal=off and never rejected then.
    if (s.thermal) {
      if (!(s.thermal_step_ns > 0.0)) return "thermal_step_ns must be > 0";
      if (!(s.rc_vertical > 0.0)) return "rc_vertical must be > 0 (K/W)";
      if (!(s.rc_lateral > 0.0)) return "rc_lateral must be > 0 (K/W)";
      if (s.leak_temp_coeff < 0.0) return "leak_temp_coeff must be >= 0 (1/K)";
      if (s.temp_hysteresis_c < 0.0) return "temp_hysteresis_c must be >= 0";
      if (!(s.temp_cap_c > s.temp_ambient_c)) {
        os << "temp_cap_c (" << s.temp_cap_c << ") must exceed temp_ambient_c ("
           << s.temp_ambient_c << ")";
        return os.str();
      }
      if (!(s.temp_cap_c - s.temp_hysteresis_c > s.temp_ambient_c)) {
        // Tiles can never cool below ambient, so a release point at or below
        // it would latch the throttle on permanently after one engagement.
        os << "temp_cap_c - temp_hysteresis_c (" << s.temp_cap_c - s.temp_hysteresis_c
           << ") must exceed temp_ambient_c (" << s.temp_ambient_c
           << "): the release point is unreachable and the throttle would latch on";
        return os.str();
      }
      const double bound_s =
          thermal::ThermalModel::stability_bound_s(width, height, thermal_params_from(s));
      const double step_s =
          static_cast<double>(thermal_step_ps_from(s)) / common::kPicosPerSecond;
      if (step_s > bound_s) {
        os << "thermal_step_ns=" << s.thermal_step_ns
           << " exceeds the explicit-Euler stability bound of " << bound_s * 1e9
           << " ns for the " << width << "x" << height
           << " mesh (lower the step or raise the RC constants)";
        return os.str();
      }
    }

    // Topology, routing and faults.
    const std::unique_ptr<topo::Topology> topo =
        topo::Topology::make(s.network.topology, width, height, s.network.concentration);
    const int need = topo::RoutingEngine::required_vcs(*topo, s.network.routing);
    if (s.network.num_vcs < need) {
      return std::string("routing=") + noc::to_string(s.network.routing) + " on topology=" +
             topo::to_string(topo->kind()) + " needs at least " + std::to_string(need) +
             " virtual channels for its deadlock-avoidance classes (vcs=" +
             std::to_string(s.network.num_vcs) + ")";
    }
    if (const std::string problem = topo::FaultModel::spec_problem(s.network.faults);
        !problem.empty()) {
      return problem;
    }
    if (s.thermal && (s.network.topology != topo::TopologyKind::Mesh ||
                      s.network.concentration != 1)) {
      return std::string("thermal=on models the plain mesh tile grid (got topology=") +
             topo::to_string(s.network.topology) +
             " concentration=" + std::to_string(s.network.concentration) + ")";
    }
    if (topo->concentration() > 1 && map.num_islands() > 1) {
      // A clock island must hold whole tiles: the router and every NI
      // behind it share one domain (Network enforces this too; catching it
      // here names the offending tile before construction).
      const std::vector<int>& assign = map.assignment();
      std::vector<int> tile_island(static_cast<std::size_t>(topo->num_routers()), -1);
      for (noc::NodeId id = 0; id < topo->num_nodes(); ++id) {
        const auto r = static_cast<std::size_t>(topo->router_of(id));
        const int isl = assign[static_cast<std::size_t>(id)];
        if (tile_island[r] == -1) {
          tile_island[r] = isl;
        } else if (tile_island[r] != isl) {
          return "islands=" + s.islands + " splits tile " + std::to_string(topo->router_of(id)) +
                 " (concentration=" + std::to_string(topo->concentration()) +
                 "): a router and all its NIs must share one island";
        }
      }
    }

    // Telemetry.
    obs::telemetry_mode_from_string(s.telemetry);
    if (s.pkt_trace == "on" && s.telemetry == "off") {
      return "pkt_trace=on needs telemetry=windows or telemetry=full (the sampled "
             "flights are exported with the telemetry timeline)";
    }
    if (s.pkt_trace_rate < 1) return "pkt_trace_rate must be >= 1";

    // Workload inputs: the synthetic pattern and process names (and the
    // pattern's fit to the mesh), and a trace file that opens and validates.
    if (s.workload == Scenario::Workload::Synthetic) {
      traffic::TrafficPattern::create(s.pattern, noc::MeshTopology(width, height), s.seed,
                                      s.hotspot_fraction);
      traffic::InjectionProcess::create(s.process, 0.0);
    }
    if (s.workload == Scenario::Workload::Trace) {
      if (s.trace_path.empty()) {
        return "workload=trace but no trace file is set (assign trace=<path.noctrace> or "
               "Scenario::trace_path)";
      }
      trace::TraceReader reader(s.trace_path);
    }
    if (s.workload == Scenario::Workload::Custom && !s.traffic_factory) {
      return "workload=custom but no traffic_factory is set (assign "
             "Scenario::traffic_factory, or install one per point via SweepAxis::custom)";
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

}  // namespace

std::string scenario_problem(const Scenario& s) {
  vfi::IslandMap map;
  return problem_of(s, map);
}

void check_scenario(const Scenario& s) {
  if (const std::string problem = scenario_problem(s); !problem.empty()) {
    throw std::invalid_argument("Scenario: " + problem);
  }
}

void Scenario::declare_keys(common::Config& c) { declare_keys(c, Scenario{}); }

void Scenario::declare_keys(common::Config& c, const Scenario& d) {
  for (const Key& key : keys()) c.declare(key.name, key.text(d), key.help);
}

Scenario Scenario::from_config(const common::Config& c) {
  Scenario s;
  for (const Key& key : keys()) key.read(s, c);
  return s;
}

std::unique_ptr<Simulator> make_simulator(const Scenario& s) {
  vfi::IslandMap map;
  if (const std::string problem = problem_of(s, map); !problem.empty()) {
    throw std::invalid_argument("Scenario: " + problem);
  }

  SimulatorConfig sim_cfg;
  sim_cfg.network = s.network;
  sim_cfg.f_node = s.f_node;
  sim_cfg.control_period_node_cycles = s.control_period;
  sim_cfg.flit_bits = s.flit_bits;
  sim_cfg.vf_trace_max = static_cast<std::size_t>(s.vf_trace_max);
  sim_cfg.telemetry.mode = obs::telemetry_mode_from_string(s.telemetry);
  // telemetry_out= is inert with telemetry=off (the thermal-key pattern).
  if (sim_cfg.telemetry.enabled()) sim_cfg.telemetry.out_base = s.telemetry_out;
  sim_cfg.pkt_trace = s.pkt_trace == "on" && sim_cfg.telemetry.enabled();
  sim_cfg.pkt_trace_rate = s.pkt_trace_rate;
  sim_cfg.prof = s.prof == "on";
  sim_cfg.mem = s.mem == "on";
  {
    // Dump the full declared scenario surface for the run-provenance
    // manifest: these keys + the seed are sufficient to re-run the point.
    common::Config mc;
    Scenario::declare_keys(mc, s);
    sim_cfg.manifest_keys = mc.kv_pairs();
  }
  if (s.thermal) {
    sim_cfg.thermal.enabled = true;
    sim_cfg.thermal.params = thermal_params_from(s);
    sim_cfg.thermal.step_ps = thermal_step_ps_from(s);
    sim_cfg.thermal.guard.temp_cap_c = s.temp_cap_c;
    sim_cfg.thermal.guard.hysteresis_c = s.temp_hysteresis_c;
    // Keep the energy model's Arrhenius factor in lockstep with the RC
    // integration so leakage_scale(vdd, temp) matches the charged energy.
    sim_cfg.energy_params.leak_temp_coeff_per_k = s.leak_temp_coeff;
  }

  std::unique_ptr<traffic::TrafficModel> traffic_model = make_traffic(s, sim_cfg);
  if (!s.record_path.empty()) {
    // The header mesh is the one the run actually uses (an app workload
    // may have re-pinned sim_cfg.network above).
    trace::TraceHeader header;
    header.width = static_cast<std::uint16_t>(sim_cfg.network.width);
    header.height = static_cast<std::uint16_t>(sim_cfg.network.height);
    header.flit_bits = static_cast<std::uint32_t>(s.flit_bits);
    header.f_node_hz = s.f_node;
    traffic_model = std::make_unique<trace::RecordingTraffic>(
        std::move(traffic_model),
        std::make_unique<trace::TraceWriter>(s.record_path, header));
  }

  // The validator resolved the island partition against the mesh the run
  // actually uses. A single-island partition keeps the empty assignment —
  // the pre-VFI fast path.
  if (map.num_islands() > 1) sim_cfg.network.island_of = map.assignment();

  return std::make_unique<Simulator>(sim_cfg, std::move(traffic_model),
                                     make_island_controllers(s, map.num_islands()),
                                     make_curve(s.vf_levels));
}

RunResult run(const Scenario& scenario) {
  return make_simulator(scenario)->run(scenario.phases);
}

void LoadAxis::set(Scenario& scenario, double lambda) const {
  if (!(lambda_per_unit > 0.0)) {
    throw std::invalid_argument(std::string("set_offered_lambda: no value of ") + name +
                                " offers any load");
  }
  scenario.*field = value_at(lambda);
}

LoadAxis load_axis(const Scenario& scenario) {
  LoadAxis axis;
  switch (scenario.workload) {
    case Scenario::Workload::Synthetic:
      return axis;
    case Scenario::Workload::App: {
      const apps::TaskGraph graph = app_graph(scenario.app);
      axis.name = "speed";
      axis.field = &Scenario::speed;
      axis.lambda_per_unit =
          scenario.traffic_scale *
          graph.mean_lambda(apps::kReferenceFps, scenario.packet_size, scenario.f_node);
      return axis;
    }
    case Scenario::Workload::Trace: {
      if (scenario.trace_path.empty()) {
        throw std::invalid_argument("workload=trace requires trace=<path>");
      }
      axis.name = "trace_scale";
      axis.field = &Scenario::trace_scale;
      axis.lambda_per_unit = trace::Trace::load(scenario.trace_path)
                                 .mean_lambda(scenario.network.width * scenario.network.height);
      return axis;
    }
    case Scenario::Workload::Custom:
      break;
  }
  throw std::invalid_argument(std::string("workload=") + to_string(scenario.workload) +
                              " has no declarative load axis (its traffic factory sets the load)");
}

double mean_lambda(const Scenario& scenario) {
  const LoadAxis axis = load_axis(scenario);
  return axis.lambda_at(scenario.*axis.field);
}

void set_offered_lambda(Scenario& scenario, double lambda) {
  load_axis(scenario).set(scenario, lambda);
}

}  // namespace nocdvfs::sim
