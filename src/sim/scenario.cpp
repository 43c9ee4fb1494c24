#include "sim/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>
#include <stdexcept>

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
#include "trace/trace_traffic.hpp"
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

std::string to_lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  return out;
}

}  // namespace

Policy policy_from_string(const std::string& name) {
  const std::string lowered = to_lower(name);
  for (const Policy p : kAllPolicies) {
    if (lowered == to_string(p)) return p;
  }
  std::ostringstream os;
  os << "policy_from_string: unknown policy '" << name << "' (valid:";
  for (const Policy p : kAllPolicies) os << ' ' << to_string(p);
  os << ')';
  throw std::invalid_argument(os.str());
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
      if (s.trace_path.empty()) {
        throw std::invalid_argument(
            "Scenario: workload=trace requires trace=<path.noctrace>");
      }
      trace::TraceReplayOptions opt;
      opt.scale = s.trace_scale;
      opt.loop = s.trace_loop;
      // The scenario's mesh rules: the recorded stream is remapped onto it
      // (a no-op when the dimensions match the trace header).
      opt.mesh_width = s.network.width;
      opt.mesh_height = s.network.height;
      return std::make_unique<trace::TraceTraffic>(s.trace_path, opt);
    }
    case Scenario::Workload::Custom: {
      if (!s.traffic_factory) {
        throw std::invalid_argument(
            "Scenario: workload=custom requires a traffic_factory (assign "
            "Scenario::traffic_factory before running)");
      }
      return s.traffic_factory(s);
    }
  }
  throw std::invalid_argument("Scenario: unhandled workload variant");
}

}  // namespace

namespace {

/// "" when the per-island policy list fits the partition, else the error
/// both the validator and the controller factory report.
std::string island_policy_list_problem(const std::vector<std::string>& names,
                                       const std::string& islands_name, int num_islands) {
  if (names.empty() || static_cast<int>(names.size()) == num_islands) return "";
  return "island_policies lists " + std::to_string(names.size()) + " policies but the '" +
         islands_name + "' partition has " + std::to_string(num_islands) + " islands";
}

/// Mesh the run will actually use: an app workload pins its own dimensions.
std::pair<int, int> effective_mesh_dims(const Scenario& s) {
  if (s.workload == Scenario::Workload::App) {
    const apps::TaskGraph graph = app_graph(s.app);
    return {graph.mesh_width(), graph.mesh_height()};
  }
  return {s.network.width, s.network.height};
}

vfi::IslandMap build_island_map(const Scenario& s, int width, int height) {
  return vfi::IslandMap::build(vfi::preset_from_string(s.islands), width, height,
                               s.island_map);
}

std::vector<std::unique_ptr<dvfs::DvfsController>> make_island_controllers(
    const Scenario& s, int num_islands) {
  const std::vector<std::string> names = common::split_csv(s.island_policies);
  if (const std::string problem = island_policy_list_problem(names, s.islands, num_islands);
      !problem.empty()) {
    throw std::invalid_argument(problem);
  }
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

}  // namespace

std::string island_config_problem(const Scenario& s) {
  try {
    if (s.network.cdc_sync_cycles < 0) return "cdc_sync_cycles must be >= 0";
    const vfi::Preset preset = vfi::preset_from_string(s.islands);
    if (preset != vfi::Preset::Custom && !s.island_map.empty()) {
      return "island_map= is only read with islands=custom (got islands=" + s.islands + ")";
    }
    const auto [width, height] = effective_mesh_dims(s);
    const vfi::IslandMap map = vfi::IslandMap::build(preset, width, height, s.island_map);
    const std::vector<std::string> names = common::split_csv(s.island_policies);
    if (const std::string problem =
            island_policy_list_problem(names, s.islands, map.num_islands());
        !problem.empty()) {
      return problem;
    }
    for (const std::string& name : names) policy_from_string(name);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::string topo_config_problem(const Scenario& s) {
  try {
    const auto [width, height] = effective_mesh_dims(s);
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
    if (topo->concentration() > 1) {
      // A clock island must hold whole tiles: the router and every NI
      // behind it share one domain (Network enforces this too; catching it
      // here names the offending tile before construction).
      const vfi::IslandMap map = build_island_map(s, width, height);
      if (map.num_islands() > 1) {
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
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::string telemetry_config_problem(const Scenario& s) {
  try {
    obs::telemetry_mode_from_string(s.telemetry);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (s.pkt_trace != "on" && s.pkt_trace != "off") {
    return "pkt_trace= must be on or off (got pkt_trace=" + s.pkt_trace + ")";
  }
  if (s.pkt_trace == "on" && s.telemetry == "off") {
    return "pkt_trace=on needs telemetry=windows or telemetry=full (the sampled "
           "flights are exported with the telemetry timeline)";
  }
  if (s.pkt_trace_rate < 1) return "pkt_trace_rate must be >= 1";
  if (s.prof != "on" && s.prof != "off") {
    return "prof= must be on or off (got prof=" + s.prof + ")";
  }
  if (s.mem != "on" && s.mem != "off") {
    return "mem= must be on or off (got mem=" + s.mem + ")";
  }
  return "";
}

std::string thermal_config_problem(const Scenario& s) {
  if (!s.thermal) return "";  // keys are inert with thermal=off
  std::ostringstream os;
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
  try {
    const auto [width, height] = effective_mesh_dims(s);
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
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

void Scenario::declare_keys(common::Config& c) { declare_keys(c, Scenario{}); }

void Scenario::declare_keys(common::Config& c, const Scenario& d) {
  c.declare("workload", to_string(d.workload), "synthetic|app|trace|custom");

  c.declare("pattern", d.pattern, "synthetic traffic pattern");
  c.declare("process", d.process, "injection process (bernoulli|onoff)");
  c.declare_double("lambda", d.lambda, "offered flits per node cycle per node");
  c.declare_double("hotspot_fraction", d.hotspot_fraction,
                   "traffic share of the hotspot (pattern=hotspot)");

  c.declare("app", d.app, "task-graph app: h264 (4x4) or vce (5x5)");
  c.declare_double("speed", d.speed, "app speed relative to 75 fps");
  c.declare_double("traffic_scale", d.traffic_scale, "rate-matrix calibration multiplier");

  c.declare("trace", d.trace_path, ".noctrace file to replay (workload=trace)");
  c.declare_double("trace_scale", d.trace_scale,
                   "replay time-warp factor (>1 = higher offered load)");
  c.declare_bool("trace_loop", d.trace_loop, "loop the trace when it ends");
  c.declare("record", d.record_path,
            "capture this run's injected packets to a .noctrace file");

  c.declare("telemetry", d.telemetry,
            "observability: off|windows|full (full adds per-link columns)");
  c.declare("telemetry_out", d.telemetry_out,
            "timeline output basename (writes <base>.json + <base>.nocobs)");
  c.declare("pkt_trace", d.pkt_trace,
            "packet flight recorder: on|off (needs telemetry != off)");
  c.declare_int("pkt_trace_rate", static_cast<std::int64_t>(d.pkt_trace_rate),
                "sample 1 in N packets (deterministic in the packet id)");
  c.declare("prof", d.prof,
            "host phase profiler: on|off (host-side only; metrics-invisible)");
  c.declare("mem", d.mem,
            "host memory breakdown in the run manifest: on|off");

  c.declare_bool("thermal", d.thermal,
                 "enable the RC thermal model, T-dependent leakage and throttling");
  c.declare_double("thermal_step_ns", d.thermal_step_ns,
                   "RC integration step in ns (explicit Euler)");
  c.declare_double("temp_ambient_c", d.temp_ambient_c, "ambient sink temperature");
  c.declare_double("temp_cap_c", d.temp_cap_c,
                   "throttle engages at this peak tile temperature");
  c.declare_double("temp_hysteresis_c", d.temp_hysteresis_c,
                   "throttle releases at temp_cap_c - hysteresis");
  c.declare_double("rc_vertical", d.rc_vertical, "tile->spreader resistance in K/W");
  c.declare_double("rc_lateral", d.rc_lateral, "tile<->neighbor-tile resistance in K/W");
  c.declare_double("leak_temp_coeff", d.leak_temp_coeff,
                   "leakage-temperature coefficient in 1/K (exp(k*(T-Tref)))");

  c.declare("islands", d.islands,
            "VF-island partition: global|rows|cols|quadrants|per_router|custom");
  c.declare("island_map", d.island_map,
            "node->island ids, comma-separated row-major (islands=custom)");
  c.declare_int("cdc_sync_cycles", d.network.cdc_sync_cycles,
                "synchronizer cycles on island-boundary links");
  c.declare("island_policies", d.island_policies,
            "per-island policy overrides, comma-separated (one per island)");

  c.declare_int("width", d.network.width, "mesh width");
  c.declare_int("height", d.network.height, "mesh height");
  c.declare("topology", topo::to_string(d.network.topology),
            "physical topology: mesh|torus|cmesh|dragonfly");
  c.declare("routing", noc::to_string(d.network.routing),
            "routing algorithm: xy|yx|adaptive|ugal");
  c.declare_int("concentration", d.network.concentration,
                "NIs per router (cmesh: 2 or 4; dragonfly: >= 1; else 1)");
  c.declare("faults", d.network.faults,
            "fault injection: links:K[@CYCLE]+routers:K[@CYCLE], or off");
  c.declare_int("fault_seed", static_cast<std::int64_t>(d.network.fault_seed),
                "RNG seed for fault site selection");
  c.declare_int("vcs", d.network.num_vcs, "virtual channels per port (1..64)");
  c.declare_int("bufs", d.network.vc_buffer_depth, "flit buffers per VC (1..255)");
  c.declare_int("link_latency", d.network.link_latency, "inter-router link cycles");
  c.declare_int("packet", d.packet_size, "flits per packet (1..65535)");

  c.declare("policy", to_string(d.policy.policy), "nodvfs|rmsd|rmsd-closed|dmsd|qbsd");
  c.declare_double("lambda_max", d.policy.lambda_max,
                   "RMSD target load (flits/noc-cycle/node)");
  c.declare_double("target_delay_ns", d.policy.target_delay_ns, "DMSD delay target");
  c.declare_double("ki", d.policy.ki, "DMSD integral gain");
  c.declare_double("kp", d.policy.kp, "DMSD proportional gain");
  c.declare_double("occupancy_setpoint", d.policy.occupancy_setpoint,
                   "QBSD buffer-occupancy target (fraction)");

  c.declare_int("control_period", static_cast<std::int64_t>(d.control_period),
                "control update period in node cycles");
  c.declare_double("f_node", d.f_node, "node clock in Hz");
  c.declare_int("vf_levels", d.vf_levels, "discrete V/F levels (0 = continuous)");
  c.declare_int("flit_bits", d.flit_bits, "flit width in bits");
  c.declare_int("seed", static_cast<std::int64_t>(d.seed), "random seed");
  c.declare_int("vf_trace_max", static_cast<std::int64_t>(d.vf_trace_max),
                "keep only the most recent N actuation-trace points (0 = unbounded)");

  c.declare_int("warmup", static_cast<std::int64_t>(d.phases.warmup_node_cycles),
                "warmup node cycles");
  c.declare_int("measure", static_cast<std::int64_t>(d.phases.measure_node_cycles),
                "measurement node cycles");
  c.declare_bool("adaptive_warmup", d.phases.adaptive_warmup,
                 "extend warmup until the controller settles");
  c.declare_int("max_warmup", static_cast<std::int64_t>(d.phases.max_warmup_node_cycles),
                "adaptive warmup bound in node cycles");
}

namespace {
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Integer keys are range-checked before they are narrowed, so an
/// out-of-range value is an error naming the key, never a wrapped one.
int int_in(const common::Config& c, const std::string& key, std::int64_t lo, std::int64_t hi) {
  return static_cast<int>(c.get_int_in(key, lo, hi));
}
/// Non-negative counts and seeds (a negative one would wrap to ~2^64).
std::uint64_t non_negative(const common::Config& c, const std::string& key) {
  return static_cast<std::uint64_t>(
      c.get_int_in(key, 0, std::numeric_limits<std::int64_t>::max()));
}
}  // namespace

Scenario Scenario::from_config(const common::Config& c) {
  Scenario s;
  s.workload = workload_from_string(c.get_string("workload"));

  s.pattern = c.get_string("pattern");
  s.process = c.get_string("process");
  s.lambda = c.get_double("lambda");
  s.hotspot_fraction = c.get_double("hotspot_fraction");

  s.app = c.get_string("app");
  s.speed = c.get_double("speed");
  s.traffic_scale = c.get_double("traffic_scale");

  s.trace_path = c.get_string("trace");
  s.trace_scale = c.get_double("trace_scale");
  s.trace_loop = c.get_bool("trace_loop");
  s.record_path = c.get_string("record");

  s.telemetry = c.get_string("telemetry");
  s.telemetry_out = c.get_string("telemetry_out");
  s.pkt_trace = c.get_string("pkt_trace");
  s.pkt_trace_rate = non_negative(c, "pkt_trace_rate");
  s.prof = c.get_string("prof");
  s.mem = c.get_string("mem");

  s.thermal = c.get_bool("thermal");
  s.thermal_step_ns = c.get_double("thermal_step_ns");
  s.temp_ambient_c = c.get_double("temp_ambient_c");
  s.temp_cap_c = c.get_double("temp_cap_c");
  s.temp_hysteresis_c = c.get_double("temp_hysteresis_c");
  s.rc_vertical = c.get_double("rc_vertical");
  s.rc_lateral = c.get_double("rc_lateral");
  s.leak_temp_coeff = c.get_double("leak_temp_coeff");

  s.islands = c.get_string("islands");
  s.island_map = c.get_string("island_map");
  s.network.cdc_sync_cycles = int_in(c, "cdc_sync_cycles", 0, kIntMax);
  s.island_policies = c.get_string("island_policies");

  s.network.width = int_in(c, "width", 1, kIntMax);
  s.network.height = int_in(c, "height", 1, kIntMax);
  s.network.topology = topo::topology_kind_from_string(c.get_string("topology"));
  s.network.routing = noc::routing_algo_from_string(c.get_string("routing"));
  s.network.concentration = int_in(c, "concentration", 1, kIntMax);
  s.network.faults = c.get_string("faults");
  s.network.fault_seed = non_negative(c, "fault_seed");
  s.network.num_vcs = int_in(c, "vcs", 1, noc::kMaxVcs);
  s.network.vc_buffer_depth = int_in(c, "bufs", 1, noc::kMaxVcBufferDepth);
  s.network.link_latency = int_in(c, "link_latency", 1, kIntMax);
  // Flit::packet_size and the NI queue hold the size in 16 bits.
  s.packet_size = int_in(c, "packet", 1, std::numeric_limits<std::uint16_t>::max());

  s.policy.policy = policy_from_string(c.get_string("policy"));
  s.policy.lambda_max = c.get_double("lambda_max");
  s.policy.target_delay_ns = c.get_double("target_delay_ns");
  s.policy.ki = c.get_double("ki");
  s.policy.kp = c.get_double("kp");
  s.policy.occupancy_setpoint = c.get_double("occupancy_setpoint");

  s.control_period = non_negative(c, "control_period");
  s.f_node = c.get_double("f_node");
  s.vf_levels = int_in(c, "vf_levels", 0, kIntMax);
  s.flit_bits = int_in(c, "flit_bits", 1, kIntMax);
  s.seed = non_negative(c, "seed");
  s.vf_trace_max = non_negative(c, "vf_trace_max");

  s.phases.warmup_node_cycles = non_negative(c, "warmup");
  s.phases.measure_node_cycles = non_negative(c, "measure");
  s.phases.adaptive_warmup = c.get_bool("adaptive_warmup");
  s.phases.max_warmup_node_cycles = non_negative(c, "max_warmup");
  return s;
}

std::unique_ptr<Simulator> make_simulator(const Scenario& s) {
  const std::string problem = island_config_problem(s);
  if (!problem.empty()) throw std::invalid_argument("Scenario: " + problem);
  const std::string thermal_problem = thermal_config_problem(s);
  if (!thermal_problem.empty()) {
    throw std::invalid_argument("Scenario: " + thermal_problem);
  }
  const std::string topo_problem = topo_config_problem(s);
  if (!topo_problem.empty()) throw std::invalid_argument("Scenario: " + topo_problem);
  const std::string telemetry_problem = telemetry_config_problem(s);
  if (!telemetry_problem.empty()) {
    throw std::invalid_argument("Scenario: " + telemetry_problem);
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

  // Resolve the island partition against the mesh the run actually uses
  // (an app workload re-pins sim_cfg.network above). A single-island
  // partition keeps the empty assignment — the pre-VFI fast path.
  const vfi::IslandMap map =
      build_island_map(s, sim_cfg.network.width, sim_cfg.network.height);
  if (map.num_islands() > 1) sim_cfg.network.island_of = map.assignment();

  return std::make_unique<Simulator>(sim_cfg, std::move(traffic_model),
                                     make_island_controllers(s, map.num_islands()),
                                     make_curve(s.vf_levels));
}

RunResult run(const Scenario& scenario) {
  return make_simulator(scenario)->run(scenario.phases);
}

double mean_lambda(const Scenario& scenario) {
  switch (scenario.workload) {
    case Scenario::Workload::Synthetic:
      return scenario.lambda;
    case Scenario::Workload::App: {
      const apps::TaskGraph graph = app_graph(scenario.app);
      return scenario.traffic_scale *
             graph.mean_lambda(apps::kReferenceFps * scenario.speed, scenario.packet_size,
                               scenario.f_node);
    }
    case Scenario::Workload::Trace: {
      if (scenario.trace_path.empty()) {
        throw std::invalid_argument("mean_lambda: workload=trace requires trace=<path>");
      }
      const trace::Trace t = trace::Trace::load(scenario.trace_path);
      return scenario.trace_scale *
             t.mean_lambda(scenario.network.width * scenario.network.height);
    }
    case Scenario::Workload::Custom:
      throw std::invalid_argument(
          "mean_lambda: not defined for custom workloads (ask the traffic model)");
  }
  throw std::invalid_argument("mean_lambda: unhandled workload variant");
}

}  // namespace nocdvfs::sim
