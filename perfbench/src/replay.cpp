#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/stats.hpp"
#include "dvfs/thermal_guard.hpp"
#include "power/power_model.hpp"
#include "sim/clock.hpp"
#include "thermal/thermal_model.hpp"
#include "traffic/traffic_model.hpp"
#include "vfi/island_dvfs.hpp"

namespace perfbench {

namespace noc = nocdvfs::noc;
namespace sim = nocdvfs::sim;
namespace power = nocdvfs::power;
namespace dvfs = nocdvfs::dvfs;
namespace common = nocdvfs::common;
using common::Picoseconds;
using Clock = std::chrono::steady_clock;

namespace {

/// Accumulates the duration of calls into one layer.
class SpanTimer {
 public:
  explicit SpanTimer(bool on) : on_(on) {}
  template <class F>
  decltype(auto) operator()(double& acc, F&& f) const {
    if (!on_) return f();
    const auto t0 = Clock::now();
    struct Stop {
      double& acc;
      Clock::time_point t0;
      ~Stop() { acc += std::chrono::duration<double>(Clock::now() - t0).count(); }
    } stop{acc, t0};
    return f();
  }

 private:
  bool on_;
};

std::unique_ptr<nocdvfs::traffic::TrafficModel> make_traffic(const sim::Scenario& s) {
  if (s.workload != sim::Scenario::Workload::Synthetic) {
    throw std::invalid_argument("replay: only synthetic workloads are supported");
  }
  nocdvfs::traffic::SyntheticTrafficParams tp;
  tp.lambda = s.lambda;
  tp.packet_size = s.packet_size;
  tp.pattern = s.pattern;
  tp.process = s.process;
  tp.seed = s.seed;
  tp.hotspot_fraction = s.hotspot_fraction;
  return std::make_unique<nocdvfs::traffic::SyntheticTraffic>(
      noc::MeshTopology(s.network.width, s.network.height), tp);
}

}  // namespace

LayerTrace& LayerTrace::operator+=(const LayerTrace& o) {
  wall_s += o.wall_s;
  clock_s += o.clock_s;
  node_tick_s += o.node_tick_s;
  tick_s += o.tick_s;
  phases_s += o.phases_s;
  deliveries_s += o.deliveries_s;
  dvfs_s += o.dvfs_s;
  power_s += o.power_s;
  thermal_s += o.thermal_s;
  clock_edges += o.clock_edges;
  node_tick_calls += o.node_tick_calls;
  node_ticks += o.node_ticks;
  island_steps += o.island_steps;
  tiles_stepped += o.tiles_stepped;
  tile_slots += o.tile_slots;
  buffered_flit_sum += o.buffered_flit_sum;
  buffer_capacity_sum += o.buffer_capacity_sum;
  boundary_samples += o.boundary_samples;
  cdc_flit_sum += o.cdc_flit_sum;
  backlog_sum += o.backlog_sum;
  packets_drained += o.packets_drained;
  dvfs_updates += o.dvfs_updates;
  freq_changes += o.freq_changes;
  power_calls += o.power_calls;
  thermal_advances += o.thermal_advances;
  throttle_events += o.throttle_events;
  flit_hops += o.flit_hops;
  packets_generated += o.packets_generated;
  stall_vc_alloc += o.stall_vc_alloc;
  stall_switch += o.stall_switch;
  stall_credit += o.stall_credit;
  return *this;
}

LayerTrace replay(noc::Network& net, const ReplayPlan& plan, bool spans) {
  const sim::Scenario& s = plan.scenario;
  const sim::SimulatorConfig& cfg = plan.config;
  const sim::RunResult& timed = plan.timed;
  if (!s.island_policies.empty() || s.vf_levels != 0 || cfg.vf_trace_max != 0) {
    throw std::invalid_argument(
        "replay: per-island policies, discrete levels and bounded traces are not supported");
  }
  const int n_islands = net.num_islands();
  const int n_nodes = net.num_nodes();
  if (static_cast<int>(timed.islands.size()) != n_islands) {
    throw std::invalid_argument("replay: timed run has a different island count");
  }
  const std::uint64_t period = cfg.control_period_node_cycles;
  const std::uint64_t measure_begin = timed.warmup_node_cycles_used;
  const std::uint64_t measure_end = measure_begin + timed.measure_node_cycles;
  const bool thermal_on = cfg.thermal.enabled;
  const SpanTimer span(spans);
  LayerTrace out;

  auto traffic = make_traffic(s);
  const power::VfCurve curve = power::VfCurve::fdsoi28();
  std::vector<std::unique_ptr<dvfs::DvfsController>> controllers;
  for (int i = 0; i < n_islands; ++i) controllers.push_back(sim::make_controller(s.policy));
  nocdvfs::vfi::IslandControlBank bank(std::move(controllers), curve, cfg.f_node, period);
  sim::MultiClock clock(cfg.f_node,
                        std::vector<common::Hertz>(static_cast<std::size_t>(n_islands),
                                                   bank.f_start()));

  // The operating point in force per island, from the replayed trace.
  struct IslandState {
    std::size_t next_trace = 0;
    common::Hertz f = 0.0;
    double vdd = 0.0;
    // control-window accumulators, as the kernel keeps them
    double delay_sum_ns = 0.0;
    std::uint64_t packets = 0;
    std::uint64_t start_gen = 0;
    std::uint64_t start_inj = 0;
    std::uint64_t start_noc_cycles = 0;
    std::uint64_t occupancy_sum = 0;
    double buffer_capacity = 0.0;
    int nodes = 0;
  };
  std::vector<IslandState> isl(static_cast<std::size_t>(n_islands));
  for (int i = 0; i < n_islands; ++i) {
    IslandState& st = isl[static_cast<std::size_t>(i)];
    st.f = bank.manager(i).current_frequency();
    st.vdd = bank.manager(i).current_voltage();
    st.buffer_capacity = static_cast<double>(net.island_buffer_capacity_flits(i));
    st.nodes = static_cast<int>(net.island_members(i).size());
  }

  std::vector<power::PowerAccumulator> power_accs;
  if (!thermal_on) {
    for (int i = 0; i < n_islands; ++i) power_accs.emplace_back(plan.energy, net.island_inventory(i));
  }

  // Thermal plug-in state, wired as the kernel wires it.
  std::unique_ptr<nocdvfs::thermal::ThermalModel> therm;
  std::unique_ptr<power::TilePowerAccumulator> tile_acc;
  std::unique_ptr<dvfs::ThermalGuard> guard;
  std::vector<power::ActivityCounters> tile_activity;
  std::vector<std::uint64_t> tile_cycles;
  std::vector<double> tile_vdd;
  std::vector<common::Hertz> caps(static_cast<std::size_t>(n_islands), 0.0);
  std::vector<double> leak_snap_j;
  auto snapshot_tiles = [&] {
    for (noc::NodeId id = 0; id < n_nodes; ++id) {
      const std::size_t t = static_cast<std::size_t>(id);
      const int i = net.island_of(id);
      tile_activity[t] = net.node_activity(id);
      tile_cycles[t] = clock.noc_cycles(i);
      tile_vdd[t] = isl[static_cast<std::size_t>(i)].vdd;
    }
  };
  if (thermal_on) {
    therm = std::make_unique<nocdvfs::thermal::ThermalModel>(
        cfg.network.width, cfg.network.height, cfg.thermal.params, cfg.thermal.step_ps);
    std::vector<power::TileInventory> tiles;
    for (noc::NodeId id = 0; id < n_nodes; ++id) tiles.push_back(net.node_inventory(id));
    tile_acc = std::make_unique<power::TilePowerAccumulator>(plan.energy, std::move(tiles));
    guard = std::make_unique<dvfs::ThermalGuard>(cfg.thermal.guard, n_islands);
    tile_activity.resize(static_cast<std::size_t>(n_nodes));
    tile_cycles.resize(static_cast<std::size_t>(n_nodes));
    tile_vdd.resize(static_cast<std::size_t>(n_nodes));
    snapshot_tiles();
    ++out.power_calls;
    span(out.power_s, [&] { tile_acc->start(clock.now(), tile_activity, tile_cycles); });
  }

  bool measuring = false;
  Picoseconds measure_start_ps = 0;
  common::RunningStats delay_stats;

  auto drain_deliveries = [&] {
    for (const noc::PacketRecord& rec : net.delivered()) {
      const double d_ns = rec.delay_ns();
      IslandState& st = isl[static_cast<std::size_t>(net.island_of(rec.dst))];
      st.delay_sum_ns += d_ns;
      ++st.packets;
      if (measuring) delay_stats.add(d_ns);
      traffic->on_packet_delivered(rec, clock.now());
    }
    out.packets_drained += net.delivered().size();
    net.delivered().clear();
  };

  auto thermal_boundary = [&] {
    snapshot_tiles();
    ++out.power_calls;
    span(out.power_s, [&] {
      tile_acc->sample(clock.now(), tile_activity, tile_cycles, tile_vdd, measuring);
    });
    ++out.thermal_advances;
    span(out.thermal_s, [&] {
      therm->advance(clock.now(), tile_acc->dynamic_w(), tile_acc->leakage_nominal_w());
    });
    for (int i = 0; i < n_islands; ++i) {
      double peak = cfg.thermal.params.ambient_c;
      for (const noc::NodeId id : net.island_members(i)) peak = std::max(peak, therm->tile_temp_c(id));
      const bool throttle = guard->observe(i, peak);
      caps[static_cast<std::size_t>(i)] =
          throttle ? (cfg.thermal.guard.f_throttle > 0.0 ? cfg.thermal.guard.f_throttle
                                                         : bank.manager(i).f_min())
                   : 0.0;
    }
  };

  auto control_update = [&](int i) {
    IslandState& st = isl[static_cast<std::size_t>(i)];
    dvfs::WindowMeasurements m;
    m.window_node_cycles = period;
    m.window_noc_cycles = clock.noc_cycles(i) - st.start_noc_cycles;
    const std::uint64_t gen = net.island_flits_generated(i);
    const std::uint64_t inj = net.island_flits_injected(i);
    m.lambda_node_offered = static_cast<double>(gen - st.start_gen) /
                            (static_cast<double>(st.nodes) * static_cast<double>(period));
    m.lambda_noc_injected =
        m.window_noc_cycles > 0
            ? static_cast<double>(inj - st.start_inj) /
                  (static_cast<double>(st.nodes) * static_cast<double>(m.window_noc_cycles))
            : 0.0;
    m.packets_delivered = st.packets;
    m.avg_delay_ns = st.packets > 0 ? st.delay_sum_ns / static_cast<double>(st.packets) : 0.0;
    m.avg_buffer_occupancy =
        m.window_noc_cycles > 0
            ? static_cast<double>(st.occupancy_sum) /
                  (static_cast<double>(m.window_noc_cycles) * st.buffer_capacity)
            : 0.0;
    ++out.dvfs_updates;
    span(out.dvfs_s, [&] {
      return bank.apply_update(i, clock.now(), m, caps[static_cast<std::size_t>(i)]);
    });

    // Actuate from the timed run's trace, not from the controller above.
    const auto& trace = timed.islands[static_cast<std::size_t>(i)].vf_trace;
    if (st.next_trace < trace.size() && trace[st.next_trace].t == clock.now()) {
      const dvfs::VfTracePoint& p = trace[st.next_trace++];
      st.f = p.f;
      st.vdd = p.vdd;
      ++out.freq_changes;
      clock.set_noc_frequency(i, p.f);
      if (measuring && !thermal_on) {
        ++out.power_calls;
        span(out.power_s, [&] {
          power_accs[static_cast<std::size_t>(i)].change_operating_point(
              clock.now(), net.island_activity(i), clock.noc_cycles(i), st.vdd, st.f);
        });
      }
    }
    st.start_gen = gen;
    st.start_inj = inj;
    st.start_noc_cycles = clock.noc_cycles(i);
    st.delay_sum_ns = 0.0;
    st.packets = 0;
    st.occupancy_sum = 0;
  };

  auto begin_measurement = [&] {
    measuring = true;
    measure_start_ps = clock.now();
    for (int i = 0; i < n_islands; ++i) {
      const IslandState& st = isl[static_cast<std::size_t>(i)];
      if (!thermal_on) {
        ++out.power_calls;
        span(out.power_s, [&] {
          power_accs[static_cast<std::size_t>(i)].start(clock.now(), net.island_activity(i),
                                                        clock.noc_cycles(i), st.vdd, st.f);
        });
      }
    }
    if (thermal_on) {
      tile_acc->reset_energy();
      therm->reset_stats();
      leak_snap_j = therm->tile_leakage_j();
    }
  };

  auto finalize = [&] {
    double energy_j = 0.0;
    if (!thermal_on) {
      power::PowerBreakdown total;
      for (int i = 0; i < n_islands; ++i) {
        ++out.power_calls;
        span(out.power_s, [&] {
          power_accs[static_cast<std::size_t>(i)].stop(clock.now(), net.island_activity(i),
                                                       clock.noc_cycles(i));
        });
        const power::PowerBreakdown& b = power_accs[static_cast<std::size_t>(i)].breakdown();
        total.datapath_j += b.datapath_j;
        total.clock_j += b.clock_j;
        total.leakage_j += b.leakage_j;
      }
      energy_j = total.total_j();
    } else {
      std::vector<double> leak_meas(static_cast<std::size_t>(n_nodes), 0.0);
      for (std::size_t t = 0; t < leak_meas.size(); ++t) {
        leak_meas[t] = therm->tile_leakage_j()[t] - leak_snap_j[t];
      }
      ++out.power_calls;
      span(out.power_s, [&] { tile_acc->add_leakage_j(leak_meas); });
      power::PowerBreakdown total;
      for (const power::PowerBreakdown& tile : tile_acc->tiles()) {
        total.datapath_j += tile.datapath_j;
        total.clock_j += tile.clock_j;
        total.leakage_j += tile.leakage_j;
      }
      energy_j = total.total_j();
      for (int i = 0; i < n_islands; ++i) out.throttle_events += guard->engage_count(i);
    }
    out.measured = {delay_stats.count(), delay_stats.mean(), energy_j};
  };

  const auto t_start = Clock::now();
  while (true) {
    ++out.clock_edges;
    const sim::MultiClock::Edge edge = span(out.clock_s, [&] { return clock.advance(); });
    if (edge.node) {
      ++out.node_tick_calls;
      span(out.node_tick_s, [&] { traffic->node_tick(clock.now(), clock.noc_cycles(0), net); });
      const std::uint64_t cycles = clock.node_cycles();
      if (cycles % period == 0) {
        ++out.boundary_samples;
        out.backlog_sum += net.total_source_backlog_flits();
        for (int i = 0; i < n_islands; ++i) out.cdc_flit_sum += net.island_cdc_flit_occupancy(i);
        if (thermal_on) thermal_boundary();
        if (measuring && cycles >= measure_end) {
          finalize();
          break;
        }
        for (int i = 0; i < n_islands; ++i) control_update(i);
        if (!measuring && cycles == measure_begin) begin_measurement();
      }
    }
    if (edge.noc_any) {
      for (const int d : clock.fired()) span(out.tick_s, [&] { net.tick_island(d); });
      for (const int d : clock.fired()) {
        out.tiles_stepped += static_cast<std::uint64_t>(net.island_active_nodes(d));
        out.tile_slots += net.island_tiles(d).size();
        ++out.island_steps;
        span(out.phases_s, [&] { net.run_island_phases(d, clock.now()); });
        const std::uint64_t occ = net.island_buffered_flits_now(d);
        IslandState& st = isl[static_cast<std::size_t>(d)];
        st.occupancy_sum += occ;
        out.buffered_flit_sum += occ;
        out.buffer_capacity_sum += static_cast<std::uint64_t>(st.buffer_capacity);
        if (!net.delivered().empty()) span(out.deliveries_s, drain_deliveries);
      }
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t_start).count();

  out.node_ticks = out.node_tick_calls * static_cast<std::uint64_t>(n_nodes);
  out.packets_generated = net.total_packets_generated();
  for (int r = 0; r < net.num_routers(); ++r) {
    const noc::Router& rt = net.router_at(r);
    out.flit_hops += rt.activity().crossbar_traversals;
    out.stall_vc_alloc += rt.stalls().vc_alloc;
    out.stall_switch += rt.stalls().sw;
    out.stall_credit += rt.stalls().credit;
  }
  out.ledger = ledger_of(net);
  return out;
}

}  // namespace perfbench
