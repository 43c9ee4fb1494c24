#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/stats.hpp"
#include "obs/latency_hist.hpp"
#include "obs/prof.hpp"
#include "sim/run_plugin.hpp"

namespace nocdvfs::sim {

using common::Picoseconds;

namespace {

/// Round `cycles` up to the next multiple of `period` (at least one period):
/// phase boundaries must coincide with control updates.
std::uint64_t round_up_to_period(std::uint64_t cycles, std::uint64_t period) {
  if (cycles == 0) return period;
  return ((cycles + period - 1) / period) * period;
}

power::RouterGeometry geometry_from(const noc::Network& net, int flit_bits) {
  power::RouterGeometry g;
  // Mesh routers have radix kMeshPorts; concentrated/high-radix topologies
  // size the energy model by their largest router.
  g.num_ports = net.topology_model().max_radix();
  g.num_vcs = net.config().num_vcs;
  g.buffer_depth = net.config().vc_buffer_depth;
  g.flit_bits = flit_bits;
  return g;
}

std::vector<std::unique_ptr<dvfs::DvfsController>> checked_controllers(
    std::vector<std::unique_ptr<dvfs::DvfsController>> controllers, int num_islands) {
  if (static_cast<int>(controllers.size()) != num_islands) {
    throw std::invalid_argument("Simulator: got " + std::to_string(controllers.size()) +
                                " controllers for " + std::to_string(num_islands) +
                                " islands (need exactly one per island)");
  }
  for (const auto& c : controllers) {
    if (!c) throw std::invalid_argument("Simulator: null controller");
  }
  return controllers;
}

/// Node-weighted mean of one value per island.
template <class ValueOf>
double node_mean(const RunContext& ctx, ValueOf value_of) {
  // A lone island keeps its exact value: (v·n)/n is not always v in floating point.
  if (ctx.n_islands == 1) return value_of(0);
  double sum = 0.0;
  for (int i = 0; i < ctx.n_islands; ++i) {
    sum += value_of(i) * static_cast<double>(ctx.island(i).nodes);
  }
  return sum / static_cast<double>(ctx.n_nodes);
}

/// One inventory per tile (router id): the ledger's attribution.
std::vector<power::TileInventory> tile_inventories(const noc::Network& net) {
  std::vector<power::TileInventory> tiles;
  tiles.reserve(static_cast<std::size_t>(net.num_routers()));
  for (noc::NodeId t = 0; t < net.num_routers(); ++t) tiles.push_back(net.tile_inventory(t));
  return tiles;
}

/// What one `Simulator::run` owns besides the loop: the context, the
/// plug-ins, the global measurement and the result; the methods are the
/// protocol steps the loop calls.
class RunState {
 public:
  RunState(const SimulatorConfig& cfg, const RunPhases& phases, noc::Network& net,
           vfi::IslandControlBank& bank, const power::EnergyModel& energy, MultiClock& clock,
           traffic::TrafficModel& traffic)
      : ctx{cfg, phases, net, bank, energy, clock, bank.num_islands(), net.num_nodes(),
            bank.control_period_node_cycles(),
            power::TilePowerAccumulator(energy, tile_inventories(net)),
            std::vector<RunContext::Island>(static_cast<std::size_t>(bank.num_islands()))},
        bank_(bank),
        clock_(clock),
        traffic_(traffic),
        tile_activity_(static_cast<std::size_t>(net.num_routers())),
        tile_cycles_(tile_activity_.size()),
        tile_scale_(tile_activity_.size()),
        island_delay_ps_(static_cast<std::size_t>(ctx.n_islands)) {
    snapshot_tiles();
    ctx.ledger.start(clock.now(), tile_activity_, tile_cycles_);
    for (int i = 0; i < ctx.n_islands; ++i) {
      ctx.island(i).nodes = static_cast<int>(net.island_members(i).size());
      ctx.island(i).buffer_capacity = static_cast<double>(net.island_buffer_capacity_flits(i));
    }
    result.offered_lambda = traffic.offered_flits_per_node_cycle();
    // Hook order: the host plug-in's wall clock and profiler bracket the
    // whole run; telemetry drains fault epochs before thermal stamps its
    // throttle events at the same boundary.
    plugins.push_back(make_host_plugin(ctx));
    if (cfg.telemetry.enabled()) plugins.push_back(make_telemetry_plugin(ctx));
    if (cfg.thermal.enabled) plugins.push_back(make_thermal_plugin(ctx));
  }

  RunContext ctx;
  RunResult result;
  std::vector<std::unique_ptr<RunPlugin>> plugins;  ///< in hook order

  /// Close the ledger's interval at a control boundary. The updates run
  /// after this, so every island's voltage was constant over the interval.
  /// Without a thermal model the interval's leakage is charged at the
  /// reference temperature; with one, the thermal plug-in charges it.
  void sample_ledger() {
    PROF_SCOPE("energy_ledger");
    snapshot_tiles();
    ctx.ledger.sample(clock_.now(), tile_activity_, tile_cycles_, tile_scale_, ctx.measuring);
    if (ctx.measuring && !ctx.cfg.thermal.enabled) ctx.ledger.charge_nominal_leakage();
  }

  /// Run every island's controller on its own window, in island order,
  /// and open the next window.
  void control_updates() {
    const Picoseconds now = clock_.now();
    double delay_sum = 0.0;
    std::uint64_t packets = 0;
    for (int i = 0; i < ctx.n_islands; ++i) {
      RunContext::Island& isl = ctx.island(i);
      delay_sum += isl.delay_sum_ns;
      packets += isl.packets;
      isl.last_update = ctx.measure_window(i);
      isl.f_before_update = bank_.manager(i).current_frequency();
      const common::Hertz applied = bank_.apply_update(i, now, isl.last_update, isl.cap);
      // apply_update only moves the frequency past its 1 kHz dead-band.
      if (applied != isl.f_before_update) {
        clock_.set_noc_frequency(i, applied);
        if (ctx.measuring) {
          isl.freq_avg.set(common::seconds_from_ps(now), applied);
          isl.volt_avg.set(common::seconds_from_ps(now), bank_.manager(i).current_voltage());
          isl.residency.on_change(now, applied);
        }
      }
      isl.recent_freqs.push_back(applied);
      while (static_cast<int>(isl.recent_freqs.size()) > RunContext::kSettleWindows) {
        isl.recent_freqs.pop_front();
      }
      isl.start_gen = ctx.net.island_flits_generated(i);
      isl.start_inj = ctx.net.island_flits_injected(i);
      isl.start_noc_cycles = clock_.noc_cycles(i);
      isl.delay_sum_ns = 0.0;
      isl.packets = 0;
      isl.occupancy_sum = 0;
    }
    result.window_trace.push_back(
        {now, packets > 0 ? delay_sum / static_cast<double>(packets) : 0.0, packets,
         node_mean(ctx, [&](int i) { return bank_.manager(i).current_frequency(); })});
  }

  void begin_measurement() {
    const Picoseconds now = clock_.now();
    ctx.measuring = true;
    ctx.measure_start_ps = now;
    start_node_ = clock_.node_cycles();
    start_noc_ = clock_.noc_cycles(0);
    start_gen_ = ctx.net.total_flits_generated();
    start_ej_ = ctx.net.total_flits_ejected();
    start_backlog_ = ctx.net.total_source_backlog_flits();
    start_dropped_ = ctx.net.total_flits_dropped();
    for (int i = 0; i < ctx.n_islands; ++i) {
      RunContext::Island& isl = ctx.island(i);
      const common::Hertz f = bank_.manager(i).current_frequency();
      isl.freq_avg.set(common::seconds_from_ps(now), f);
      isl.volt_avg.set(common::seconds_from_ps(now), bank_.manager(i).current_voltage());
      isl.residency.begin(now, f);
      isl.measure_start_noc = clock_.noc_cycles(i);
    }
    result.warmup_node_cycles_used = clock_.node_cycles();
    result.controller_settled = ctx.settled() || !ctx.phases.adaptive_warmup;
    ctx.ledger.reset_energy();
    for (const auto& p : plugins) p->on_measure_begin(ctx);
  }

  void account_deliveries() {
    std::vector<noc::PacketRecord>& delivered = ctx.net.delivered();
    for (const noc::PacketRecord& rec : delivered) {
      // The histograms take the exact integer-ps delay d_ns is scaled from.
      const Picoseconds d_ps = rec.eject_time_ps - rec.create_time_ps;
      const double d_ns = common::ns_from_ps(d_ps);
      // The receiving nodes report delay (the paper's DMSD measurement
      // path), so a packet belongs to its destination's island.
      const int i = ctx.net.island_of(rec.dst);
      RunContext::Island& isl = ctx.island(i);
      isl.delay_sum_ns += d_ns;
      ++isl.packets;
      if (ctx.measuring) {
        delay_.add(d_ns);
        latency_.add(static_cast<double>(rec.latency_cycles()));
        hops_.add(static_cast<double>(rec.hops));
        class_delay_[rec.traffic_class == 0 ? 0 : 1].add(d_ns);
        isl.delay_stats.add(d_ns);
        delay_ps_.record(d_ps);
        latency_cycles_.record(rec.latency_cycles());
        island_delay_ps_[static_cast<std::size_t>(i)].record(d_ps);
        // One slice per hop count actually seen: `hops` is 16-bit, so the
        // slice vector is bounded without folding long paths together.
        if (rec.hops >= hop_delay_ps_.size()) hop_delay_ps_.resize(std::size_t{rec.hops} + 1);
        hop_delay_ps_[rec.hops].record(d_ps);
      }
      // Closed-loop workloads (request–reply) react to deliveries.
      traffic_.on_packet_delivered(rec, clock_.now());
    }
    delivered.clear();
  }

  /// Close the measurement: the core's headline fields, then every
  /// plug-in's slice, then the efficiency metrics derived from both.
  void finalize() {
    const Picoseconds now = clock_.now();
    const double t_end_s = common::seconds_from_ps(now);
    const noc::Network& net = ctx.net;
    RunResult& r = result;
    r.measure_node_cycles = clock_.node_cycles() - start_node_;
    r.measure_noc_cycles = clock_.noc_cycles(0) - start_noc_;
    r.measure_duration_ps = now - ctx.measure_start_ps;

    distributions(r.delay_dist);
    const DelayDistResult::Slice& delay = r.delay_dist.delay_ns;
    r.packets_delivered = delay.count;
    r.avg_delay_ns = delay_.mean();
    r.min_delay_ns = delay.min;
    r.max_delay_ns = delay.max;
    r.p50_delay_ns = delay.p50;
    r.p95_delay_ns = delay.p95;
    r.p99_delay_ns = delay.p99;
    r.avg_latency_cycles = latency_.mean();
    r.avg_hops = hops_.mean();
    r.max_hops = hops_.count() > 0 ? static_cast<std::uint64_t>(hops_.max()) : 0;
    r.avg_class0_delay_ns = class_delay_[0].mean();
    r.class0_packets = class_delay_[0].count();
    r.avg_class1_delay_ns = class_delay_[1].mean();
    r.class1_packets = class_delay_[1].count();

    const std::uint64_t gen_delta = net.total_flits_generated() - start_gen_;
    const std::uint64_t ej_delta = net.total_flits_ejected() - start_ej_;
    // An empty window has no delay to report: its 0 ns would read as a
    // perfect run. Only an idle workload (offered load 0) may measure one.
    if (gen_delta == 0 && r.packets_delivered == 0 &&
        traffic_.offered_flits_per_node_cycle() > 0.0) {
      std::ostringstream msg;
      msg << "Simulator: the measurement window (" << r.measure_node_cycles
          << " node cycles after " << r.warmup_node_cycles_used
          << " of warmup) generated and delivered no packets, but workload '"
          << traffic_.name() << "' offers " << traffic_.offered_flits_per_node_cycle()
          << " flits/node-cycle: its traffic stopped before the window (an unlooped trace "
             "shorter than the warmup? loop it or shorten the warmup) or is too sparse for a "
             "window this short";
      throw std::runtime_error(msg.str());
    }
    const double nodes = static_cast<double>(ctx.n_nodes);
    r.measured_offered_lambda =
        static_cast<double>(gen_delta) / (nodes * static_cast<double>(r.measure_node_cycles));
    r.delivered_flits_per_node_cycle =
        static_cast<double>(ej_delta) / (nodes * static_cast<double>(r.measure_node_cycles));
    r.delivered_flits_per_noc_cycle =
        r.measure_noc_cycles > 0
            ? static_cast<double>(ej_delta) / (nodes * static_cast<double>(r.measure_noc_cycles))
            : 0.0;

    // Per-island slices, and the cross-island summaries: occupancy weighted
    // by sampled capacity, frequency/voltage by island node count.
    r.islands.resize(static_cast<std::size_t>(ctx.n_islands));
    double occ_num = 0.0, occ_den = 0.0;
    for (int i = 0; i < ctx.n_islands; ++i) {
      RunContext::Island& isl = ctx.island(i);
      isl.residency.end(now);
      const dvfs::DvfsManager& mgr = bank_.manager(i);
      IslandResult& out = r.islands[static_cast<std::size_t>(i)];
      out.island = i;
      out.nodes = isl.nodes;
      out.policy = mgr.controller().name();
      out.packets_delivered = isl.delay_stats.count();
      out.avg_delay_ns = isl.delay_stats.mean();
      out.avg_frequency_hz = isl.freq_avg.average(t_end_s);
      out.avg_voltage = isl.volt_avg.average(t_end_s);
      out.final_frequency_hz = mgr.current_frequency();
      out.vf_trace = mgr.trace();
      out.freq_residency = isl.residency.levels();
      out.measure_noc_cycles = clock_.noc_cycles(i) - isl.measure_start_noc;
      const double capacity_cycles =
          static_cast<double>(out.measure_noc_cycles) * isl.buffer_capacity;
      out.avg_buffer_occupancy =
          out.measure_noc_cycles > 0
              ? static_cast<double>(isl.measure_occupancy_sum) / capacity_cycles
              : 0.0;
      occ_num += static_cast<double>(isl.measure_occupancy_sum);
      occ_den += capacity_cycles;
    }
    const auto island_out = [&r](int i) -> const IslandResult& {
      return r.islands[static_cast<std::size_t>(i)];
    };
    r.avg_buffer_occupancy = occ_den > 0.0 ? occ_num / occ_den : 0.0;
    r.avg_frequency_hz = node_mean(ctx, [&](int i) { return island_out(i).avg_frequency_hz; });
    r.avg_voltage = node_mean(ctx, [&](int i) { return island_out(i).avg_voltage; });
    r.final_frequency_hz =
        node_mean(ctx, [&](int i) { return island_out(i).final_frequency_hz; });
    // Convention: the global trace is island 0's (the domain the global
    // cycle-denominated metrics are counted in).
    r.vf_trace = bank_.manager(0).trace();

    r.backlog_growth_flits = static_cast<std::int64_t>(net.total_source_backlog_flits()) -
                             static_cast<std::int64_t>(start_backlog_);
    // Fault accounting (all zero on a fault-free run).
    r.dropped_packets = net.total_packets_dropped();
    r.dropped_flits = net.total_flits_dropped();
    r.unreachable_pairs = net.unreachable_pairs();
    r.rerouted_pairs = net.rerouted_pairs();
    r.failed_links = net.failed_links();
    r.failed_routers = net.failed_routers();
    // Saturated: the source queues grew materially (more than ~5% of the
    // traffic generated, and more than transient jitter of a couple of
    // packets per node), or delivery lagged generation by > 5%. Flits
    // dropped under faults were never deliverable, so they count against
    // neither side of the delivery ratio.
    const std::uint64_t dropped_delta = net.total_flits_dropped() - start_dropped_;
    const std::uint64_t deliverable_delta = gen_delta - std::min(gen_delta, dropped_delta);
    const double growth_floor =
        std::max(2.0 * ctx.n_nodes * 20.0, 0.05 * static_cast<double>(gen_delta));
    const bool backlog_saturated = static_cast<double>(r.backlog_growth_flits) > growth_floor;
    const bool delivery_saturated =
        deliverable_delta > 0 &&
        static_cast<double>(ej_delta) < 0.95 * static_cast<double>(deliverable_delta);
    r.saturated = backlog_saturated || delivery_saturated;

    for (const auto& p : plugins) p->finalize(ctx, r);
    sum_energy(r);

    const double delivered_bits =
        static_cast<double>(ej_delta) * static_cast<double>(ctx.cfg.flit_bits);
    r.energy_per_bit_pj =
        delivered_bits > 0.0 ? r.power.total_j() * 1e12 / delivered_bits : 0.0;
    r.energy_delay_product_js = r.power.total_j() * r.avg_delay_ns * 1e-9;
  }

 private:
  /// Every tile's activity, its island's cycle count and voltage scale
  /// (two `std::pow`s per island, not per tile).
  void snapshot_tiles() {
    for (int i = 0; i < ctx.n_islands; ++i) {
      const std::uint64_t cycles = clock_.noc_cycles(i);
      const power::VoltageScale scale =
          ctx.energy.voltage_scale(bank_.manager(i).current_voltage());
      for (const noc::NodeId t : ctx.net.island_tiles(i)) {
        const auto k = static_cast<std::size_t>(t);
        tile_activity_[k] = ctx.net.tile_activity(t);
        tile_cycles_[k] = cycles;
        tile_scale_[k] = scale;
      }
    }
  }

  /// The ledger's tiles summed, in tile order, into the run total and into
  /// each island. The total is not regrouped by island: that would move it
  /// in the last bit on multi-island runs.
  void sum_energy(RunResult& r) const {
    const std::vector<power::PowerBreakdown>& tiles = ctx.ledger.tiles();
    for (const power::PowerBreakdown& tile : tiles) r.power.add_energy(tile);
    r.power.elapsed_ps = r.measure_duration_ps;
    for (int i = 0; i < ctx.n_islands; ++i) {
      power::PowerBreakdown& island = r.islands[static_cast<std::size_t>(i)].power;
      for (const noc::NodeId t : ctx.net.island_tiles(i)) {
        island.add_energy(tiles[static_cast<std::size_t>(t)]);
      }
      island.elapsed_ps = r.measure_duration_ps;
    }
  }

  /// The measured latency distributions, and with telemetry on their
  /// snapshots in the timeline (`nocdvfs_report percentiles` reads them).
  void distributions(DelayDistResult& dd) const {
    dd.delay_ns = slice(delay_ps_, 1e-3);
    dd.latency_cycles = slice(latency_cycles_, 1.0);
    for (const auto& h : island_delay_ps_) dd.island_delay_ns.push_back(slice(h, 1e-3));
    for (const auto& h : hop_delay_ps_) dd.hop_delay_ns.push_back(slice(h, 1e-3));
    if (ctx.timeline == nullptr) return;
    std::vector<obs::HistogramSnapshot>& out = ctx.timeline->histograms;
    out.push_back(delay_ps_.snapshot("delay_ps"));
    out.push_back(latency_cycles_.snapshot("latency_cycles"));
    for (std::size_t i = 0; i < island_delay_ps_.size(); ++i) {
      out.push_back(island_delay_ps_[i].snapshot("island" + std::to_string(i) + "_delay_ps"));
    }
    for (std::size_t h = 0; h < hop_delay_ps_.size(); ++h) {
      if (hop_delay_ps_[h].empty()) continue;
      out.push_back(hop_delay_ps_[h].snapshot("hops" + std::to_string(h) + "_delay_ps"));
    }
  }

  /// Integer-valued histogram `h` scaled to the slice's unit (ps -> ns is
  /// the same `x 1e-3` as common::ns_from_ps).
  static DelayDistResult::Slice slice(const obs::LatencyHistogram& h, double scale) {
    DelayDistResult::Slice s;
    s.count = h.count();
    if (h.empty()) return s;
    const auto at = [&](double q) { return static_cast<double>(h.quantile(q)) * scale; };
    s.min = static_cast<double>(h.min()) * scale;
    s.max = static_cast<double>(h.max()) * scale;
    s.p50 = at(0.50);
    s.p90 = at(0.90);
    s.p95 = at(0.95);
    s.p99 = at(0.99);
    s.p999 = at(0.999);
    return s;
  }

  vfi::IslandControlBank& bank_;
  MultiClock& clock_;
  traffic::TrafficModel& traffic_;
  // The ledger's per-tile snapshot buffers, by tile (router) id.
  std::vector<power::ActivityCounters> tile_activity_;
  std::vector<std::uint64_t> tile_cycles_;
  std::vector<power::VoltageScale> tile_scale_;

  std::uint64_t start_node_ = 0;
  std::uint64_t start_noc_ = 0;
  std::uint64_t start_gen_ = 0;
  std::uint64_t start_ej_ = 0;
  std::uint64_t start_backlog_ = 0;
  std::uint64_t start_dropped_ = 0;
  common::RunningStats delay_;
  common::RunningStats latency_;
  common::RunningStats hops_;
  common::RunningStats class_delay_[2];
  obs::LatencyHistogram delay_ps_;
  obs::LatencyHistogram latency_cycles_;
  std::vector<obs::LatencyHistogram> island_delay_ps_;  ///< by destination island
  std::vector<obs::LatencyHistogram> hop_delay_ps_;     ///< by hop count
};

}  // namespace

dvfs::WindowMeasurements RunContext::measure_window(int i) const {
  const Island& isl = island(i);
  const double nodes = static_cast<double>(isl.nodes);
  dvfs::WindowMeasurements m;
  m.window_node_cycles = period;
  m.window_noc_cycles = clock.noc_cycles(i) - isl.start_noc_cycles;
  m.lambda_node_offered = static_cast<double>(net.island_flits_generated(i) - isl.start_gen) /
                          (nodes * static_cast<double>(period));
  m.lambda_noc_injected =
      m.window_noc_cycles > 0
          ? static_cast<double>(net.island_flits_injected(i) - isl.start_inj) /
                (nodes * static_cast<double>(m.window_noc_cycles))
          : 0.0;
  m.packets_delivered = isl.packets;
  m.avg_delay_ns = isl.packets > 0 ? isl.delay_sum_ns / static_cast<double>(isl.packets) : 0.0;
  m.avg_buffer_occupancy =
      m.window_noc_cycles > 0
          ? static_cast<double>(isl.occupancy_sum) /
                (static_cast<double>(m.window_noc_cycles) * isl.buffer_capacity)
          : 0.0;
  return m;
}

bool RunContext::island_settled(int i) const {
  const std::deque<double>& freqs = island(i).recent_freqs;
  if (static_cast<int>(freqs.size()) < kSettleWindows) return false;
  const auto [lo, hi] = std::minmax_element(freqs.begin(), freqs.end());
  return (*hi - *lo) <= kSettleTol * (*hi);
}

bool RunContext::settled() const {
  for (int i = 0; i < n_islands; ++i) {
    if (!island_settled(i)) return false;
  }
  return true;
}

Simulator::Simulator(const SimulatorConfig& cfg, std::unique_ptr<traffic::TrafficModel> traffic,
                     std::vector<std::unique_ptr<dvfs::DvfsController>> controllers,
                     power::VfCurve curve)
    : cfg_(cfg),
      net_(cfg.network),
      traffic_(std::move(traffic)),
      bank_(checked_controllers(std::move(controllers), net_.num_islands()),
            std::move(curve), cfg.f_node, cfg.control_period_node_cycles, cfg.vf_trace_max),
      energy_(geometry_from(net_, cfg.flit_bits), cfg.energy_params),
      clock_(cfg.f_node, std::vector<common::Hertz>(
                             static_cast<std::size_t>(bank_.num_islands()), bank_.f_start())) {
  if (!traffic_) throw std::invalid_argument("Simulator: null traffic model");
}

RunResult Simulator::run(const RunPhases& phases) {
  RunState st(cfg_, phases, net_, bank_, energy_, clock_, *traffic_);
  RunContext& ctx = st.ctx;
  const std::uint64_t period = ctx.period;
  const std::uint64_t warmup_target = round_up_to_period(phases.warmup_node_cycles, period);
  const std::uint64_t max_warmup =
      std::max(round_up_to_period(phases.max_warmup_node_cycles, period), warmup_target);
  const std::uint64_t measure_span = round_up_to_period(phases.measure_node_cycles, period);

  std::uint64_t measure_end_node = 0;
  {
    // The root phase: everything the main loop and finalize do, so the
    // profile's inclusive root tracks the run's wall time.
    PROF_SCOPE("run");
    while (true) {
      const auto edge = clock_.advance();
      if (edge.node) {
        {
          PROF_SCOPE("node_domain");
          traffic_->node_tick(clock_.now(), clock_.noc_cycles(0), net_);
        }
        if (clock_.node_cycles() % period == 0) {
          st.sample_ledger();
          for (const auto& p : st.plugins) p->before_control(ctx);
          if (ctx.measuring && clock_.node_cycles() >= measure_end_node) {
            PROF_SCOPE("finalize");
            st.finalize();
            break;
          }
          {
            PROF_SCOPE("control_window");
            st.control_updates();
          }
          for (const auto& p : st.plugins) p->after_control(ctx);
          if (!ctx.measuring) {
            const std::uint64_t cycles = clock_.node_cycles();
            const bool warm = cycles >= warmup_target;
            const bool ready = !phases.adaptive_warmup || ctx.settled() || cycles >= max_warmup;
            if (warm && ready) {
              st.begin_measurement();
              measure_end_node = cycles + measure_span;
            }
          }
        }
      }
      if (edge.noc_any) {
        // Tick every fired island before any island's phases run, so a CDC
        // push at this instant never sees the reader's same-instant tick.
        {
          PROF_SCOPE("island_tick");
          for (const int d : clock_.fired()) net_.tick_island(d);
        }
        for (const int d : clock_.fired()) {
          PROF_SCOPE_ID("island_step", d);
          net_.run_island_phases(d, clock_.now());
          const std::uint64_t occ = net_.island_buffered_flits_now(d);
          ctx.island(d).occupancy_sum += occ;
          if (ctx.measuring) ctx.island(d).measure_occupancy_sum += occ;
          {
            PROF_SCOPE("deliveries");
            st.account_deliveries();
          }
        }
      }
    }
  }
  for (const auto& p : st.plugins) p->post_run(ctx, st.result);
  return std::move(st.result);
}

}  // namespace nocdvfs::sim
