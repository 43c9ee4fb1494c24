// Telemetry plug-in (`telemetry!=off`): samples the network's registered
// counters and gauges at every control window into the run timeline, with
// the per-island control rows and the event stream; fills the RunResult
// summary slice, owns the flight recorder (`pkt_trace=`) and exports the
// timeline files after the run.

#include <algorithm>

#include "obs/flight_recorder.hpp"
#include "obs/prof.hpp"
#include "obs/timeline.hpp"
#include "sim/run_plugin.hpp"

namespace nocdvfs::sim {
namespace {

/// Entries kept in the RunResult hot tile/link lists.
constexpr std::size_t kTopK = 8;

/// `v` sorted by `less`, cut to its first kTopK entries.
template <class T, class Less>
std::vector<T> top_k(std::vector<T> v, Less less) {
  std::sort(v.begin(), v.end(), less);
  if (v.size() > kTopK) v.resize(kTopK);
  return v;
}

class TelemetryPlugin final : public RunPlugin {
 public:
  explicit TelemetryPlugin(RunContext& ctx)
      : net_(ctx.net),
        full_(ctx.cfg.telemetry.mode == obs::TelemetryMode::Full),
        settled_(static_cast<std::size_t>(ctx.n_islands), 0) {
    ctx.net.set_stall_tracking(true);
    ctx.net.register_telemetry(registry_, full_);
    sampler_ = std::make_unique<obs::TelemetrySampler>(registry_);
    timeline_.width = ctx.cfg.network.width;
    timeline_.height = ctx.cfg.network.height;
    timeline_.num_routers = ctx.net.num_routers();
    timeline_.num_islands = ctx.n_islands;
    timeline_.concentration = ctx.cfg.network.concentration;
    timeline_.f_node_hz = ctx.cfg.f_node;
    timeline_.control_period_node_cycles = ctx.period;
    for (int i = 0; i < ctx.n_islands; ++i) {
      timeline_.island_policy.push_back(ctx.bank.manager(i).controller().name());
      timeline_.island_nodes.push_back(ctx.island(i).nodes);
    }
    if (full_) timeline_.links = ctx.net.link_table();
    if (ctx.cfg.pkt_trace) {
      obs::FlightRecorder::Config fr;
      fr.rate = std::max<std::uint64_t>(ctx.cfg.pkt_trace_rate, 1);
      recorder_ = std::make_unique<obs::FlightRecorder>(fr);
      ctx.net.set_flight_recorder(recorder_.get());
    }
    ctx.timeline = &timeline_;
  }

  /// The network outlives the run: it must not keep this run's recorder,
  /// nor keep paying for stall attribution nobody samples.
  ~TelemetryPlugin() override {
    net_.set_flight_recorder(nullptr);
    net_.set_stall_tracking(false);
  }

  /// Drain fault epochs first: their timestamps fall inside the elapsed
  /// window, before anything stamped at this boundary.
  void before_control(RunContext& ctx) override {
    PROF_SCOPE("telemetry_sample");
    drain_faults(ctx);
  }

  /// After the control updates: the window's actuations and control rows,
  /// the window-end stamp, one sample of every registered metric, and each
  /// island's first settle instant.
  void after_control(RunContext& ctx) override {
    PROF_SCOPE("telemetry_sample");
    const auto now = static_cast<std::uint64_t>(ctx.clock.now());
    for (int i = 0; i < ctx.n_islands; ++i) {
      const double before = ctx.island(i).f_before_update;
      const double after = ctx.bank.manager(i).current_frequency();
      if (after != before) {
        timeline_.events.push_back({obs::EventKind::DvfsActuation, i, now, after, before});
      }
    }
    for (int i = 0; i < ctx.n_islands; ++i) push_row(ctx, i, ctx.island(i).last_update);
    timeline_.window_t_ps.push_back(now);
    sampler_->sample();
    for (int i = 0; i < ctx.n_islands; ++i) {
      if (!settled_[static_cast<std::size_t>(i)] && ctx.island_settled(i)) {
        settled_[static_cast<std::size_t>(i)] = 1;
        timeline_.events.push_back({obs::EventKind::Settled, i, now,
                                    ctx.bank.manager(i).current_frequency(), 0.0});
      }
    }
  }

  void on_measure_begin(RunContext& ctx) override {
    timeline_.events.push_back({obs::EventKind::MeasureStart, -1,
                                static_cast<std::uint64_t>(ctx.clock.now()), 0.0, 0.0});
  }

  void finalize(RunContext& ctx, RunResult& result) override {
    drain_faults(ctx);
    // Close the run with one final window (no control update runs at this
    // boundary) so the timeline's column sums equal the live whole-run
    // counters exactly.
    const auto now = static_cast<std::uint64_t>(ctx.clock.now());
    timeline_.window_t_ps.push_back(now);
    sampler_->sample();
    for (int i = 0; i < ctx.n_islands; ++i) push_row(ctx, i, ctx.measure_window(i));
    timeline_.events.push_back({obs::EventKind::MeasureEnd, -1, now, 0.0, 0.0});
    sampler_->finish(timeline_);
    summarize(ctx, result.telemetry);
    if (recorder_) timeline_.flights = recorder_->take_flights();
  }

  /// The file export waits until the host epilogue has attached the
  /// completed profile and manifest.
  void post_run(RunContext& ctx, RunResult& result) override {
    const std::string& base = ctx.cfg.telemetry.out_base;
    if (base.empty()) return;
    timeline_.manifest = result.manifest.entries;
    timeline_.host_phases = result.host.profile.phases;
    timeline_.host_workers = result.host.step_workers;
    obs::write_timeline_binary(timeline_, base + ".nocobs");
    obs::write_timeline_perfetto(timeline_, base + ".json");
  }

 private:
  /// FaultEpoch/Reroute events for every epoch applied since the last
  /// drain, timestamped at the epoch itself.
  void drain_faults(const RunContext& ctx) {
    const auto& epochs = ctx.net.fault_epochs();
    for (; fault_epochs_seen_ < epochs.size(); ++fault_epochs_seen_) {
      const noc::Network::FaultEpochRecord& ep = epochs[fault_epochs_seen_];
      const auto t = static_cast<std::uint64_t>(ep.t_ps);
      timeline_.events.push_back({obs::EventKind::FaultEpoch, -1, t,
                                  static_cast<double>(ep.failed_links),
                                  static_cast<double>(ep.failed_routers)});
      timeline_.events.push_back({obs::EventKind::Reroute, -1, t,
                                  static_cast<double>(ep.rerouted_pairs),
                                  static_cast<double>(ep.unreachable_pairs)});
    }
  }

  void push_row(const RunContext& ctx, int island, const dvfs::WindowMeasurements& m) {
    const dvfs::DvfsManager& mgr = ctx.bank.manager(island);
    obs::IslandWindowRow row;
    row.f_hz = mgr.current_frequency();
    row.vdd = mgr.current_voltage();
    row.avg_delay_ns = m.avg_delay_ns;
    row.lambda_offered = m.lambda_node_offered;
    row.occupancy = m.avg_buffer_occupancy;
    row.ctrl_error = mgr.controller().last_error();
    row.throttled = ctx.island(island).cap > 0.0 ? 1 : 0;
    timeline_.island_rows.push_back(row);
  }

  void summarize(const RunContext& ctx, TelemetryResult& tr) const {
    tr.enabled = true;
    tr.mode = obs::to_string(ctx.cfg.telemetry.mode);
    tr.windows = static_cast<std::uint64_t>(timeline_.windows());
    const int nr = ctx.net.num_routers();
    std::vector<TelemetryResult::HotTile> tiles;
    for (int r = 0; r < nr; ++r) {
      const noc::Router& rt = ctx.net.router_at(r);
      const noc::RouterStallCounters& st = rt.stalls();
      tr.stall_route += st.route;
      tr.stall_vc_alloc += st.vc_alloc;
      tr.stall_switch += st.sw;
      tr.stall_credit += st.credit;
      tr.stall_drop += st.drop;
      tr.busy_vc_cycles += st.busy_vc_cycles;
      const std::uint64_t fw = rt.activity().crossbar_traversals;
      tr.flits_forwarded += fw;
      tiles.push_back({r, fw});
    }
    tr.top_tiles = top_k(std::move(tiles), [](const auto& a, const auto& b) {
      return a.flits != b.flits ? a.flits > b.flits : a.tile < b.tile;
    });

    std::vector<TelemetryResult::HotLink> links;
    for (const obs::LinkInfo& li : ctx.net.link_table()) {
      links.push_back({li.src_router, li.dst_router,
                       ctx.net.router_at(li.src_router).port_flits_forwarded(li.src_port)});
    }
    tr.top_links = top_k(std::move(links), [](const auto& a, const auto& b) {
      if (a.flits != b.flits) return a.flits > b.flits;
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
  }

  noc::Network& net_;
  const bool full_;
  obs::TelemetryRegistry registry_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  obs::Timeline timeline_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::vector<std::uint8_t> settled_;  ///< first-settle instant already recorded
  std::size_t fault_epochs_seen_ = 0;
};

}  // namespace

std::unique_ptr<RunPlugin> make_telemetry_plugin(RunContext& ctx) {
  return std::make_unique<TelemetryPlugin>(ctx);
}

}  // namespace nocdvfs::sim
