// Host-observability plug-in: wall clock, peak RSS, why tiles stayed awake,
// how island steps were shared among threads and manifest (always), phase
// profiler and step-worker tracks (`prof=on`) and memory breakdown
// (`mem=on`). Host facts only; nothing feeds back into the simulated
// metrics.

#include <chrono>

#include "obs/manifest.hpp"
#include "obs/memstats.hpp"
#include "obs/prof.hpp"
#include "sim/run_plugin.hpp"

namespace nocdvfs::sim {
namespace {

class HostPlugin final : public RunPlugin {
 public:
  /// The wall clock starts, and the profiler is installed, before the
  /// run's root scope opens. The collector is thread-local, so parallel
  /// sweep workers with mixed prof settings never contaminate each other.
  /// With `prof=on` the step workers also time their regions.
  explicit HostPlugin(const RunContext& ctx) : t0_(std::chrono::steady_clock::now()) {
    if (ctx.cfg.prof) {
      collector_.install();
      ctx.net.set_step_timing(true);
    }
  }

  void post_run(RunContext& ctx, RunResult& result) override {
    if (ctx.cfg.prof) {
      collector_.uninstall();
      result.host.profile = collector_.take();
      result.host.step_workers = ctx.net.step_worker_stats();
    }
    result.host.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    result.host.peak_rss_bytes = obs::sample_process_memory().peak_rss_bytes;

    // Scenario keys + seed (sufficient to re-run the point), build info,
    // host facts, and the mem=on byte breakdown.
    obs::RunManifest& mf = result.manifest;
    for (const auto& [k, v] : ctx.cfg.manifest_keys) mf.set("scenario." + k, v);
    obs::fill_build_info(mf);
    // The ~0.2 s calibration spin runs once per process, and only for
    // profiled runs, so it never pollutes a timed region.
    if (ctx.cfg.prof) mf.set_double("host.calib_mops", obs::host_calib_mops());
    mf.set_double("host.wall_s", result.host.wall_s);
    mf.set("host.peak_rss_bytes", result.host.peak_rss_bytes);
    // Why skip-idle kept tiles awake, in kept tile-steps over the whole run
    // (all zero with skip-idle off).
    const noc::AwakeTileSteps awake = ctx.net.awake_tile_steps();
    mf.set("noc.awake.buffered_flits", awake.buffered_flits);
    mf.set("noc.awake.router_input", awake.router_input);
    mf.set("noc.awake.ni_busy", awake.ni_busy);
    mf.set("noc.awake.ni_input", awake.ni_input);
    // How the island steps were shared among host threads.
    mf.set("noc.step_workers", static_cast<std::uint64_t>(ctx.net.step_workers()));
    mf.set("noc.parallel_steps", ctx.net.parallel_steps());
    mf.set("noc.serial_steps", ctx.net.serial_steps());
    if (!ctx.cfg.mem) return;
    const obs::MemBreakdown mem = memory(ctx, result);
    for (const obs::MemOwner& o : mem.owners) {
      mf.set("mem." + o.name + ".objects", o.objects);
      mf.set("mem." + o.name + ".bytes", o.bytes);
    }
    mf.set("mem.total_bytes", mem.total_bytes());
  }

 private:
  static obs::MemBreakdown memory(const RunContext& ctx, const RunResult& result) {
    static const obs::Timeline kNoTimeline;
    const obs::Timeline& tl = ctx.timeline != nullptr ? *ctx.timeline : kNoTimeline;
    obs::MemBreakdown mem;
    const std::uint64_t flits =
        ctx.net.buffered_flits_now() + ctx.net.total_source_backlog_flits();
    mem.add("flits_in_flight", flits, flits * sizeof(noc::Flit));
    std::uint64_t tl_bytes = tl.window_t_ps.size() * sizeof(std::uint64_t) +
                             tl.island_rows.size() * sizeof(obs::IslandWindowRow) +
                             tl.events.size() * sizeof(obs::TimelineEvent);
    for (const obs::MetricSeries& s : tl.series) {
      tl_bytes += s.counts.size() * sizeof(std::uint64_t) + s.gauges.size() * sizeof(double);
    }
    std::uint64_t flight_bytes = tl.flights.size() * sizeof(obs::FlightRecord);
    for (const obs::FlightRecord& f : tl.flights) {
      flight_bytes += f.events.size() * sizeof(obs::FlightEvent);
    }
    mem.add("timeline", tl.series.size(), tl_bytes);
    mem.add("flight_recorder", tl.flights.size(), flight_bytes);
    const DelayDistResult& dd = result.delay_dist;
    const std::uint64_t hists = 2 + dd.island_delay_ns.size() + dd.hop_delay_ns.size();
    mem.add("histogram_pool", hists, hists * sizeof(obs::LatencyHistogram));
    std::uint64_t trace_points = result.vf_trace.size();
    for (const IslandResult& isl : result.islands) trace_points += isl.vf_trace.size();
    mem.add("vf_traces", trace_points, trace_points * sizeof(dvfs::VfTracePoint));
    mem.add("window_trace", result.window_trace.size(),
            result.window_trace.size() * sizeof(WindowSample));
    return mem;
  }

  std::chrono::steady_clock::time_point t0_;
  obs::prof::Collector collector_;
};

}  // namespace

std::unique_ptr<RunPlugin> make_host_plugin(const RunContext& ctx) {
  return std::make_unique<HostPlugin>(ctx);
}

}  // namespace nocdvfs::sim
