// Latency-distribution plug-in (`hist=on`): log-bucket histograms of every
// measured delivery's delay (overall, per destination island, per hop
// count) and latency, summarized into RunResult::delay_dist and, with
// telemetry on, snapshotted into the timeline.

#include <string>

#include "obs/latency_hist.hpp"
#include "sim/run_plugin.hpp"

namespace nocdvfs::sim {
namespace {

class HistPlugin final : public RunPlugin {
 public:
  explicit HistPlugin(const RunContext& ctx)
      : island_delay_(static_cast<std::size_t>(ctx.n_islands)) {}

  void on_delivery(const noc::PacketRecord& rec, int island) override {
    // Integer picoseconds: timestamps are integer ps, so this is the exact
    // delay (RunResult's double delay_ns is the same quantity scaled).
    const auto d_ps = static_cast<std::uint64_t>(rec.eject_time_ps - rec.create_time_ps);
    delay_ps_.record(d_ps);
    latency_cycles_.record(rec.latency_cycles());
    island_delay_[static_cast<std::size_t>(island)].record(d_ps);
    // One slice per hop count actually seen: `hops` is 16-bit, so the
    // slice vector is bounded without folding long paths together.
    if (rec.hops >= hop_delay_.size()) hop_delay_.resize(std::size_t{rec.hops} + 1);
    hop_delay_[rec.hops].record(d_ps);
  }

  void finalize(RunContext& ctx, RunResult& result) override {
    // Delay slices record integer picoseconds; the result reports ns like
    // every other delay field.
    DelayDistResult& dd = result.delay_dist;
    dd.enabled = true;
    dd.delay_ns = slice(delay_ps_, 1e-3);
    dd.latency_cycles = slice(latency_cycles_, 1.0);
    for (const auto& h : island_delay_) dd.island_delay_ns.push_back(slice(h, 1e-3));
    for (const auto& h : hop_delay_) dd.hop_delay_ns.push_back(slice(h, 1e-3));

    // Timeline v2 section, so nocdvfs_report can re-derive the percentile
    // tables offline.
    if (ctx.timeline == nullptr) return;
    std::vector<obs::HistogramSnapshot>& out = ctx.timeline->histograms;
    out.push_back(delay_ps_.snapshot("delay_ps"));
    out.push_back(latency_cycles_.snapshot("latency_cycles"));
    for (std::size_t i = 0; i < island_delay_.size(); ++i) {
      out.push_back(island_delay_[i].snapshot("island" + std::to_string(i) + "_delay_ps"));
    }
    for (std::size_t h = 0; h < hop_delay_.size(); ++h) {
      if (hop_delay_[h].empty()) continue;
      out.push_back(hop_delay_[h].snapshot("hops" + std::to_string(h) + "_delay_ps"));
    }
  }

 private:
  static DelayDistResult::Slice slice(const obs::LatencyHistogram& h, double scale) {
    DelayDistResult::Slice s;
    s.count = h.count();
    if (!h.empty()) {
      s.min = static_cast<double>(h.min()) * scale;
      s.max = static_cast<double>(h.max()) * scale;
      s.p50 = static_cast<double>(h.quantile(0.50)) * scale;
      s.p90 = static_cast<double>(h.quantile(0.90)) * scale;
      s.p95 = static_cast<double>(h.quantile(0.95)) * scale;
      s.p99 = static_cast<double>(h.quantile(0.99)) * scale;
      s.p999 = static_cast<double>(h.quantile(0.999)) * scale;
    }
    return s;
  }

  obs::LatencyHistogram delay_ps_;
  obs::LatencyHistogram latency_cycles_;
  std::vector<obs::LatencyHistogram> island_delay_;  ///< by destination island
  std::vector<obs::LatencyHistogram> hop_delay_;     ///< by hop count
};

}  // namespace

std::unique_ptr<RunPlugin> make_hist_plugin(const RunContext& ctx) {
  return std::make_unique<HistPlugin>(ctx);
}

}  // namespace nocdvfs::sim
