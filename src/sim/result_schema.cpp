#include "sim/result_schema.hpp"

#include "common/strings.hpp"
#include "sim/sweep.hpp"
#include "vfi/residency.hpp"

namespace nocdvfs::sim {

namespace {

using R = const SweepRecord&;

constexpr FieldClass kIdentity = FieldClass::Identity;
constexpr FieldClass kConfig = FieldClass::Config;
constexpr FieldClass kMetric = FieldClass::Metric;
constexpr FieldClass kHost = FieldClass::Host;

FieldValue i64(std::int64_t v) { return v; }
FieldValue text(const char* s) { return std::string(s); }

/// "lambda=0.2 policy=dmsd" without the axis names: "0.2 dmsd".
std::string point_label(R x) {
  std::string out;
  for (std::size_t i = 0; i < x.point.coordinates.size(); ++i) {
    if (i > 0) out += ' ';
    out += x.point.coordinates[i];
  }
  return out;
}

/// "i0=600MHz:0.25|1000MHz:0.75;i1=..." — one entry per island.
std::string residency_cell(const RunResult& r) {
  std::string out;
  for (const IslandResult& isl : r.islands) {
    if (!out.empty()) out += ';';
    out += 'i' + std::to_string(isl.island) + '=' +
           vfi::residency_to_string(isl.freq_residency, r.measure_duration_ps);
  }
  return out;
}

/// "i0=12.4;i1=..." — per-island average power in mW, each in shortest
/// round-trip form so a diff of the cell sees every bit.
std::string island_power_cell(const RunResult& r) {
  std::string out;
  for (const IslandResult& isl : r.islands) {
    if (!out.empty()) out += ';';
    out += 'i' + std::to_string(isl.island) + '=' +
           common::format_double(isl.power.average_power_mw());
  }
  return out;
}

std::string hot_link(const TelemetryResult& tel) {
  if (tel.top_links.empty()) return "";
  return std::to_string(tel.top_links.front().src) + "->" +
         std::to_string(tel.top_links.front().dst);
}

const std::vector<ResultField> kSchema = {
    // --- identity ---
    {"group", "", kIdentity, [](R x) -> FieldValue { return x.group; }},
    {"index", "", kIdentity, [](R x) -> FieldValue { return x.point.index; }},
    {"point", "", kIdentity, [](R x) -> FieldValue { return point_label(x); }},
    // --- scenario ---
    {"workload", "", kConfig,
     [](R x) -> FieldValue { return text(to_string(x.point.scenario.workload)); }},
    {"pattern", "", kConfig, [](R x) -> FieldValue { return x.point.scenario.pattern; }},
    {"app", "", kConfig, [](R x) -> FieldValue { return x.point.scenario.app; }},
    {"lambda", "flits/node-cycle/node", kConfig,
     [](R x) -> FieldValue { return x.point.scenario.lambda; }},
    {"speed", "", kConfig, [](R x) -> FieldValue { return x.point.scenario.speed; }},
    {"policy", "", kConfig,
     [](R x) -> FieldValue { return text(to_string(x.point.scenario.policy.policy)); }},
    {"seed", "", kConfig, [](R x) -> FieldValue { return x.point.scenario.seed; }},
    {"control_period", "node cycles", kConfig,
     [](R x) -> FieldValue { return x.point.scenario.control_period; }},
    {"vf_levels", "", kConfig, [](R x) -> FieldValue { return i64(x.point.scenario.vf_levels); }},
    {"width", "nodes", kConfig,
     [](R x) -> FieldValue { return i64(x.point.scenario.network.width); }},
    {"height", "nodes", kConfig,
     [](R x) -> FieldValue { return i64(x.point.scenario.network.height); }},
    {"concentration", "nodes/router", kConfig,
     [](R x) -> FieldValue { return i64(x.point.scenario.network.concentration); }},
    // --- headline metrics ---
    {"avg_delay_ns", "ns", kMetric, [](R x) -> FieldValue { return x.result.avg_delay_ns; }},
    {"p50_delay_ns", "ns", kMetric, [](R x) -> FieldValue { return x.result.p50_delay_ns; }},
    {"p95_delay_ns", "ns", kMetric, [](R x) -> FieldValue { return x.result.p95_delay_ns; }},
    {"p99_delay_ns", "ns", kMetric, [](R x) -> FieldValue { return x.result.p99_delay_ns; }},
    {"avg_latency_cycles", "noc cycles", kMetric,
     [](R x) -> FieldValue { return x.result.avg_latency_cycles; }},
    {"avg_hops", "hops", kMetric, [](R x) -> FieldValue { return x.result.avg_hops; }},
    {"avg_frequency_ghz", "GHz", kMetric,
     [](R x) -> FieldValue { return x.result.avg_frequency_ghz(); }},
    {"avg_voltage", "V", kMetric, [](R x) -> FieldValue { return x.result.avg_voltage; }},
    {"power_mw", "mW", kMetric, [](R x) -> FieldValue { return x.result.power_mw(); }},
    {"energy_per_bit_pj", "pJ/bit", kMetric,
     [](R x) -> FieldValue { return x.result.energy_per_bit_pj; }},
    {"energy_delay_product_js", "J*s", kMetric,
     [](R x) -> FieldValue { return x.result.energy_delay_product_js; }},
    {"delivered_flits_per_node_cycle", "flits/node-cycle/node", kMetric,
     [](R x) -> FieldValue { return x.result.delivered_flits_per_node_cycle; }},
    {"avg_buffer_occupancy", "fraction", kMetric,
     [](R x) -> FieldValue { return x.result.avg_buffer_occupancy; }},
    {"packets_delivered", "packets", kMetric,
     [](R x) -> FieldValue { return x.result.packets_delivered; }},
    {"saturated", "", kMetric, [](R x) -> FieldValue { return x.result.saturated; }},
    {"controller_settled", "", kMetric,
     [](R x) -> FieldValue { return x.result.controller_settled; }},
    {"warmup_node_cycles_used", "node cycles", kMetric,
     [](R x) -> FieldValue { return x.result.warmup_node_cycles_used; }},
    // --- voltage-frequency islands ---
    {"islands", "", kConfig, [](R x) -> FieldValue { return x.point.scenario.islands; }},
    {"num_islands", "", kConfig,
     [](R x) -> FieldValue { return x.result.islands.size(); }},
    {"freq_residency", "", kMetric, [](R x) -> FieldValue { return residency_cell(x.result); }},
    {"island_power_mw", "mW", kMetric,
     [](R x) -> FieldValue { return island_power_cell(x.result); }},
    {"cdc_sync_cycles", "noc cycles", kConfig,
     [](R x) -> FieldValue { return i64(x.point.scenario.network.cdc_sync_cycles); }},
    // --- thermal ---
    {"thermal", "", kConfig, [](R x) -> FieldValue { return x.result.thermal.enabled; }},
    {"peak_temp_c", "C", kMetric, [](R x) -> FieldValue { return x.result.thermal.peak_temp_c; }},
    {"mean_temp_c", "C", kMetric, [](R x) -> FieldValue { return x.result.thermal.mean_temp_c; }},
    {"throttle_residency", "fraction", kMetric,
     [](R x) -> FieldValue { return x.result.thermal.throttle_residency; }},
    {"leakage_j", "J", kMetric, [](R x) -> FieldValue { return x.result.thermal.leakage_j; }},
    {"leakage_ref_j", "J", kMetric,
     [](R x) -> FieldValue { return x.result.thermal.leakage_ref_j; }},
    {"final_peak_temp_c", "C", kMetric,
     [](R x) -> FieldValue { return x.result.thermal.final_peak_temp_c; }},
    {"throttle_events", "events", kMetric,
     [](R x) -> FieldValue { return x.result.thermal.throttle_events; }},
    // --- topology, routing and faults ---
    {"topology", "", kConfig,
     [](R x) -> FieldValue { return text(topo::to_string(x.point.scenario.network.topology)); }},
    {"routing", "", kConfig,
     [](R x) -> FieldValue { return text(noc::to_string(x.point.scenario.network.routing)); }},
    {"faults", "", kConfig,
     [](R x) -> FieldValue {
       const std::string& faults = x.point.scenario.network.faults;
       return faults.empty() ? std::string("off") : faults;
     }},
    {"max_hops", "hops", kMetric, [](R x) -> FieldValue { return x.result.max_hops; }},
    {"dropped_packets", "packets", kMetric,
     [](R x) -> FieldValue { return x.result.dropped_packets; }},
    {"unreachable_pairs", "pairs", kMetric,
     [](R x) -> FieldValue { return x.result.unreachable_pairs; }},
    {"rerouted_pairs", "pairs", kMetric,
     [](R x) -> FieldValue { return x.result.rerouted_pairs; }},
    {"dropped_flits", "flits", kMetric, [](R x) -> FieldValue { return x.result.dropped_flits; }},
    {"failed_links", "links", kMetric,
     [](R x) -> FieldValue { return i64(x.result.failed_links); }},
    {"failed_routers", "routers", kMetric,
     [](R x) -> FieldValue { return i64(x.result.failed_routers); }},
    // --- telemetry ---
    {"telemetry", "", kConfig, [](R x) -> FieldValue { return x.result.telemetry.mode; }},
    {"stall_route", "vc cycles", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.stall_route; }},
    {"stall_vc_alloc", "vc cycles", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.stall_vc_alloc; }},
    {"stall_switch", "vc cycles", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.stall_switch; }},
    {"stall_credit", "vc cycles", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.stall_credit; }},
    {"stall_drop", "vc cycles", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.stall_drop; }},
    {"hot_tile", "", kMetric,
     [](R x) -> FieldValue {
       const auto& tiles = x.result.telemetry.top_tiles;
       return i64(tiles.empty() ? -1 : tiles.front().tile);
     }},
    {"hot_tile_flits", "flits", kMetric,
     [](R x) -> FieldValue {
       const auto& tiles = x.result.telemetry.top_tiles;
       return tiles.empty() ? std::uint64_t{0} : tiles.front().flits;
     }},
    {"hot_link", "", kMetric, [](R x) -> FieldValue { return hot_link(x.result.telemetry); }},
    {"hot_link_flits", "flits", kMetric,
     [](R x) -> FieldValue {
       const auto& links = x.result.telemetry.top_links;
       return links.empty() ? std::uint64_t{0} : links.front().flits;
     }},
    {"telemetry_windows", "windows", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.windows; }},
    {"busy_vc_cycles", "vc cycles", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.busy_vc_cycles; }},
    {"flits_forwarded", "flits", kMetric,
     [](R x) -> FieldValue { return x.result.telemetry.flits_forwarded; }},
    // --- latency distribution ---
    {"min_delay_ns", "ns", kMetric, [](R x) -> FieldValue { return x.result.min_delay_ns; }},
    {"max_delay_ns", "ns", kMetric, [](R x) -> FieldValue { return x.result.max_delay_ns; }},
    // p50/p95/p99 and max are the headline columns above: one histogram.
    {"dist_p90_ns", "ns", kMetric,
     [](R x) -> FieldValue { return x.result.delay_dist.delay_ns.p90; }},
    {"dist_p999_ns", "ns", kMetric,
     [](R x) -> FieldValue { return x.result.delay_dist.delay_ns.p999; }},
    // --- host provenance ---
    {"host_wall_s", "s", kHost, [](R x) -> FieldValue { return x.result.host.wall_s; }},
    {"peak_rss_mb", "MiB", kHost,
     [](R x) -> FieldValue {
       return static_cast<double>(x.result.host.peak_rss_bytes) / (1024.0 * 1024.0);
     }},
    {"manifest", "", kHost, [](R x) -> FieldValue { return &x.result.manifest; }},
};

}  // namespace

const std::vector<ResultField>& result_schema() { return kSchema; }

const ResultField* find_result_field(std::string_view name) noexcept {
  for (const ResultField& field : kSchema) {
    if (field.name == name) return &field;
  }
  return nullptr;
}

}  // namespace nocdvfs::sim
