#pragma once

/// \file timeline.hpp
/// Timeline serialization: a versioned little-endian binary container
/// (`.nocobs`) for large runs and a Chrome trace-event / Perfetto JSON
/// export for interactive inspection.
///
/// ## Binary format (`.nocobs`, version 4)
///
/// All integers little-endian, strings length-prefixed (u32 + bytes):
///
///     u32 magic  'N''O''C''O' (0x4F434F4E)     u32 version
///     u32 width, height, num_routers, num_islands, concentration
///     f64 f_node_hz           u64 control_period_node_cycles
///     per island: str policy, u32 nodes
///     u32 num_windows; u64 window_t_ps[num_windows]
///     per (window, island) row-major: f64 f_hz, vdd, avg_delay_ns,
///         lambda_offered, occupancy, ctrl_error; u8 throttled
///     u32 num_links; per link: u32 src_router, src_port, dst_router
///     u32 num_series; per series: str name, u8 scope, u8 kind,
///         u32 entities, then windows*entities values
///         (u64 deltas for counters, f64 for gauges)
///     u32 num_events; per event: u8 kind, i32 island, u64 t_ps, f64 a, f64 b
///
/// Version 2 appends (a v1 file reads back with both sections empty):
///
///     u32 num_flights; per flight: u64 packet_id, i32 src, i32 dst,
///         i32 size_flits, u8 traffic_class, u64 create_t_ps,
///         u32 num_events; per event: u64 t_ps, i32 router, i32 arg, u8 stage
///     u32 num_histograms; per histogram: str label, u64 count, min, max,
///         u32 num_buckets; per bucket: u32 index, u64 count
///
///     The reader rejects a histogram whose buckets are more than
///     LatencyHistogram::kNumBuckets, not strictly ascending, out of range
///     or not summing to count, or whose min exceeds max.
///
/// Version 3 appends the host-observability sections (empty when reading
/// a v1/v2 file):
///
///     u32 num_manifest; per entry: str key, str value
///     u32 num_host_phases; per phase (preorder): str name, u32 depth,
///         u64 calls, inclusive_ns, exclusive_ns
///     u32 num_host_spans; per span: i32 worker, u64 point, t0_ns, t1_ns
///     u32 num_host_workers; per worker: i32 worker, u64 points, busy_ns
///
/// Version 4 changes no layout: it marks the eight-sub-bucket histogram
/// indices (obs/latency_hist.hpp). A v2/v3 file's histograms used another
/// bucket scheme; the reader checks and then drops them.
///
/// ## Perfetto JSON
///
/// `{"traceEvents": [...]}` with one process per island (pid = island + 1,
/// named via `process_name` metadata) plus pid 0 for network-scope events.
/// Control windows are "X" duration spans carrying the island row as args,
/// frequency is a "C" counter track, and actuations / throttle transitions
/// / fault epochs / settle points are "i" instants. Sampled packet flights
/// live in one extra process (pid = num_islands + 1): per router visit an
/// "X" hop span (args: route/VA/switch wait, out port) on a per-flight
/// track, connected by "s"/"t"/"f" flow events keyed on the packet id so
/// the journey renders as arrows across hops. A "host" process
/// (pid = num_islands + 2) carries the run's own phase profile — a flame
/// view reconstructed from the per-phase aggregates — and, for sweep
/// exports, one track per SweepRunner worker with its point spans and a
/// utilization summary in the thread name. Timestamps are µs
/// (trace-event convention), derived from the picosecond clock, and emitted
/// in non-decreasing order per track. Load the file at https://ui.perfetto.dev
/// or chrome://tracing.

#include <iosfwd>
#include <string>

#include "obs/telemetry.hpp"

namespace nocdvfs::obs {

/// Writes `timeline` to `path` in the binary format above. Throws
/// std::runtime_error on I/O failure.
void write_timeline_binary(const Timeline& timeline, const std::string& path);

/// Reads a binary timeline back. Throws std::runtime_error on a bad
/// magic/version or a truncated file.
Timeline read_timeline_binary(const std::string& path);

/// Writes the Perfetto / Chrome trace-event JSON view of `timeline`.
void write_timeline_perfetto(const Timeline& timeline, std::ostream& os);
void write_timeline_perfetto(const Timeline& timeline, const std::string& path);

}  // namespace nocdvfs::obs
