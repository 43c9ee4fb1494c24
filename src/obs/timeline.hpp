#pragma once

/// \file timeline.hpp
/// Timeline serialization: a versioned little-endian binary container
/// (`.nocobs`) for large runs and a Chrome trace-event / Perfetto JSON
/// export for interactive inspection.
///
/// ## Binary format (`.nocobs`, version 4)
///
/// The layout is written down once, as the field walk `walk` in
/// timeline.cpp: it names every field in file order, and the same walk
/// writes a file and reads it back. The file opens with the magic "NOCO"
/// and a u32 version. Integers and doubles are little-endian on every host
/// (common/binary_io.hpp); a string is a u32 length and its bytes, a list a
/// u32 count and its entries.
///
/// Version 2 added the sampled packet flights and the latency histograms,
/// version 3 the host sections (manifest, phases, worker spans and worker
/// stats). A file of an older version reads back with the newer sections
/// empty. Version 4 changes no layout: it marks the eight-sub-bucket
/// histogram indices (obs/latency_hist.hpp). A v2/v3 file's histograms used
/// another bucket scheme; the reader checks and then drops them.
///
/// The reader checks every count before anything is sized from it: its
/// entries, each at least as long as its smallest encoding, must fit in the
/// bytes left. It rejects a histogram whose buckets are more than the
/// scheme has, not strictly ascending, out of range or not summing to its
/// count, or whose min exceeds max, and it rejects bytes after the last
/// section.
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

/// Reads a binary timeline back. Throws std::runtime_error naming `path`
/// on a bad magic/version or a truncated, oversized or malformed file.
Timeline read_timeline_binary(const std::string& path);

/// Writes the Perfetto / Chrome trace-event JSON view of `timeline`.
void write_timeline_perfetto(const Timeline& timeline, std::ostream& os);
void write_timeline_perfetto(const Timeline& timeline, const std::string& path);

}  // namespace nocdvfs::obs
