#pragma once

/// \file trace.hpp
/// The `.noctrace` packet-trace format: capture the exact injected packet
/// stream of any workload once, replay it bit-identically under every DVFS
/// policy. A trace is the ground truth for apples-to-apples controller
/// comparisons — synthetic/matrix/request–reply workloads regenerate
/// traffic stochastically, so only a recorded stream lets two policies see
/// the *same* packets.
///
/// Format v1 (all integers little-endian, fixed-width):
///
///   offset size  field
///   0      8     magic "NOCTRACE"
///   8      2     version (= 1)
///   10     2     header_bytes (= 40; future versions may extend)
///   12     2     mesh width the trace was recorded on
///   14     2     mesh height
///   16     4     flit width in bits
///   20     4     reserved (0)
///   24     8     node clock in Hz (IEEE-754 double)
///   32     8     packet count (backpatched by TraceWriter::close)
///   40     …     packet records, 12 bytes each:
///                  4  delta of inject_node_cycle vs the previous record
///                     (the first record's delta is from cycle 0)
///                  2  src node id   (row-major over the recorded mesh)
///                  2  dst node id
///                  2  packet size in flits
///                  1  traffic class
///                  1  reserved (0)
///
/// Records are ordered by non-decreasing inject_node_cycle; within one
/// cycle, file order is the injection order. The reader validates the
/// magic, version, dimensions, exact file size (header + 12·count), and
/// per-record node-id/size ranges, so truncated or corrupt files are
/// rejected up front instead of replaying garbage.

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace nocdvfs::trace {

inline constexpr char kTraceMagic[8] = {'N', 'O', 'C', 'T', 'R', 'A', 'C', 'E'};
inline constexpr std::uint16_t kTraceVersion = 1;
inline constexpr std::uint16_t kTraceHeaderBytes = 40;
inline constexpr std::size_t kTraceRecordBytes = 12;

struct TraceHeader {
  std::uint16_t width = 0;       ///< mesh the trace was recorded on
  std::uint16_t height = 0;
  std::uint32_t flit_bits = 0;
  double f_node_hz = 0.0;        ///< node clock the inject cycles count
  std::uint64_t packet_count = 0;

  int num_nodes() const noexcept { return static_cast<int>(width) * height; }
};

/// One injected packet. `inject_node_cycle` counts node clock edges from
/// the start of the recorded run (cycle 0 = the first traffic tick).
struct TracePacket {
  std::uint64_t inject_node_cycle = 0;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  std::uint16_t flits = 0;
  std::uint8_t traffic_class = 0;

  friend bool operator==(const TracePacket&, const TracePacket&) = default;
};

/// Streaming writer. Records must arrive in non-decreasing cycle order;
/// `close()` (or destruction) flushes and backpatches the packet count in
/// the header so readers can validate the file size exactly.
class TraceWriter {
 public:
  TraceWriter(const std::string& path, const TraceHeader& header);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const TracePacket& packet);
  void close();

 private:
  std::string path_;
  TraceHeader header_;
  std::ofstream out_;
  std::uint64_t count_ = 0;
  std::uint64_t last_cycle_ = 0;
  bool open_ = false;
};

/// Streaming reader: validates the header and the exact file size at open,
/// then yields records one at a time. Each SweepRunner worker replaying a
/// trace opens its own reader — there is no shared mutable state.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  const TraceHeader& header() const noexcept { return header_; }

  /// Next record, or nullopt after the last one.
  std::optional<TracePacket> next();

  std::uint64_t packets_read() const noexcept { return read_; }

 private:
  std::string path_;
  TraceHeader header_;
  std::ifstream in_;
  std::uint64_t read_ = 0;
  std::uint64_t prev_cycle_ = 0;
};

/// In-memory trace: header plus the full record list. Replay loads the
/// whole trace up front (12 bytes per packet) so looping and transforms
/// are O(1) per injection.
struct Trace {
  TraceHeader header;
  std::vector<TracePacket> packets;

  static Trace load(const std::string& path);

  std::uint64_t total_flits() const noexcept;
  /// Last inject cycle + 1 (0 for an empty trace).
  std::uint64_t span_cycles() const noexcept;
  /// Mean offered load in flits per node cycle per node over the span,
  /// for a mesh of `num_nodes` nodes (defaults to the recorded mesh).
  double mean_lambda(int num_nodes = 0) const noexcept;
};

}  // namespace nocdvfs::trace
