#include "trace/trace_traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nocdvfs::trace {

TraceTraffic::TraceTraffic(Trace trace, const TraceReplayOptions& options)
    : trace_(std::move(trace)), options_(options) {
  if (!(options.scale > 0.0)) {
    throw std::invalid_argument("TraceTraffic: scale must be positive");
  }
  if ((options.mesh_width == 0) != (options.mesh_height == 0)) {
    throw std::invalid_argument("TraceTraffic: set both mesh_width and mesh_height or neither");
  }
  const int src_w = trace_.header.width;
  const int src_h = trace_.header.height;
  const int dst_w = options.mesh_width > 0 ? options.mesh_width : src_w;
  const int dst_h = options.mesh_height > 0 ? options.mesh_height : src_h;
  if (dst_w < 1 || dst_h < 1) {
    throw std::invalid_argument("TraceTraffic: target mesh must be at least 1x1");
  }
  options_.mesh_width = dst_w;
  options_.mesh_height = dst_h;

  // Coordinate folding preserves locality better than a flat id modulus.
  remap_.resize(static_cast<std::size_t>(src_w) * static_cast<std::size_t>(src_h));
  for (int y = 0; y < src_h; ++y) {
    for (int x = 0; x < src_w; ++x) {
      remap_[static_cast<std::size_t>(y * src_w + x)] =
          static_cast<noc::NodeId>((y % dst_h) * dst_w + (x % dst_w));
    }
  }

  const std::uint64_t span = trace_.span_cycles();
  scaled_span_ = std::max<std::uint64_t>(1, scaled_cycle(span));
  offered_lambda_ = trace_.packets.empty()
                        ? 0.0
                        : static_cast<double>(trace_.total_flits()) /
                              (static_cast<double>(scaled_span_) *
                               static_cast<double>(dst_w) * static_cast<double>(dst_h));
}

TraceTraffic::TraceTraffic(const std::string& path, const TraceReplayOptions& options)
    : TraceTraffic(Trace::load(path), options) {}

std::uint64_t TraceTraffic::scaled_cycle(std::uint64_t cycle) const noexcept {
  if (options_.scale == 1.0) return cycle;  // exact identity for plain replay
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(cycle) / options_.scale));
}

void TraceTraffic::node_tick(common::Picoseconds now, std::uint64_t noc_cycle,
                             noc::Network& net) {
  while (cursor_ < trace_.packets.size()) {
    const TracePacket& p = trace_.packets[cursor_];
    if (loop_base_ + scaled_cycle(p.inject_node_cycle) > tick_) break;
    net.ni(remap_[p.src]).enqueue_packet(remap_[p.dst], p.flits, now, noc_cycle,
                                         p.traffic_class);
    ++cursor_;
    if (cursor_ == trace_.packets.size() && options_.loop) {
      cursor_ = 0;
      loop_base_ += scaled_span_;
    }
  }
  ++tick_;
}

}  // namespace nocdvfs::trace
