#pragma once

/// \file trace_traffic.hpp
/// `TraceTraffic` — deterministic replay of a recorded `.noctrace` packet
/// stream as a `TrafficModel`. The same trace replayed under RMSD vs DMSD
/// presents the *identical* packet sequence to both controllers, which no
/// stochastic workload can guarantee.
///
/// Replay transforms:
///  * **rate scale** — a time-warp factor: scale 2 injects the recorded
///    stream in half the node cycles (2× offered load), scale 0.5 spreads
///    it over twice the span. Sweeping the scale walks a recorded workload
///    to saturation exactly like a λ axis walks a synthetic one.
///  * **node remap** — replays a trace onto a different mesh by folding
///    recorded coordinates: (x, y) → (x mod W', y mod H'). Identity when
///    the target matches the recorded mesh.
///  * **loop** — restart the stream when it ends (offset by the scaled
///    span), turning a finite capture into a steady-state source.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "traffic/traffic_model.hpp"

namespace nocdvfs::trace {

struct TraceReplayOptions {
  double scale = 1.0;    ///< time-warp: > 1 compresses the timeline (higher load)
  bool loop = false;     ///< restart the stream when it ends
  int mesh_width = 0;    ///< target mesh for node remapping; 0 = recorded mesh
  int mesh_height = 0;
};

class TraceTraffic final : public traffic::TrafficModel {
 public:
  TraceTraffic(Trace trace, const TraceReplayOptions& options = {});
  /// Convenience: each instance opens and loads the file itself, so
  /// parallel sweep workers share nothing.
  explicit TraceTraffic(const std::string& path, const TraceReplayOptions& options = {});

  void node_tick(common::Picoseconds now, std::uint64_t noc_cycle,
                 noc::Network& net) override;
  double offered_flits_per_node_cycle() const noexcept override { return offered_lambda_; }
  const char* name() const noexcept override { return "trace"; }

  const Trace& trace() const noexcept { return trace_; }

 private:
  std::uint64_t scaled_cycle(std::uint64_t cycle) const noexcept;

  Trace trace_;
  TraceReplayOptions options_;
  std::vector<noc::NodeId> remap_;   ///< recorded node id → target node id
  std::uint64_t scaled_span_ = 0;    ///< loop period in target node cycles
  double offered_lambda_ = 0.0;

  std::uint64_t tick_ = 0;           ///< node ticks elapsed in the replay
  std::size_t cursor_ = 0;
  std::uint64_t loop_base_ = 0;      ///< cycle offset of the current lap
};

}  // namespace nocdvfs::trace
