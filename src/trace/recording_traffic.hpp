#pragma once

/// \file recording_traffic.hpp
/// `RecordingTraffic` — a transparent `TrafficModel` decorator that streams
/// every packet its inner model injects to a `TraceWriter`, while passing
/// the traffic through unchanged. Wraps *any* workload (synthetic, matrix,
/// request–reply, custom factories): capture happens at the network
/// interface's `enqueue_packet` boundary via the network's injection
/// observer, so closed-loop models are recorded faithfully too — a
/// recorded reply becomes an open-loop packet at its recorded cycle.
///
/// Scenario wiring: setting `record=<path>` on any scenario interposes this
/// decorator (see `sim::make_simulator`), and the produced `.noctrace`
/// replays via `Workload::Trace`.

#include <cstdint>
#include <memory>

#include "trace/trace.hpp"
#include "traffic/traffic_model.hpp"

namespace nocdvfs::trace {

class RecordingTraffic final : public traffic::TrafficModel {
 public:
  /// The writer's header mesh must match the network this model will run
  /// on; packets outside it are rejected by the writer.
  RecordingTraffic(std::unique_ptr<traffic::TrafficModel> inner,
                   std::unique_ptr<TraceWriter> writer);

  /// Detaches the injection observer (the network must still be alive —
  /// `Simulator` destroys the traffic model before the network) and closes
  /// the writer.
  ~RecordingTraffic() override;

  void node_tick(common::Picoseconds now, std::uint64_t noc_cycle,
                 noc::Network& net) override;
  void on_packet_delivered(const noc::PacketRecord& record,
                           common::Picoseconds now) override {
    inner_->on_packet_delivered(record, now);
  }
  double offered_flits_per_node_cycle() const noexcept override {
    return inner_->offered_flits_per_node_cycle();
  }
  /// Transparent decorator: reports the inner workload's name.
  const char* name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<traffic::TrafficModel> inner_;
  std::unique_ptr<TraceWriter> writer_;
  noc::Network* net_ = nullptr;   ///< network the observer is installed on
  std::uint64_t node_cycle_ = 0;  ///< node ticks seen so far (= trace timestamps)
};

}  // namespace nocdvfs::trace
