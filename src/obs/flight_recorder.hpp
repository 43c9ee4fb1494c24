#pragma once

/// \file flight_recorder.hpp
/// Packet flight recorder: deterministic 1-in-N sampling of whole packet
/// journeys. A packet is sampled iff
/// `splitmix64(packet_id ^ seed) % rate == 0` — a pure function of the
/// globally unique packet id, so the same scenario samples the same
/// packets on every run (and across hist/telemetry toggles). For a
/// sampled packet the recorder captures one span event per pipeline
/// milestone — NI injection, per-router head arrival / route decision /
/// VC grant / switch traversal, clock-domain crossings, and ejection —
/// timestamped in global picoseconds. The per-hop stage waits (route,
/// VC-allocation, switch+credit) are the differences of consecutive
/// milestones, i.e. the PR-8 stall taxonomy attributed to one packet's
/// hops.
///
/// Hooks sit behind the network's one-branch observer pattern (a null
/// recorder pointer is the off mode), so `pkt_trace=off` stays
/// bit-identical to a build without this file. Flights are bounded
/// (`max_flights`) for fixed memory; completed and still-in-flight
/// records are exported into the `.nocobs` timeline (v2) and rendered as
/// Perfetto flow events.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace nocdvfs::obs {

enum class FlightStage : std::uint8_t {
  Inject = 0,        ///< head flit entered the network at the source NI
  RouterArrive = 1,  ///< head flit buffered in a router input VC
  RouteComputed = 2, ///< RC stage chose the output port (arg = port)
  VcGranted = 3,     ///< VA stage granted an output VC (arg = vc)
  RouterDepart = 4,  ///< head flit crossed the switch onto a link (arg = port)
  CdcCross = 5,      ///< entered a new clock domain (arg = island)
  Eject = 6,         ///< tail flit consumed at the destination NI
  Drop = 7,          ///< packet dropped at a faulted router
};

const char* to_string(FlightStage stage) noexcept;

struct FlightEvent {
  std::uint64_t t_ps = 0;
  std::int32_t router = -1;  ///< router id, or -1 for NI-side events
  std::int32_t arg = 0;
  FlightStage stage = FlightStage::Inject;
};

struct FlightRecord {
  std::uint64_t packet_id = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int32_t size_flits = 0;
  std::uint8_t traffic_class = 0;
  std::uint64_t create_t_ps = 0;  ///< generation instant (source-queue entry)
  std::vector<FlightEvent> events;
};

class FlightRecorder {
 public:
  struct Config {
    std::uint64_t rate = 64;       ///< sample 1 in `rate` packets (>= 1)
    std::uint64_t seed = 0;
    std::size_t max_flights = 4096;
  };

  explicit FlightRecorder(Config cfg) : cfg_(cfg) {
    if (cfg_.rate == 0) cfg_.rate = 1;
  }

  /// Router-id -> island map, used to synthesize CdcCross events when two
  /// consecutive router visits sit in different clock domains.
  void set_router_islands(std::vector<std::int32_t> islands) {
    router_island_ = std::move(islands);
  }

  /// splitmix64 finalizer: the sampling hash.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  bool sampled(std::uint64_t packet_id) const noexcept {
    return cfg_.rate == 1 || mix(packet_id ^ cfg_.seed) % cfg_.rate == 0;
  }

  /// The network stamps the current global time once per island phase
  /// batch; all hooks fired inside it share this timestamp.
  void set_now(std::uint64_t t_ps) noexcept { now_ps_ = t_ps; }

  void on_inject(std::uint64_t id, std::int32_t src, std::int32_t dst,
                 std::int32_t size_flits, std::uint8_t traffic_class,
                 std::uint64_t create_t_ps);
  void on_router_arrive(std::uint64_t id, std::int32_t router);
  void on_route(std::uint64_t id, std::int32_t router, std::int32_t out_port);
  void on_vc_grant(std::uint64_t id, std::int32_t router, std::int32_t vc);
  void on_depart(std::uint64_t id, std::int32_t router, std::int32_t out_port);
  void on_eject(std::uint64_t id);
  void on_drop(std::uint64_t id, std::int32_t router);

  std::vector<FlightRecord> take_flights() { return std::move(flights_); }

 private:
  struct Active {
    std::size_t index;          ///< into flights_
    std::int32_t last_island;   ///< clock domain of the previous router visit
  };

  /// Active (not yet ejected/dropped) flight for `id`, or nullptr when the
  /// packet is unsampled, untracked, or past the flight cap.
  Active* active(std::uint64_t id);
  void append(std::size_t index, std::int32_t router, FlightStage stage,
              std::int32_t arg);

  Config cfg_;
  std::uint64_t now_ps_ = 0;
  std::vector<std::int32_t> router_island_;
  std::vector<FlightRecord> flights_;
  std::unordered_map<std::uint64_t, Active> active_;
};

}  // namespace nocdvfs::obs
