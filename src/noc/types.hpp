#pragma once

/// \file types.hpp
/// Core vocabulary of the NoC substrate: node/packet identifiers, mesh
/// coordinates, ports, flits and credits.

#include <cstdint>

#include "common/units.hpp"

namespace nocdvfs::noc {

using NodeId = std::int32_t;      ///< 0 .. N-1, row-major over the mesh
using PacketId = std::uint64_t;

struct Coord {
  int x = 0;  ///< increases eastwards
  int y = 0;  ///< increases northwards
  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Router ports of a 2-D mesh. The numeric values index port arrays.
enum class PortDir : std::uint8_t { North = 0, East = 1, South = 2, West = 3, Local = 4 };

inline constexpr int kMeshPorts = 5;

/// Compile-time ceiling on router radix across all topologies (dragonfly
/// locals + globals + concentration). Router port arrays are sized to this
/// so generalizing the radix costs the mesh hot path nothing.
inline constexpr int kMaxPorts = 16;

/// Bits of Flit::route_flags — per-packet routing state carried in the
/// head flit and interpreted by topo::RoutingEngine.
inline constexpr std::uint8_t kRouteFlagPhase1 = 1;       ///< Valiant leg 2 (toward dst)
inline constexpr std::uint8_t kRouteFlagUgalDecided = 2;  ///< UGAL source choice made
inline constexpr std::uint8_t kRouteFlagWentDown = 4;     ///< took a down edge (up*/down*)

constexpr int port_index(PortDir d) noexcept { return static_cast<int>(d); }

constexpr PortDir port_dir(int index) noexcept { return static_cast<PortDir>(index); }

/// Receiver of node wake-up notifications — implemented by the Network's
/// skip-idle stepping. Routers and NIs call `wake(target)` whenever they
/// push an item towards `target`'s clock-domain inputs (a flit downstream,
/// a credit upstream, a packet into a source queue), so a quiescent node
/// rejoins the activity list at its very next clock edge. Wiring is
/// optional: an unwired component (unit tests, skip_idle=false) pays one
/// null-pointer branch per push.
class WakeSink {
 public:
  virtual void wake(NodeId node) = 0;

 protected:
  ~WakeSink() = default;
};

/// One flow-control unit. Flits carry enough context (src/dst/timestamps)
/// to be self-describing at the ejection side; this mirrors the paper's
/// note that delay measurement only needs a timestamp in the head flit.
/// Fields are ordered by size so the struct packs into 48 bytes.
struct Flit {
  PacketId packet_id = 0;
  common::Picoseconds create_time_ps = 0;  ///< generation instant (node domain)
  std::uint64_t create_noc_cycle = 0;      ///< NoC cycle count at generation
  NodeId src = -1;
  NodeId dst = -1;
  /// Valiant intermediate *router* for UGAL non-minimal routing; -1 when
  /// the packet routes minimally. Set once at the source router.
  NodeId intm = -1;
  std::uint16_t flit_index = 0;   ///< position within the packet
  std::uint16_t packet_size = 0;  ///< total flits in the packet
  std::uint16_t hops = 0;         ///< routers traversed so far
  bool head = false;
  bool tail = false;
  std::uint8_t vc = 0;           ///< VC on the link being traversed
  std::uint8_t route_flags = 0;  ///< kRouteFlag* bits (routing-engine state)
  /// Workload-defined label carried end to end (e.g. 0 = request, 1 =
  /// reply); the metrics layer splits delay statistics per class.
  std::uint8_t traffic_class = 0;
};
static_assert(sizeof(Flit) == 48, "Flit fields should pack into 48 bytes");

/// Credit returned upstream when a buffer slot frees.
struct Credit {
  std::uint8_t vc = 0;
};

/// Completed-packet record produced at the ejection side; the raw material
/// for both the metrics layer and the DMSD delay measurement.
struct PacketRecord {
  PacketId packet_id = 0;
  NodeId src = -1;
  NodeId dst = -1;
  std::uint16_t size = 0;
  std::uint16_t hops = 0;
  std::uint8_t traffic_class = 0;
  common::Picoseconds create_time_ps = 0;
  common::Picoseconds eject_time_ps = 0;
  std::uint64_t create_noc_cycle = 0;
  std::uint64_t eject_noc_cycle = 0;

  double delay_ns() const noexcept {
    return common::ns_from_ps(eject_time_ps - create_time_ps);
  }
  /// Latency in NoC cycles. With voltage–frequency islands the creation
  /// stamp counts the reference domain while ejection counts the
  /// destination island's (possibly slower) clock, so the difference is
  /// clamped at zero; `delay_ns` is the exact cross-domain measure.
  std::uint64_t latency_cycles() const noexcept {
    return eject_noc_cycle >= create_noc_cycle ? eject_noc_cycle - create_noc_cycle : 0;
  }
};

}  // namespace nocdvfs::noc
