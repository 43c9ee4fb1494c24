#pragma once

/// \file network_interface.hpp
/// Per-node network interface — the node↔NoC clock-domain boundary.
///
/// Traffic generators run in the node clock domain and enqueue packets into
/// an unbounded source queue (its occupancy is exactly the latency the
/// paper's RMSD policy trades away). The injection side runs in the NoC
/// clock domain: it serializes one packet at a time into flits, picks a
/// virtual channel with available credits per packet, and pushes at most
/// one flit per NoC cycle towards the router's Local input port.
///
/// The ejection side receives flits from the router's Local output,
/// reassembles packets per VC, returns credits, and emits a PacketRecord on
/// each tail flit — the raw measurement both the metrics layer and the DMSD
/// controller consume (end-to-end delay including source queueing).

#include <deque>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "noc/channel.hpp"
#include "noc/types.hpp"
#include "power/activity.hpp"

namespace nocdvfs::obs {
class FlightRecorder;
}

namespace nocdvfs::noc {

struct NiConfig {
  int num_vcs = 8;
  int vc_buffer_depth = 4;  ///< credits towards the router's Local input
};

/// Observes every packet entering a source queue — the trace-recording
/// hook. Installed network-wide via `Network::set_injection_observer`; the
/// NI holds only a pointer so the uninstrumented hot path pays one branch.
/// `id` is the packet's globally unique id (see set_packet_id_source);
/// refused packets consume an id too, so the observer's record ordinal
/// always equals the id.
using InjectionObserver = std::function<void(PacketId id, NodeId src, NodeId dst,
                                             int size_flits, std::uint8_t traffic_class)>;

/// Answers "can an NI-to-NI packet currently be delivered?" under the
/// active fault set. Installed network-wide only when a FaultModel is
/// attached; a packet whose destination is unreachable at enqueue time is
/// counted generated *and* dropped, and never enters the source queue.
using ReachabilityFn = std::function<bool(NodeId src, NodeId dst)>;

class NetworkInterface {
 public:
  NetworkInterface(NodeId node, const NiConfig& cfg);

  NetworkInterface(const NetworkInterface&) = delete;
  NetworkInterface& operator=(const NetworkInterface&) = delete;
  NetworkInterface(NetworkInterface&&) = delete;
  NetworkInterface& operator=(NetworkInterface&&) = delete;

  void connect(FlitChannel* inject_out, CreditChannel* inject_credit_in, FlitChannel* eject_in,
               CreditChannel* eject_credit_out);

  /// Node-domain entry point: queue a packet of `size_flits` flits to `dst`.
  /// `create_time_ps`/`create_noc_cycle` stamp the packet's birth — for a
  /// reply in a request–reply workload the caller passes the *request's*
  /// creation instant so the reply's measured delay is the full round trip.
  /// `traffic_class` is an opaque label carried to the PacketRecord.
  void enqueue_packet(NodeId dst, int size_flits, common::Picoseconds create_time_ps,
                      std::uint64_t create_noc_cycle, std::uint8_t traffic_class = 0);

  /// NoC-domain phase 1: latch ejected flits and returning credits, and
  /// append a PacketRecord to `delivered` for every completed packet. The
  /// caller picks the sink per step: the network hands each step worker
  /// its own and concatenates them in tile order.
  void receive_phase(common::Picoseconds now, std::uint64_t noc_cycle,
                     std::vector<PacketRecord>& delivered);
  /// NoC-domain phase 2: inject at most one flit if a VC/credit allows.
  void inject_phase();

  NodeId node() const noexcept { return node_; }

  /// Non-owning; nullptr disables observation. Set by the Network.
  void set_injection_observer(const InjectionObserver* observer) noexcept {
    injection_observer_ = observer;
  }

  /// Install the skip-idle wake receiver (nullptr = no notifications).
  /// `enqueue_packet` runs in the *node* clock domain while the NoC side
  /// of this node may be parked, so it must announce the new work.
  void set_wake_sink(WakeSink* sink) noexcept { wake_ = sink; }
  /// Skip-idle wake target: the *tile* (router id) whose phase loop steps
  /// this NI. Defaults to the node id, which is the tile on a plain mesh;
  /// concentrated topologies override it.
  void set_wake_id(NodeId tile) noexcept { wake_id_ = tile; }

  /// Non-owning; nullptr (the default) delivers everything. Set by the
  /// Network when a fault model is active.
  void set_reachability(const ReachabilityFn* fn) noexcept { reachable_ = fn; }

  /// Globally unique packet-id counter, shared by every NI in a network
  /// (installed by the Network; each enqueue — including a refused one —
  /// consumes the next value, so ids are dense and monotone in injection
  /// order). Unset (standalone NIs), ids fall back to the legacy
  /// node-unique form: high bits carry the source node.
  void set_packet_id_source(std::uint64_t* source) noexcept {
    packet_id_source_ = source;
  }

  /// Non-owning; nullptr (the default) records nothing — one branch on
  /// the uninstrumented path, like the injection observer.
  void set_flight_recorder(obs::FlightRecorder* recorder) noexcept {
    flight_recorder_ = recorder;
  }

  /// No packet being serialized and nothing queued — the NI contributes no
  /// NoC-domain work (reassembly in progress keeps the node awake through
  /// the flits still buffered upstream, not through this predicate).
  bool idle() const noexcept { return !sending_ && source_queue_.empty(); }
  /// Pending-input mask over the two channels this NI reads (see
  /// channel.hpp): bit 0 the injection credits, bit 1 the ejected flits.
  std::uint64_t inputs_pending() const noexcept { return pending_; }

  // --- measurement accessors (monotone counters) ---
  std::uint64_t packets_generated() const noexcept { return packets_generated_; }
  std::uint64_t flits_generated() const noexcept { return flits_generated_; }
  std::uint64_t flits_injected() const noexcept { return flits_injected_; }
  std::uint64_t flits_ejected() const noexcept { return flits_ejected_; }
  std::uint64_t packets_ejected() const noexcept { return packets_ejected_; }
  /// Flits still waiting in (or partially drained from) the source queue.
  std::uint64_t source_backlog_flits() const noexcept;
  /// Bytes of the queued packets: one entry per packet, whatever its size.
  std::uint64_t source_queue_bytes() const noexcept {
    return source_queue_.size() * sizeof(PendingPacket);
  }
  /// Packets/flits refused at enqueue time because no route survives the
  /// active fault set (counted generated too — conservation keeps closing).
  std::uint64_t dropped_packets() const noexcept { return dropped_packets_; }
  std::uint64_t dropped_flits() const noexcept { return dropped_flits_; }
  /// High-water mark of `source_backlog_flits()`, updated at enqueue time
  /// (the only instant the backlog grows) — a telemetry gauge of the worst
  /// queueing this node ever saw.
  std::uint64_t peak_source_backlog_flits() const noexcept { return peak_backlog_flits_; }
  const power::ActivityCounters& activity() const noexcept { return activity_; }

 private:
  // Pending-input bit indices.
  static constexpr int kCreditInBit = 0;  ///< inject_credit_in_ holds an item
  static constexpr int kEjectInBit = 1;   ///< eject_in_ holds an item

  struct PendingPacket {
    PacketId id = 0;
    NodeId dst = -1;
    std::uint16_t size = 0;
    std::uint8_t traffic_class = 0;
    common::Picoseconds create_time_ps = 0;
    std::uint64_t create_noc_cycle = 0;
  };
  struct Reassembly {
    PacketId packet_id = 0;
    std::uint16_t received = 0;
    bool open = false;
  };

  NodeId node_;
  NiConfig cfg_;
  const InjectionObserver* injection_observer_ = nullptr;
  const ReachabilityFn* reachable_ = nullptr;
  std::uint64_t* packet_id_source_ = nullptr;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  WakeSink* wake_ = nullptr;
  NodeId wake_id_;  ///< tile id announced on wake (== node_ on a mesh)

  FlitChannel* inject_out_ = nullptr;
  CreditChannel* inject_credit_in_ = nullptr;
  FlitChannel* eject_in_ = nullptr;
  CreditChannel* eject_credit_out_ = nullptr;
  std::uint64_t pending_ = 0;  ///< bits kCreditInBit, kEjectInBit

  std::deque<PendingPacket> source_queue_;
  std::vector<int> credits_;          ///< per-VC credits towards the router
  std::vector<Reassembly> assembly_;  ///< per-VC ejection reassembly state
  int vc_rr_ptr_ = 0;                 ///< round-robin VC choice for new packets

  bool sending_ = false;
  PendingPacket current_{};
  int active_vc_ = -1;
  std::uint16_t next_flit_index_ = 0;

  std::uint64_t next_packet_seq_ = 0;
  std::uint64_t packets_generated_ = 0;
  std::uint64_t flits_generated_ = 0;
  std::uint64_t flits_injected_ = 0;
  std::uint64_t flits_ejected_ = 0;
  std::uint64_t packets_ejected_ = 0;
  std::uint64_t dropped_packets_ = 0;
  std::uint64_t dropped_flits_ = 0;
  std::uint64_t peak_backlog_flits_ = 0;
  power::ActivityCounters activity_;
};

}  // namespace nocdvfs::noc
