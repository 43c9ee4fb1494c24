#pragma once

/// \file router.hpp
/// Input-queued virtual-channel router with the canonical 4-stage pipeline:
///
///   RC  — a head flit reaching the front of an Idle VC computes its output
///         port (and the VC-class mask VA may use) via the routing engine;
///   VA  — the VC requests an output VC (within its class mask) through a
///         separable input-first allocator; body flits inherit the grant;
///   SA  — per-cycle switch allocation: one flit per input port and per
///         output port, round-robin at both stages, credit-gated;
///   ST  — the granted flit crosses the switch onto the output link and a
///         credit returns upstream for the freed buffer slot.
///
/// Stage separation is enforced by executing SA→VA→RC in reverse order each
/// cycle, so a flit advances at most one control stage per cycle (head-flit
/// hop latency: 3 router cycles + link latency). The output VC is held from
/// VA grant until the tail flit traverses.
///
/// Credit-based flow control: each output VC mirrors the downstream buffer
/// as a credit counter, initialized to the buffer depth and replenished by
/// the reverse credit channel.
///
/// The radix is dynamic (up to kMaxPorts) so one implementation serves
/// mesh, torus, concentrated-mesh and dragonfly routers; per-port state
/// lives in fixed kMaxPorts arrays, and the mesh instantiation (radix 5)
/// executes the exact historical sequence of operations. Under an active
/// FaultModel a VC can enter the Drop state: its packet has no surviving
/// route, and the flits drain out of the buffer (one per port per cycle,
/// credits returned upstream) into the dropped-flit counters instead of
/// the crossbar.
///
/// Storage is flat: one `radix × num_vcs` array of input-VC control
/// structs, one `radix × num_vcs × depth` array of flit slots (each VC's
/// FIFO is a ring inside it), and one `radix × num_vcs` array of output-VC
/// credit counters. Each stage visits only live VCs through bit masks
/// kept next to that storage (see "Per-stage work masks" below).

#include <array>
#include <cstdint>
#include <vector>

#include "noc/allocator.hpp"
#include "noc/channel.hpp"
#include "noc/routing.hpp"
#include "noc/types.hpp"
#include "power/activity.hpp"
#include "topo/routing_engine.hpp"

namespace nocdvfs::obs {
class FlightRecorder;
}

namespace nocdvfs::noc {

/// VCs per port: every per-port VC set is one 64-bit mask.
inline constexpr int kMaxVcs = 64;
/// Flits per VC FIFO: the ring head/count of an input VC and the credit
/// counter of an output VC are 8-bit.
inline constexpr int kMaxVcBufferDepth = 255;

struct RouterConfig {
  int num_vcs = 8;          ///< in [1, kMaxVcs]
  int vc_buffer_depth = 4;  ///< flits per VC FIFO, in [1, kMaxVcBufferDepth]
  RoutingAlgo routing = RoutingAlgo::XY;
};

enum class VcStateKind : std::uint8_t {
  Idle,     ///< no packet; head at front (if any) awaits RC
  Waiting,  ///< routed; awaiting an output VC (VA)
  Active,   ///< output VC held; flits compete for the switch (SA)
  Drop,     ///< unroutable under faults; buffer drains to the drop counters
};

/// Why a buffered flit did *not* advance, attributed per VC-cycle. Every
/// cycle, every VC holding at least one flit contributes exactly one count:
/// either it forwarded a flit (`forwarded`) or it stalled for exactly one
/// of the taxonomy reasons — so the exact conservation law
///
///     busy_vc_cycles == forwarded + route + vc_alloc + credit + sw + drop
///
/// holds at all times, and `forwarded` equals crossbar traversals plus
/// drop-drained flits (asserted in test_obs). Maintained only under
/// `set_stall_tracking(true)`; the classification happens before the
/// pipeline stages run, so the attribution reflects what the VC could have
/// done this cycle, not what later stages changed.
struct RouterStallCounters {
  std::uint64_t route = 0;     ///< Idle with a buffered head: awaiting RC
  std::uint64_t vc_alloc = 0;  ///< Waiting: routed, no output VC granted yet
  std::uint64_t credit = 0;    ///< Active but the held output VC has no credits
  std::uint64_t sw = 0;        ///< switch-eligible, lost switch allocation
  std::uint64_t drop = 0;      ///< Drop VC whose flits were not drained this cycle
  std::uint64_t busy_vc_cycles = 0;  ///< VC-cycles with >= 1 buffered flit
  std::uint64_t forwarded = 0;       ///< SA grants + drop drains

  std::uint64_t stall_sum() const noexcept { return route + vc_alloc + credit + sw + drop; }
};

class Router : public topo::RouterView {
 public:
  /// `radix` ports, initially all self-peered and routed by a required
  /// routing engine (set_routing_engine before the first cycle).
  Router(NodeId id, int radix, const RouterConfig& cfg);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  Router(Router&&) = delete;
  Router& operator=(Router&&) = delete;

  /// Wire one input port: incoming flits and the reverse credit channel.
  void connect_input(int port, FlitChannel* flit_in, CreditChannel* credit_out);
  void connect_input(PortDir port, FlitChannel* flit_in, CreditChannel* credit_out) {
    connect_input(port_index(port), flit_in, credit_out);
  }
  /// Wire one output port: outgoing flits and the incoming credit channel.
  void connect_output(int port, FlitChannel* flit_out, CreditChannel* credit_in);
  void connect_output(PortDir port, FlitChannel* flit_out, CreditChannel* credit_in) {
    connect_output(port_index(port), flit_out, credit_in);
  }

  /// Install the skip-idle wake receiver (nullptr = no notifications).
  /// Each flit/credit push in `traverse` then wakes the tile that reads
  /// the far end of that channel — the neighbour behind the port, or this
  /// tile itself for local ports.
  void set_wake_sink(WakeSink* sink) noexcept { wake_ = sink; }
  /// Tile whose clock reads the channels behind `port` (wake target).
  void set_port_peer(int port, NodeId tile) {
    port_peer_[static_cast<std::size_t>(port)] = tile;
  }
  /// First NI-local port index (ports below it are network links); splits
  /// the local/link hop activity counters.
  void set_first_local_port(int port) noexcept { first_local_port_ = port; }
  /// Route via `engine` (required before the first cycle).
  void set_routing_engine(const topo::RoutingEngine* engine);
  /// Fault mode: every traversed flit is reported to the engine (up*/down*
  /// phase tracking). Toggled by Network on fault epochs.
  void set_traverse_hook(bool active) noexcept { traverse_hook_ = active; }
  /// Enable the per-cycle stall-cause taxonomy (telemetry). Off by default:
  /// the hot path then pays a single predictable branch per compute_phase.
  /// Enable before the first cycle for the `forwarded == traversals +
  /// drops` identity to hold from counter zero.
  void set_stall_tracking(bool on) noexcept { stall_tracking_ = on; }
  bool stall_tracking() const noexcept { return stall_tracking_; }
  /// Non-owning; nullptr (the default) records nothing. The recorder is
  /// told about head-flit pipeline milestones (arrival, RC, VA, ST) and
  /// filters to its sampled packet set — one branch per milestone when off,
  /// the set_traverse_hook pattern.
  void set_flight_recorder(obs::FlightRecorder* recorder) noexcept {
    flight_recorder_ = recorder;
  }

  /// Phase 1 of a network cycle: latch arriving credits and flits. Only
  /// the inputs whose pending bit is set are polled.
  void receive_phase();
  /// Phase 2: SA+ST, drop drain, then VA, then RC (reverse pipeline order).
  void compute_phase();

  /// Pending-input masks. Bit i of `flits` is set while the flit channel
  /// of the i-th wired input port (wiring order) holds an item; bit i of
  /// `credits` likewise for the credit channel of the i-th wired output
  /// port. The channels maintain them: a push sets the bit, the pop that
  /// empties the channel clears it.
  struct PendingInputs {
    std::uint64_t flits = 0;
    std::uint64_t credits = 0;
    bool any() const noexcept { return (flits | credits) != 0; }
  };
  const PendingInputs& inputs_pending() const noexcept { return pending_; }

  int radix() const noexcept { return radix_; }
  const RouterConfig& config() const noexcept { return cfg_; }
  const power::ActivityCounters& activity() const noexcept { return activity_; }

  /// topo::RouterView — occupied downstream slots behind an output port
  /// (buffer capacity minus credits), the congestion signal adaptive and
  /// UGAL route selection reads.
  int downstream_backlog(int port) const override;

  // --- introspection for tests and invariant checks ---
  int buffered_flits() const noexcept;
  /// O(1) occupancy snapshot (the maintained counter that gates SA);
  /// sampled every cycle by the occupancy-based controller.
  int buffered_now() const noexcept { return buffered_total_; }
  /// Flit slots across the wired input ports (occupancy denominator).
  int buffer_capacity() const noexcept {
    return static_cast<int>(wired_in_.size()) * cfg_.num_vcs * cfg_.vc_buffer_depth;
  }
  int output_credits(PortDir port, int vc) const;
  bool output_vc_allocated(PortDir port, int vc) const;
  VcStateKind input_vc_state(PortDir port, int vc) const;
  int input_vc_occupancy(PortDir port, int vc) const;
  /// Flits/packets drained into the void because no route survived the
  /// active fault set (counted when the flit leaves the buffer).
  std::uint64_t dropped_flits() const noexcept { return dropped_flits_; }
  std::uint64_t dropped_packets() const noexcept { return dropped_packets_; }
  /// Stall-cause taxonomy (all zero unless stall tracking is enabled).
  const RouterStallCounters& stalls() const noexcept { return stalls_; }
  /// Flits that left through output port `port` (crossbar traversals only,
  /// not drop drains) — the per-directed-link heatmap source. Always
  /// maintained: one array increment inside the traversal bookkeeping.
  std::uint64_t port_flits_forwarded(int port) const {
    return port_flits_tx_[static_cast<std::size_t>(port)];
  }

 private:
  /// Control state of one input VC (16 bytes; indexed port * num_vcs + vc).
  struct InputVc {
    std::uint64_t vc_mask = ~std::uint64_t{0};  ///< VCs VA may claim (RC decision)
    VcStateKind state = VcStateKind::Idle;
    std::uint8_t head = 0;         ///< ring index of the front flit
    std::uint8_t count = 0;        ///< flits buffered
    std::int8_t out_port = -1;     ///< RC decision (Waiting, Active)
    std::int8_t out_vc = -1;       ///< held output VC (Active)
    std::uint8_t wait_cycles = 0;  ///< VA starvation counter (adaptive escape re-route)
  };
  static_assert(sizeof(InputVc) == 16, "InputVc should stay 16 bytes");

  std::size_t vc_index(int port, int vc) const noexcept {
    return static_cast<std::size_t>(port * cfg_.num_vcs + vc);
  }
  /// Bounds-checked vc_index for the introspection accessors.
  std::size_t checked_vc_index(PortDir port, int vc) const;
  Flit& front(std::size_t k) noexcept {
    return slots_[k * static_cast<std::size_t>(cfg_.vc_buffer_depth) + vcs_[k].head];
  }
  /// Drop the front flit of a VC's ring (its slot is overwritten only by
  /// a later arrival, so a reference taken by `front` stays valid until
  /// the next receive_phase).
  void advance_head(InputVc& ivc) noexcept;
  /// Idle VC `vc` of input port `port` now has a buffered head: RC work.
  void mark_routable(int port, int vc) noexcept {
    rc_mask_[static_cast<std::size_t>(port)] |= std::uint64_t{1} << vc;
    rc_ports_ |= 1u << in_slot_[static_cast<std::size_t>(port)];
  }

  void switch_allocation_and_traversal();
  void drain_drops();
  void vc_allocation();
  void route_computation();
  void traverse(int in_port, int in_vc);
  /// compute_phase with the stall pre-classification wrapped around the
  /// same stage sequence (only entered when tracking is on and there is
  /// buffered or droppable work).
  void compute_phase_tracked();

  NodeId id_;
  const topo::RoutingEngine* engine_ = nullptr;
  RouterConfig cfg_;
  int radix_;
  std::uint64_t all_vcs_;  ///< bits 0 .. num_vcs-1

  std::vector<InputVc> vcs_;           ///< [port * num_vcs + vc]
  std::vector<Flit> slots_;            ///< [(port * num_vcs + vc) * depth + ring index]
  std::vector<std::uint8_t> credits_;  ///< output VC credits, [port * num_vcs + vc]
  std::array<FlitChannel*, kMaxPorts> flit_in_{};      ///< per input port
  std::array<CreditChannel*, kMaxPorts> credit_out_{};  ///< per input port
  std::array<FlitChannel*, kMaxPorts> flit_out_{};     ///< per output port
  std::array<CreditChannel*, kMaxPorts> credit_in_{};   ///< per output port

  SeparableAllocator va_alloc_;
  /// SA round-robin pointers: per input port over VCs, per output port
  /// over input ports.
  std::array<std::uint8_t, kMaxPorts> sa_input_ptr_{};
  std::array<std::uint8_t, kMaxPorts> sa_output_ptr_{};
  power::ActivityCounters activity_;

  // Per-stage work masks: each stage visits the set bits of its mask, so
  // it costs O(live VCs), not O(ports·VCs); an empty mask skips the stage.
  // Input-port masks have bit v for VC v. Every state transition updates
  // them, and each work set has only this one representation.
  /// Per input port: Idle VCs with a buffered head (RC work).
  std::array<std::uint64_t, kMaxPorts> rc_mask_{};
  /// Per input port: Waiting VCs (VA work; a Waiting VC buffers its head).
  std::array<std::uint64_t, kMaxPorts> va_mask_{};
  /// Per input port: Active VCs with a buffered flit — the SA stage-1
  /// candidates (credit availability checked at scan time).
  std::array<std::uint64_t, kMaxPorts> sa_candidates_{};
  /// Per output port: output VCs held by a packet (VA grant to tail).
  std::array<std::uint64_t, kMaxPorts> allocated_{};
  /// Bit i set iff rc_mask_ / va_mask_ of input port wired_in_[i] is
  /// non-zero, so RC and VA walk ports in wiring order, then ascending VC.
  std::uint32_t rc_ports_ = 0;
  std::uint32_t va_ports_ = 0;
  std::array<std::uint8_t, kMaxPorts> in_slot_{};  ///< input port -> index in wired_in_

  int buffered_total_ = 0;  ///< flits in all input FIFOs (gates SA)
  int drop_pending_ = 0;    ///< VCs in Drop state (gates the drain stage)
  /// Per input port: a credit was pushed upstream this cycle (SA traversal
  /// or drop drain) — the drain stage respects the 1-credit/cycle channel
  /// budget. Only maintained while drop_pending_ > 0.
  std::array<std::uint8_t, kMaxPorts> credit_pushed_{};

  std::vector<int> wired_in_;   ///< indices of connected input ports
  std::vector<int> wired_out_;  ///< indices of connected output ports
  PendingInputs pending_;       ///< bit i ~ wired_in_[i] / wired_out_[i]

  bool adaptive_escape_ = false;  ///< engine wants VA-starvation re-routes
  bool traverse_hook_ = false;    ///< report traversals to the engine
  bool stall_tracking_ = false;   ///< telemetry wants the stall taxonomy
  obs::FlightRecorder* flight_recorder_ = nullptr;  ///< sampled packet journeys
  int first_local_port_ = 0;      ///< ports >= this are NI-local
  std::uint64_t dropped_flits_ = 0;
  std::uint64_t dropped_packets_ = 0;
  RouterStallCounters stalls_;
  /// Flits forwarded per output port (always-on; feeds link heatmaps).
  std::array<std::uint64_t, kMaxPorts> port_flits_tx_{};

  WakeSink* wake_ = nullptr;
  /// Per port: the tile whose clock reads channels behind it (the
  /// neighbour, or this tile for locals) — precomputed so wake-on-push is
  /// a table lookup, not a topology query.
  std::array<NodeId, kMaxPorts> port_peer_{};
};

}  // namespace nocdvfs::noc
