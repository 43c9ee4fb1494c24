#pragma once

/// \file routing_engine.hpp
/// Per-hop route selection over a Topology: the `route()` layer behind
/// Router::route_computation.
///
/// One engine instance is shared by every router of a Network (it is
/// stateless per packet — all per-packet routing state travels in the head
/// flit's `intm` / `route_flags` fields). A decision is an output port plus
/// a VC *mask*: the set of virtual channels VC allocation may claim
/// downstream. Masks implement the deadlock-avoidance class discipline
/// each (topology, algorithm) pair needs; on the plain XY mesh the mask is
/// always all-ones, so the original behavior is preserved bit-for-bit.
///
/// Algorithms:
///   xy / yx    deterministic dimension-ordered (torus adds the dateline
///              class split, dragonfly routes its canonical minimal path);
///   adaptive   minimal-adaptive by least downstream backlog over
///              Duato-style escape VCs: one adaptive class plus the
///              deterministic classes, reachable only on the DOR port, so
///              a starving packet can always fall back to the acyclic
///              escape network (dragonfly has a single minimal path and
///              degrades to deterministic);
///   ugal       UGAL-L: at the source router compare q_min·d_min against
///              q_val·d_val (queue backlog × path length) and route either
///              minimally or through a deterministic Valiant intermediate;
///              both legs are DOR, phase-partitioned VC classes keep the
///              combination acyclic.
///
/// When a FaultModel is attached and has fired, the engine switches every
/// algorithm to precomputed up*/down* routing tables over the surviving
/// graph (mask = all VCs; the up→down turn restriction is deadlock-free on
/// a single class). `route()` then returns port -1 for unreachable
/// destinations — the router drains such packets into the drop counters.

#include <array>
#include <cstdint>
#include <vector>

#include "noc/routing.hpp"
#include "noc/types.hpp"
#include "topo/topology.hpp"

namespace nocdvfs::topo {

class FaultModel;

struct RouteDecision {
  int out_port = -1;                ///< -1: drop (unreachable under faults)
  std::uint64_t vc_mask = ~0ull;    ///< VCs the downstream VA may grant
};

/// Router-side congestion snapshot consumed by adaptive/UGAL decisions.
class RouterView {
 public:
  /// Occupied buffer slots behind output port `port` (capacity − credits).
  virtual int downstream_backlog(int port) const = 0;

 protected:
  ~RouterView() = default;
};

class RoutingEngine {
 public:
  RoutingEngine(const Topology& topo, noc::RoutingAlgo algo, int num_vcs);

  /// Minimum VCs the (topology, algorithm) class discipline needs.
  static int required_vcs(const Topology& topo, noc::RoutingAlgo algo);

  /// True when VA-starvation escape rerouting applies (minimal-adaptive).
  bool adaptive_escape() const noexcept;

  /// Route the packet headed by `head` at `router`. May mutate the head
  /// flit's routing state (UGAL source decision, Valiant phase flip,
  /// up*/down* restart). `force_escape` confines a starving adaptive
  /// packet to its deterministic escape path.
  RouteDecision route(int router, noc::Flit& head, const RouterView& view,
                      bool force_escape) const;

  // --- fault plumbing (driven by noc::Network) ---
  void set_fault_model(const FaultModel* faults) { faults_ = faults; }
  /// Recompute the up*/down* tables after the FaultModel changed. Entering
  /// table mode is one-way: tables stay authoritative once any fault fired.
  void rebuild_tables();
  /// Routers must call on_traverse for every flit while this is true.
  bool hook_active() const noexcept { return table_mode_; }
  /// Records the up→down transition of up*/down* routing in the flit.
  void on_traverse(int router, int out_port, noc::Flit& flit) const {
    if ((down_ports_[static_cast<size_t>(router)] >> out_port) & 1u) {
      flit.route_flags |= noc::kRouteFlagWentDown;
    }
  }

  /// Can an NI-to-NI packet currently be delivered? (Always true outside
  /// table mode.)
  bool reachable(noc::NodeId src, noc::NodeId dst) const;
  /// Ordered NI pairs (src != dst) with no surviving route.
  long long unreachable_pairs() const noexcept { return unreachable_pairs_; }
  /// Ordered live router pairs whose next hop differs from the fault-free
  /// up*/down* table — how much of the route space the faults bent.
  long long rerouted_pairs() const noexcept { return rerouted_pairs_; }

 private:
  RouteDecision route_deterministic(int router, const noc::Flit& head, int dst_router) const;
  RouteDecision route_adaptive(int router, const noc::Flit& head, int dst_router,
                               const RouterView& view, bool force_escape) const;
  RouteDecision route_ugal(int router, noc::Flit& head, int dst_router,
                           const RouterView& view) const;
  RouteDecision route_table(int router, noc::Flit& head, int dst_router) const;
  void ugal_decide(int router, noc::Flit& head, int dst_router,
                   const RouterView& view) const;
  std::uint64_t class_mask(int cls, int total) const;
  /// Fill `next` (size R·R) with up*/down* next-hop ports honouring the
  /// current fault set (or none when `faults` is null).
  void build_updown(const FaultModel* faults, std::vector<std::int16_t>& next_up,
                    std::vector<std::int16_t>& next_down,
                    std::vector<std::uint32_t>& down_ports) const;

  const Topology* topo_;
  noc::RoutingAlgo algo_;
  noc::RoutingAlgo det_algo_;  ///< deterministic sub-algorithm (XY unless yx)
  int num_vcs_;
  int total_classes_;
  std::uint64_t all_mask_;
  bool dragonfly_minimal_;  ///< adaptive degrades to deterministic

  const FaultModel* faults_ = nullptr;
  bool table_mode_ = false;
  /// next hop per (router, dst): [0] = up phase (up*/down*), [1] = pure
  /// down phase; -1 = unreachable.
  std::vector<std::int16_t> next_port_[2];
  std::vector<std::uint32_t> down_ports_;  ///< per-router bitmask of down ports
  std::vector<std::int16_t> baseline_next_;  ///< fault-free up-phase table
  long long unreachable_pairs_ = 0;
  long long rerouted_pairs_ = 0;
};

}  // namespace nocdvfs::topo
