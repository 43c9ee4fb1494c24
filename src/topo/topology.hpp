#pragma once

/// \file topology.hpp
/// The generalized network-shape abstraction behind noc::Network.
///
/// A Topology separates two id spaces that the original mesh conflated:
///
///   * *nodes* — network interfaces, always a width×height row-major grid
///     (traffic patterns, metrics attribution and island presets keep
///     operating on this grid unchanged, whatever the router fabric);
///   * *routers* — the switching fabric. A router owns `concentration`
///     consecutive NIs (its *tile*) plus a set of network ports wired to
///     peer routers.
///
/// Ports of a router are dense indices 0..radix-1: the network ports come
/// first (in the implementation's canonical order), the NI-local ports
/// last. `peer(r, p)` names the far end of a network port; enumerating
/// (router, port) pairs in ascending order yields every *directed* link
/// exactly once — noc::Network wires channels in exactly that order, which
/// for the mesh reproduces the historical wiring (and therefore the
/// bit-exact router arbitration order) of the original 2-D mesh code.
///
/// Four concrete shapes:
///   mesh       — the paper's 2-D mesh (ports N,E,S,W,Local; unchanged);
///   torus      — mesh plus wrap links; DOR needs dateline VC classes;
///   cmesh      — concentrated mesh: c ∈ {2, 4} NIs per router on a
///                coarser router grid (2×1 or 2×2 NI blocks);
///   dragonfly  — hierarchical: one group per NI row, complete local
///                graph inside a group, palmtree-assigned global links.

#include <array>
#include <memory>
#include <string>

#include "noc/routing.hpp"
#include "noc/types.hpp"

namespace nocdvfs::topo {

enum class TopologyKind { Mesh, Torus, Cmesh, Dragonfly };

const char* to_string(TopologyKind kind) noexcept;

/// Case-insensitive lookup; throws std::invalid_argument naming the
/// offending input and the valid set (the policy_from_string pattern).
TopologyKind topology_kind_from_string(const std::string& name);

/// Far end of a directed network port: the peer router and the port index
/// on the peer that receives this link.
struct PortPeer {
  int router = -1;
  int port = -1;
  bool valid() const noexcept { return router >= 0; }
};

class Topology {
 public:
  virtual ~Topology() = default;

  TopologyKind kind() const noexcept { return kind_; }
  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int num_nodes() const noexcept { return width_ * height_; }
  int concentration() const noexcept { return concentration_; }
  int num_routers() const noexcept { return num_routers_; }

  /// Router owning NI `node`, and the port index its local channel uses.
  virtual int router_of(noc::NodeId node) const = 0;
  virtual int local_port(noc::NodeId node) const = 0;

  virtual int radix(int router) const = 0;          ///< total ports
  virtual int num_net_ports(int router) const = 0;  ///< ports [0, n) are network ports
  /// Peer of network port `p` on `router`; invalid() when unwired (mesh edge).
  virtual PortPeer peer(int router, int port) const = 0;

  /// Router hops along the canonical minimal route (== graph distance on
  /// mesh/torus/cmesh; the canonical l-g-l path length on dragonfly).
  virtual int hop_distance(int ra, int rb) const = 0;

  // --- structural routing (consumed by topo::RoutingEngine) ---
  /// The deterministic dimension-ordered / canonical-minimal output port at
  /// `here` for a packet bound for `dst_router` (never called with
  /// here == dst_router). XY routes the first dimension first, YX the
  /// second; non-grid topologies ignore the distinction.
  virtual int dor_port(noc::RoutingAlgo algo, int here, int dst_router) const = 0;
  /// Ports at `here` on some minimal path to `dst_router`, ascending;
  /// returns the count (0 only when here == dst_router).
  virtual int minimal_ports(int here, int dst_router,
                            std::array<int, noc::kMaxPorts>& out) const = 0;
  /// Deadlock-avoidance VC class of the deterministic route at `here`
  /// (torus: dateline class of the current dimension; dragonfly: 0 before
  /// the global hop, 1 inside the destination group; mesh/cmesh: 0).
  virtual int dor_vc_class(noc::RoutingAlgo algo, int here, int dst_router) const {
    (void)algo;
    (void)here;
    (void)dst_router;
    return 0;
  }
  /// Number of VC classes `dor_vc_class` can return (1 when none needed).
  virtual int num_dor_classes() const { return 1; }

  // --- derived, computed once at construction ---
  int num_directed_links() const noexcept { return num_directed_links_; }
  int max_radix() const noexcept { return max_radix_; }
  /// Wired network ports of one router (== directed links it drives).
  int router_net_degree(int router) const;

  /// Build a validated topology; throws std::invalid_argument with a
  /// human-readable description of the first problem (degenerate size,
  /// concentration not dividing the grid, radix over noc::kMaxPorts, ...).
  static std::unique_ptr<Topology> make(TopologyKind kind, int width, int height,
                                        int concentration);

 protected:
  Topology(TopologyKind kind, int width, int height, int concentration, int num_routers);
  /// Called by each concrete constructor after its shape is final.
  void finalize_link_inventory();

 private:
  TopologyKind kind_;
  int width_;
  int height_;
  int concentration_;
  int num_routers_;
  int num_directed_links_ = 0;
  int max_radix_ = 0;
};

}  // namespace nocdvfs::topo
