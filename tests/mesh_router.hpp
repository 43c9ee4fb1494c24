#pragma once

// Test helper: one router of a W×H mesh, built the way Network builds
// every router — the generic radix form, routed by a topo::RoutingEngine
// over a mesh topo::Topology, with its port peers taken from the
// topology. Tests wire the router's channels by hand.

#include <memory>

#include "noc/router.hpp"
#include "topo/routing_engine.hpp"
#include "topo/topology.hpp"

namespace nocdvfs::noc {

class MeshRouter {
 public:
  MeshRouter(int width, int height, NodeId id, const RouterConfig& cfg)
      : topo_(topo::Topology::make(topo::TopologyKind::Mesh, width, height, 1)),
        engine_(*topo_, cfg.routing, cfg.num_vcs),
        router_(id, topo_->radix(id), cfg) {
    router_.set_routing_engine(&engine_);
    router_.set_first_local_port(topo_->num_net_ports(id));
    for (int p = 0; p < topo_->num_net_ports(id); ++p) {
      const topo::PortPeer far = topo_->peer(id, p);
      if (far.valid()) router_.set_port_peer(p, far.router);
    }
  }

  Router& router() noexcept { return router_; }

 private:
  std::unique_ptr<topo::Topology> topo_;
  topo::RoutingEngine engine_;
  Router router_;
};

}  // namespace nocdvfs::noc
