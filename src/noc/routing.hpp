#pragma once

/// \file routing.hpp
/// Routing-algorithm vocabulary plus the original deterministic
/// dimension-ordered router for the mesh. The paper uses XY; YX is included
/// so tests can cross-check symmetry.
///
/// XY and YX are handled directly by `route_dor` on a plain mesh (minimal,
/// acyclic, deadlock-free with any number of VCs). Adaptive
/// (minimal-adaptive with escape VCs) and Ugal (UGAL-L non-minimal with
/// Valiant fallback paths) are implemented by topo::RoutingEngine, which
/// also supplies the per-topology VC-class discipline they require;
/// `route_dor` treats them as XY so every call stays well-defined. The
/// mesh topology's dimension-ordered port (topo/topology.cpp) delegates
/// here.

#include "noc/topology.hpp"
#include "noc/types.hpp"

namespace nocdvfs::noc {

enum class RoutingAlgo { XY, YX, Adaptive, Ugal };

/// Output port for a packet at router `here` destined for `dst`.
/// Returns Local when here == dst.
PortDir route_dor(RoutingAlgo algo, const MeshTopology& topo, NodeId here, NodeId dst);

/// Case-insensitive parse of "xy" / "yx" / "adaptive" / "ugal"; throws
/// std::invalid_argument naming the offender and the valid set.
RoutingAlgo routing_algo_from_string(const std::string& name);
const char* to_string(RoutingAlgo algo) noexcept;

}  // namespace nocdvfs::noc
