#pragma once

/// \file routing.hpp
/// Routing-algorithm vocabulary. The paper uses XY; YX is included so tests
/// can cross-check symmetry. Each topo::Topology computes its own
/// dimension-ordered port (topo::Topology::dor_port); Adaptive
/// (minimal-adaptive with escape VCs) and Ugal (UGAL-L non-minimal with
/// Valiant fallback paths) are implemented by topo::RoutingEngine, which
/// also supplies the per-topology VC-class discipline they require.

#include <string>

namespace nocdvfs::noc {

enum class RoutingAlgo { XY, YX, Adaptive, Ugal };

/// Case-insensitive parse of "xy" / "yx" / "adaptive" / "ugal"; throws
/// std::invalid_argument naming the offender and the valid set.
RoutingAlgo routing_algo_from_string(const std::string& name);
const char* to_string(RoutingAlgo algo) noexcept;

}  // namespace nocdvfs::noc
