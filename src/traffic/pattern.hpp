#pragma once

/// \file pattern.hpp
/// Synthetic destination patterns (Dally & Towles conventions, matching
/// BookSim's definitions). The paper evaluates uniform, tornado,
/// bit-complement, transpose and neighbor; shuffle, bit-reverse, hotspot
/// and a seeded random permutation are included for wider testing.
///
/// Permutation patterns are deterministic per source; `uniform` includes
/// self-addressed packets (as BookSim does) — they still traverse the local
/// router and exercise the injection/ejection path.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/topology.hpp"
#include "noc/types.hpp"

namespace nocdvfs::traffic {

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;

  virtual noc::NodeId pick(noc::NodeId src, common::Rng& rng) const = 0;
  virtual bool deterministic() const noexcept = 0;

  /// Factory over the names known_patterns() lists. Throws
  /// std::invalid_argument on an unknown name (naming the valid set) or a
  /// pattern incompatible with the topology (e.g. transpose on a
  /// non-square mesh, shuffle on a non-power-of-two node count).
  static std::unique_ptr<TrafficPattern> create(const std::string& name,
                                                const noc::MeshTopology& topo,
                                                std::uint64_t seed = 1,
                                                double hotspot_fraction = 0.2);

  /// Names accepted by create(), in a stable order (for sweeps and --help).
  static std::vector<std::string> known_patterns();
};

}  // namespace nocdvfs::traffic
