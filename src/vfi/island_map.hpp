#pragma once

/// \file island_map.hpp
/// Partition of the mesh into voltage–frequency islands.
///
/// An island is a set of routers (plus their NIs and the links between
/// them) that shares one retunable clock/power domain with its own DVFS
/// controller. The partition is described either by a named preset —
/// `global` (the paper's single NoC domain), `rows`, `cols`, `quadrants`,
/// `per_router` — or by an explicit `custom` node→island assignment in
/// row-major node order. Island ids must be contiguous 0..K-1 and every
/// island non-empty; links whose endpoints live in different islands are
/// clock-domain crossings (see noc::Channel::cdc_fifo).

#include <string>
#include <vector>

#include "noc/types.hpp"

namespace nocdvfs::vfi {

enum class Preset { Global, Rows, Cols, Quadrants, PerRouter, Custom };

const char* to_string(Preset preset) noexcept;

/// Case-sensitive lookup of the scenario key value; throws
/// std::invalid_argument naming the offender and the valid set.
Preset preset_from_string(const std::string& name);

class IslandMap {
 public:
  /// Single-island map (the pre-VFI default).
  IslandMap() = default;

  /// Build a preset partition of a width×height mesh. `custom_map` is the
  /// comma-separated island id per node in row-major order, required (and
  /// only read) for Preset::Custom, e.g. "0,0,1,1" for a 2×2 mesh split
  /// into west/east pairs.
  static IslandMap build(Preset preset, int width, int height,
                         const std::string& custom_map = "");

  /// Adopt an explicit node→island assignment (validated: size must be
  /// width*height, ids contiguous 0..K-1, no empty island).
  static IslandMap from_assignment(std::vector<int> island_of, int width, int height);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int num_islands() const noexcept { return num_islands_; }
  int island_of(noc::NodeId node) const {
    return island_of_.at(static_cast<std::size_t>(node));
  }

  /// Node→island assignment in row-major node order; empty for the
  /// default-constructed single-island map.
  const std::vector<int>& assignment() const noexcept { return island_of_; }

  /// Ascending node ids of one island.
  const std::vector<noc::NodeId>& nodes_of(int island) const {
    return members_.at(static_cast<std::size_t>(island));
  }

  /// Directed mesh links whose endpoints live in different islands.
  int num_boundary_links() const noexcept { return boundary_links_; }

 private:
  int width_ = 0;
  int height_ = 0;
  int num_islands_ = 1;
  std::vector<int> island_of_;
  std::vector<std::vector<noc::NodeId>> members_;
  int boundary_links_ = 0;
};

/// Parse a comma-separated island-id list ("0,0,1,1"); throws
/// std::invalid_argument on malformed input.
std::vector<int> parse_island_list(const std::string& text);

}  // namespace nocdvfs::vfi
