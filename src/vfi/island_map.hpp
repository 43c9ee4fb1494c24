#pragma once

/// \file island_map.hpp
/// Partition of the network into voltage–frequency islands.
///
/// An island is a set of routers (plus their NIs and the links between
/// them) that shares one retunable clock/power domain with its own DVFS
/// controller. The partition is described either by a named preset —
/// `global` (the paper's single NoC domain), `rows`, `cols`, `quadrants`,
/// `per_router` — or by an explicit `custom` node→island assignment in
/// row-major node order. This file only turns a preset into an assignment;
/// noc::check_island_partition validates it (ids contiguous 0..K-1, every
/// island non-empty, no tile split) and noc::Network owns the resulting
/// members, tiles and clock-domain crossings (see noc::Channel::cdc_fifo).

#include <string>
#include <vector>

namespace nocdvfs::vfi {

enum class Preset { Global, Rows, Cols, Quadrants, PerRouter, Custom };

const char* to_string(Preset preset) noexcept;

/// Case-sensitive lookup of the scenario key value; throws
/// std::invalid_argument naming the offender and the valid set.
Preset preset_from_string(const std::string& name);

/// The node→island assignment of a preset over a width×height node grid,
/// in row-major node order. `custom_map` is the comma-separated island id
/// per node, required (and only read) for Preset::Custom, e.g. "0,0,1,1"
/// for a 2×2 mesh split into west/east pairs. The result is not validated:
/// noc::check_island_partition is the one check, against the topology.
std::vector<int> island_assignment(Preset preset, int width, int height,
                                   const std::string& custom_map = "");

}  // namespace nocdvfs::vfi
