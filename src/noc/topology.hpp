#pragma once

/// \file topology.hpp
/// The width×height row-major grid of network interfaces (NIs): coordinate
/// arithmetic for traffic patterns, task-graph placement and island
/// presets. The router fabric, its ports and its routing live in
/// topo::Topology, which uses the same NI grid whatever its shape. The
/// paper evaluates 4×4, 5×5 and 8×8 meshes; width and height are
/// independent so rectangular grids also work.

#include "noc/types.hpp"

namespace nocdvfs::noc {

class MeshTopology {
 public:
  MeshTopology(int width, int height);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int num_nodes() const noexcept { return width_ * height_; }
  bool is_square() const noexcept { return width_ == height_; }

  bool valid(NodeId node) const noexcept { return node >= 0 && node < num_nodes(); }
  bool valid(Coord c) const noexcept {
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
  }

  Coord coord_of(NodeId node) const;
  NodeId node_at(Coord c) const;

  static int manhattan(Coord a, Coord b) noexcept;

 private:
  int width_;
  int height_;
};

}  // namespace nocdvfs::noc
