#pragma once

/// \file topology.hpp
/// 2-D mesh topology: coordinate arithmetic and neighbor lookup. The paper
/// evaluates 4×4, 5×5 and 8×8 meshes; width and height are independent so
/// rectangular meshes also work.

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

  /// Does `node` have a neighbor in direction `dir`? Local never does.
  bool has_neighbor(NodeId node, PortDir dir) const;
  /// Neighbor id; throws std::out_of_range if there is none.
  NodeId neighbor(NodeId node, PortDir dir) const;

  static int manhattan(Coord a, Coord b) noexcept;
  int hop_distance(NodeId a, NodeId b) const { return manhattan(coord_of(a), coord_of(b)); }

  /// Directed inter-router links in the mesh: 2·[(W−1)·H + W·(H−1)].
  int num_directed_links() const noexcept;


 private:
  int width_;
  int height_;
};

}  // namespace nocdvfs::noc
