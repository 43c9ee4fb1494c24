#include "noc/topology.hpp"

#include <cstdlib>
#include <stdexcept>

namespace nocdvfs::noc {

MeshTopology::MeshTopology(int width, int height) : width_(width), height_(height) {
  if (width < 1 || height < 1) throw std::invalid_argument("MeshTopology: degenerate size");
  if (width * height < 2) throw std::invalid_argument("MeshTopology: need at least two nodes");
}

Coord MeshTopology::coord_of(NodeId node) const {
  if (!valid(node)) throw std::out_of_range("MeshTopology::coord_of: bad node id");
  return Coord{node % width_, node / width_};
}

NodeId MeshTopology::node_at(Coord c) const {
  if (!valid(c)) throw std::out_of_range("MeshTopology::node_at: bad coordinate");
  return c.y * width_ + c.x;
}

int MeshTopology::manhattan(Coord a, Coord b) noexcept {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

}  // namespace nocdvfs::noc
