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

bool MeshTopology::has_neighbor(NodeId node, PortDir dir) const {
  const Coord c = coord_of(node);
  switch (dir) {
    case PortDir::North: return c.y + 1 < height_;
    case PortDir::South: return c.y > 0;
    case PortDir::East: return c.x + 1 < width_;
    case PortDir::West: return c.x > 0;
    case PortDir::Local: return false;
  }
  return false;
}

NodeId MeshTopology::neighbor(NodeId node, PortDir dir) const {
  if (!has_neighbor(node, dir)) {
    throw std::out_of_range("MeshTopology::neighbor: no neighbor in that direction");
  }
  Coord c = coord_of(node);
  switch (dir) {
    case PortDir::North: ++c.y; break;
    case PortDir::South: --c.y; break;
    case PortDir::East: ++c.x; break;
    case PortDir::West: --c.x; break;
    case PortDir::Local: break;
  }
  return node_at(c);
}

int MeshTopology::manhattan(Coord a, Coord b) noexcept {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

int MeshTopology::num_directed_links() const noexcept {
  return 2 * ((width_ - 1) * height_ + width_ * (height_ - 1));
}

}  // namespace nocdvfs::noc
