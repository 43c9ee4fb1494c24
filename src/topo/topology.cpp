#include "topo/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"

namespace nocdvfs::topo {

using noc::kMaxPorts;
using noc::NodeId;
using noc::PortDir;
using noc::RoutingAlgo;

const char* to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::Mesh: return "mesh";
    case TopologyKind::Torus: return "torus";
    case TopologyKind::Cmesh: return "cmesh";
    case TopologyKind::Dragonfly: return "dragonfly";
  }
  return "?";
}

namespace {
constexpr TopologyKind kAllKinds[] = {TopologyKind::Mesh, TopologyKind::Torus,
                                      TopologyKind::Cmesh, TopologyKind::Dragonfly};
}  // namespace

TopologyKind topology_kind_from_string(const std::string& name) {
  return common::from_name(name, kAllKinds, "unknown topology");
}

Topology::Topology(TopologyKind kind, int width, int height, int concentration,
                   int num_routers)
    : kind_(kind),
      width_(width),
      height_(height),
      concentration_(concentration),
      num_routers_(num_routers) {}

int Topology::router_net_degree(int router) const {
  int degree = 0;
  const int net = num_net_ports(router);
  for (int p = 0; p < net; ++p) {
    if (peer(router, p).valid()) ++degree;
  }
  return degree;
}

void Topology::finalize_link_inventory() {
  num_directed_links_ = 0;
  max_radix_ = 0;
  for (int r = 0; r < num_routers_; ++r) {
    num_directed_links_ += router_net_degree(r);
    max_radix_ = std::max(max_radix_, radix(r));
    if (radix(r) > kMaxPorts) {
      std::ostringstream msg;
      msg << to_string(kind_) << " topology: router " << r << " radix " << radix(r)
          << " exceeds the kMaxPorts ceiling (" << kMaxPorts << ")";
      throw std::invalid_argument(msg.str());
    }
  }
}

namespace {

// ---------------------------------------------------------------------------
// mesh and cmesh — an open 2-D grid of routers. Router r sits at
// (r % w, r / w) on the router grid; ports 0..3 are N,E,S,W (the PortDir
// values), edge ports are unwired, and the NI local ports follow. The mesh
// is the paper's grid: one router per NI, port 4 is its local port, and
// topology=mesh routing=xy is bit-identical to the pre-subsystem
// simulator. The concentrated mesh folds 2×1 (c=2) or 2×2 (c=4) NI blocks
// onto one router, its NI locals in row-major block order. DOR finishes
// one axis before the other; Adaptive and UGAL fall back to XY for the
// deterministic port.
// ---------------------------------------------------------------------------
class GridImpl final : public Topology {
 public:
  GridImpl(TopologyKind kind, int width, int height, int concentration)
      : Topology(kind, width, height, concentration,
                 (width / block_width(concentration)) * (height / block_height(concentration))),
        block_w_(block_width(concentration)),
        block_h_(block_height(concentration)),
        w_(width / block_w_),
        h_(height / block_h_) {
    finalize_link_inventory();
  }

  int router_of(NodeId node) const override {
    const int x = node % width();
    const int y = node / width();
    return (y / block_h_) * w_ + x / block_w_;
  }
  int local_port(NodeId node) const override {
    const int x = node % width();
    const int y = node / width();
    return 4 + (y % block_h_) * block_w_ + x % block_w_;
  }
  int radix(int router) const override {
    (void)router;
    return 4 + concentration();
  }
  int num_net_ports(int router) const override {
    (void)router;
    return 4;
  }

  PortPeer peer(int router, int port) const override {
    const int x = router % w_;
    const int y = router / w_;
    switch (noc::port_dir(port)) {
      case PortDir::North:
        if (y + 1 >= h_) return {};
        return {router + w_, noc::port_index(PortDir::South)};
      case PortDir::South:
        if (y == 0) return {};
        return {router - w_, noc::port_index(PortDir::North)};
      case PortDir::East:
        if (x + 1 >= w_) return {};
        return {router + 1, noc::port_index(PortDir::West)};
      case PortDir::West:
        if (x == 0) return {};
        return {router - 1, noc::port_index(PortDir::East)};
      case PortDir::Local: break;
    }
    return {};
  }

  int hop_distance(int ra, int rb) const override {
    return std::abs(ra % w_ - rb % w_) + std::abs(ra / w_ - rb / w_);
  }

  int dor_port(RoutingAlgo algo, int here, int dst_router) const override {
    const int hx = here % w_, hy = here / w_;
    const int dx = dst_router % w_, dy = dst_router / w_;
    if (algo != RoutingAlgo::YX) {
      if (dx > hx) return noc::port_index(PortDir::East);
      if (dx < hx) return noc::port_index(PortDir::West);
      if (dy > hy) return noc::port_index(PortDir::North);
      if (dy < hy) return noc::port_index(PortDir::South);
    } else {
      if (dy > hy) return noc::port_index(PortDir::North);
      if (dy < hy) return noc::port_index(PortDir::South);
      if (dx > hx) return noc::port_index(PortDir::East);
      if (dx < hx) return noc::port_index(PortDir::West);
    }
    return noc::port_index(PortDir::Local);
  }

  int minimal_ports(int here, int dst_router,
                    std::array<int, kMaxPorts>& out) const override {
    const int hx = here % w_, hy = here / w_;
    const int dx = dst_router % w_, dy = dst_router / w_;
    int n = 0;
    if (dy > hy) out[n++] = noc::port_index(PortDir::North);
    if (dx > hx) out[n++] = noc::port_index(PortDir::East);
    if (dy < hy) out[n++] = noc::port_index(PortDir::South);
    if (dx < hx) out[n++] = noc::port_index(PortDir::West);
    return n;
  }

 private:
  static int block_width(int concentration) { return concentration == 1 ? 1 : 2; }
  static int block_height(int concentration) { return concentration == 4 ? 2 : 1; }

  int block_w_;  ///< NI block folded onto one router
  int block_h_;
  int w_;  ///< router grid
  int h_;
};

// ---------------------------------------------------------------------------
// torus — the mesh plus wrap links, so every router has all four network
// ports wired (width=2 gives two parallel links between a pair). DOR picks
// the shorter way around each ring (ties go to the positive direction) and
// needs two VC classes per the classic dateline scheme: a packet whose
// remaining path in the *current* dimension crosses the wrap edge (between
// coordinate max and 0) travels in class 0 and switches to class 1 after
// the crossing; class 1 never uses the dateline link in either direction,
// which breaks the ring cycle.
// ---------------------------------------------------------------------------
class TorusImpl final : public Topology {
 public:
  TorusImpl(int width, int height)
      : Topology(TopologyKind::Torus, width, height, 1, width * height) {
    finalize_link_inventory();
  }

  int router_of(NodeId node) const override { return node; }
  int local_port(NodeId node) const override {
    (void)node;
    return noc::port_index(PortDir::Local);
  }
  int radix(int router) const override {
    (void)router;
    return noc::kMeshPorts;
  }
  int num_net_ports(int router) const override {
    (void)router;
    return 4;
  }

  PortPeer peer(int router, int port) const override {
    const int w = width();
    const int h = height();
    const int x = router % w;
    const int y = router / w;
    switch (noc::port_dir(port)) {
      case PortDir::North: return {((y + 1) % h) * w + x, noc::port_index(PortDir::South)};
      case PortDir::South:
        return {((y - 1 + h) % h) * w + x, noc::port_index(PortDir::North)};
      case PortDir::East: return {y * w + (x + 1) % w, noc::port_index(PortDir::West)};
      case PortDir::West:
        return {y * w + (x - 1 + w) % w, noc::port_index(PortDir::East)};
      case PortDir::Local: break;
    }
    return {};
  }

  int hop_distance(int ra, int rb) const override {
    const int w = width();
    const int h = height();
    const int dx = (rb % w - ra % w + w) % w;
    const int dy = (rb / w - ra / w + h) % h;
    return std::min(dx, w - dx) + std::min(dy, h - dy);
  }

  int dor_port(RoutingAlgo algo, int here, int dst_router) const override {
    const int port = x_first(algo) ? x_port(here, dst_router) : y_port(here, dst_router);
    if (port >= 0) return port;
    const int other = x_first(algo) ? y_port(here, dst_router) : x_port(here, dst_router);
    return other >= 0 ? other : noc::port_index(PortDir::Local);
  }

  int minimal_ports(int here, int dst_router,
                    std::array<int, kMaxPorts>& out) const override {
    // Strictly distance-reducing directions, ascending port order; an exact
    // half-ring tie admits both ways around.
    const int w = width();
    const int h = height();
    const int dx = (dst_router % w - here % w + w) % w;
    const int dy = (dst_router / w - here / w + h) % h;
    int n = 0;
    if (dy != 0 && 2 * dy <= h) out[n++] = noc::port_index(PortDir::North);
    if (dx != 0 && 2 * dx <= w) out[n++] = noc::port_index(PortDir::East);
    if (dy != 0 && 2 * dy >= h) out[n++] = noc::port_index(PortDir::South);
    if (dx != 0 && 2 * dx >= w) out[n++] = noc::port_index(PortDir::West);
    return n;
  }

  int dor_vc_class(RoutingAlgo algo, int here, int dst_router) const override {
    const int port = dor_port(algo, here, dst_router);
    const int w = width();
    const int hx = here % w, hy = here / w;
    const int dx = dst_router % w, dy = dst_router / w;
    switch (noc::port_dir(port)) {
      // Dateline of each ring sits on the wrap edge (coordinate max <-> 0):
      // travelling in a direction that still has to wrap => class 0.
      case PortDir::East: return dx < hx ? 0 : 1;
      case PortDir::West: return dx > hx ? 0 : 1;
      case PortDir::North: return dy < hy ? 0 : 1;
      case PortDir::South: return dy > hy ? 0 : 1;
      case PortDir::Local: break;
    }
    return 1;
  }

  int num_dor_classes() const override { return 2; }

 private:
  static bool x_first(RoutingAlgo algo) { return algo != RoutingAlgo::YX; }

  int x_port(int here, int dst) const {
    const int w = width();
    const int dx = (dst % w - here % w + w) % w;
    if (dx == 0) return -1;
    return 2 * dx <= w ? noc::port_index(PortDir::East) : noc::port_index(PortDir::West);
  }
  int y_port(int here, int dst) const {
    const int h = height();
    const int dy = (dst / width() - here / width() + h) % h;
    if (dy == 0) return -1;
    return 2 * dy <= h ? noc::port_index(PortDir::North) : noc::port_index(PortDir::South);
  }
};

// ---------------------------------------------------------------------------
// dragonfly — a small hierarchical network in the dragonfly mold. One group
// per NI row: g = height groups of a = width/c routers, each router serving
// c NIs. Inside a group the routers form a complete graph (a-1 local
// ports); groups are joined by h = ceil((g-1)/a) global ports per router
// using the palmtree assignment: global slot k = i·h + j of group G (router
// i, global port j) reaches group (G + k + 1) mod g, and the reverse link
// of slot k is slot g-2-k on the destination group. Port order on a
// router: locals [0, a-1), globals [a-1, a-1+h), NI locals last.
//
// The canonical minimal route is local→global→local (≤3 hops). Two VC
// classes make it deadlock-free: class 0 until the global hop, class 1
// inside the destination group (where every local hop is terminal).
// ---------------------------------------------------------------------------
class DragonflyImpl final : public Topology {
 public:
  DragonflyImpl(int width, int height, int concentration)
      : Topology(TopologyKind::Dragonfly, width, height, concentration,
                 (width / concentration) * height),
        a_(width / concentration),
        g_(height),
        h_((g_ - 1 + (width / concentration) - 1) / (width / concentration)) {
    finalize_link_inventory();
  }

  int router_of(NodeId node) const override {
    const int x = node % width();
    const int y = node / width();
    return y * a_ + x / concentration();
  }
  int local_port(NodeId node) const override {
    return (a_ - 1) + h_ + (node % width()) % concentration();
  }
  int radix(int router) const override {
    (void)router;
    return (a_ - 1) + h_ + concentration();
  }
  int num_net_ports(int router) const override {
    (void)router;
    return (a_ - 1) + h_;
  }

  PortPeer peer(int router, int port) const override {
    const int group = router / a_;
    const int i = router % a_;
    if (port < a_ - 1) {  // intra-group complete graph
      const int j = port < i ? port : port + 1;
      return {group * a_ + j, i < j ? i : i - 1};
    }
    const int slot = i * h_ + (port - (a_ - 1));  // global slot k of this group
    if (slot > g_ - 2) return {};                 // unwired surplus global port
    const int dst_group = (group + slot + 1) % g_;
    const int rev = g_ - 2 - slot;  // reverse slot on the destination group
    return {dst_group * a_ + rev / h_, (a_ - 1) + rev % h_};
  }

  int hop_distance(int ra, int rb) const override {
    if (ra == rb) return 0;
    const int ga = ra / a_, gb = rb / a_;
    if (ga == gb) return 1;
    const int k = (gb - ga - 1 + g_) % g_;
    const int src_owner = k / h_;
    const int dst_owner = (g_ - 2 - k) / h_;
    return (ra % a_ == src_owner ? 0 : 1) + 1 + (dst_owner == rb % a_ ? 0 : 1);
  }

  int dor_port(RoutingAlgo algo, int here, int dst_router) const override {
    (void)algo;
    const int gh = here / a_, gd = dst_router / a_;
    const int i = here % a_;
    if (gh == gd) return local_port_to(i, dst_router % a_);
    const int k = (gd - gh - 1 + g_) % g_;
    const int owner = k / h_;
    if (i == owner) return (a_ - 1) + k % h_;  // take the global hop
    return local_port_to(i, owner);
  }

  int minimal_ports(int here, int dst_router,
                    std::array<int, kMaxPorts>& out) const override {
    out[0] = dor_port(RoutingAlgo::XY, here, dst_router);
    return 1;
  }

  int dor_vc_class(RoutingAlgo algo, int here, int dst_router) const override {
    (void)algo;
    return here / a_ == dst_router / a_ ? 1 : 0;
  }

  int num_dor_classes() const override { return 2; }

 private:
  int local_port_to(int i, int j) const { return j < i ? j : j - 1; }

  int a_;  ///< routers per group
  int g_;  ///< groups
  int h_;  ///< global ports per router
};

}  // namespace

std::unique_ptr<Topology> Topology::make(TopologyKind kind, int width, int height,
                                         int concentration) {
  const auto fail = [&](const std::string& why) {
    std::ostringstream msg;
    msg << to_string(kind) << " topology " << width << "x" << height << " concentration "
        << concentration << ": " << why;
    throw std::invalid_argument(msg.str());
  };
  if (width < 1 || height < 1) fail("dimensions must be positive");
  switch (kind) {
    case TopologyKind::Mesh:
      if (concentration != 1) fail("mesh requires concentration=1");
      if (width * height < 2) fail("needs at least 2 nodes");
      return std::make_unique<GridImpl>(kind, width, height, concentration);
    case TopologyKind::Torus:
      if (concentration != 1) fail("torus requires concentration=1");
      if (width < 2 || height < 2) fail("torus requires width>=2 and height>=2");
      return std::make_unique<TorusImpl>(width, height);
    case TopologyKind::Cmesh: {
      if (concentration != 2 && concentration != 4) {
        fail("cmesh requires concentration=2 (2x1 NI blocks) or 4 (2x2 NI blocks)");
      }
      const int bh = concentration == 4 ? 2 : 1;
      if (width % 2 != 0) fail("cmesh requires even width");
      if (height % bh != 0) fail("cmesh concentration=4 requires even height");
      if ((width / 2) * (height / bh) < 2) fail("needs at least 2 routers");
      return std::make_unique<GridImpl>(kind, width, height, concentration);
    }
    case TopologyKind::Dragonfly: {
      if (concentration < 1) fail("concentration must be >= 1");
      if (width % concentration != 0) {
        fail("dragonfly requires concentration to divide width (a = width/c routers per group)");
      }
      if (height < 2) fail("dragonfly requires height>=2 (one group per row)");
      return std::make_unique<DragonflyImpl>(width, height, concentration);
    }
  }
  fail("unhandled topology kind");
  return nullptr;  // unreachable
}

}  // namespace nocdvfs::topo
