// Unit tests for the NoC building blocks below the router: the separable
// allocator, the NI grid and the mesh fabric (topo::Topology),
// dimension-ordered routing, and the pipelined channels.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "noc/allocator.hpp"
#include "noc/channel.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "topo/topology.hpp"

namespace nocdvfs::noc {
namespace {

// ---------------------------------------------------------- allocator ----

TEST(SeparableAllocator, SingleRequestGranted) {
  SeparableAllocator alloc(4, 4);
  alloc.add_request(1, 2);
  const auto& grants = alloc.allocate();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], (std::pair<int, int>{1, 2}));
}

TEST(SeparableAllocator, MatchingIsValid) {
  // Every agent requests every resource; the result must be a matching.
  SeparableAllocator alloc(4, 4);
  for (int round = 0; round < 20; ++round) {
    for (int a = 0; a < 4; ++a) {
      for (int r = 0; r < 4; ++r) alloc.add_request(a, r);
    }
    const auto& grants = alloc.allocate();
    std::set<int> agents, resources;
    for (const auto& [a, r] : grants) {
      EXPECT_TRUE(agents.insert(a).second) << "agent granted twice";
      EXPECT_TRUE(resources.insert(r).second) << "resource granted twice";
    }
    EXPECT_GE(grants.size(), 1u);
  }
}

TEST(SeparableAllocator, ConflictResolvedToOneWinner) {
  SeparableAllocator alloc(3, 3);
  alloc.add_request(0, 1);
  alloc.add_request(2, 1);
  const auto& grants = alloc.allocate();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].second, 1);
}

TEST(SeparableAllocator, RepeatedConflictAlternates) {
  // Under persistent 2-way conflict the rotating pointers must alternate
  // winners (starvation freedom).
  SeparableAllocator alloc(2, 1);
  std::map<int, int> wins;
  for (int i = 0; i < 100; ++i) {
    alloc.add_request(0, 0);
    alloc.add_request(1, 0);
    const auto& grants = alloc.allocate();
    ASSERT_EQ(grants.size(), 1u);
    ++wins[grants[0].first];
  }
  EXPECT_EQ(wins[0], 50);
  EXPECT_EQ(wins[1], 50);
}

TEST(SeparableAllocator, ClearDropsRequests) {
  SeparableAllocator alloc(2, 2);
  alloc.add_request(0, 0);
  alloc.clear_requests();
  EXPECT_TRUE(alloc.allocate().empty());
}

TEST(SeparableAllocator, InvalidSizesRejected) {
  EXPECT_THROW(SeparableAllocator(0, 1), std::invalid_argument);
  EXPECT_THROW(SeparableAllocator(1, 0), std::invalid_argument);
}

// ----------------------------------------------------------- topology ----

TEST(MeshTopology, CoordinateRoundTrip) {
  MeshTopology topo(5, 4);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(topo.node_at(topo.coord_of(n)), n);
  }
  EXPECT_EQ(topo.num_nodes(), 20);
}

// The router fabric of the mesh is topo::Topology's; router ids equal the
// row-major NI ids of the MeshTopology grid.
std::unique_ptr<topo::Topology> make_mesh(int width, int height) {
  return topo::Topology::make(topo::TopologyKind::Mesh, width, height, 1);
}

/// The mesh neighbour through `dir`, or -1 when that port is unwired.
NodeId neighbor(const topo::Topology& mesh, NodeId node, PortDir dir) {
  return mesh.peer(node, port_index(dir)).router;
}

PortDir dor(const topo::Topology& mesh, RoutingAlgo algo, NodeId here, NodeId dst) {
  return port_dir(mesh.dor_port(algo, here, dst));
}

TEST(MeshTopology, NeighborsAtCornersAndCenter) {
  const MeshTopology grid(3, 3);
  const auto mesh = make_mesh(3, 3);
  const NodeId corner = grid.node_at({0, 0});
  EXPECT_EQ(neighbor(*mesh, corner, PortDir::West), -1);
  EXPECT_EQ(neighbor(*mesh, corner, PortDir::South), -1);
  EXPECT_EQ(neighbor(*mesh, corner, PortDir::East), grid.node_at({1, 0}));
  EXPECT_EQ(neighbor(*mesh, corner, PortDir::North), grid.node_at({0, 1}));

  const NodeId center = grid.node_at({1, 1});
  EXPECT_EQ(mesh->router_net_degree(center), 4);
  EXPECT_FALSE(mesh->peer(center, port_index(PortDir::Local)).valid());
  EXPECT_EQ(neighbor(*mesh, center, PortDir::North), grid.node_at({1, 2}));
  EXPECT_EQ(neighbor(*mesh, center, PortDir::South), grid.node_at({1, 0}));
  EXPECT_EQ(neighbor(*mesh, center, PortDir::East), grid.node_at({2, 1}));
  EXPECT_EQ(neighbor(*mesh, center, PortDir::West), grid.node_at({0, 1}));
  // Each link arrives on the opposite port of its peer.
  EXPECT_EQ(mesh->peer(center, port_index(PortDir::North)).port, port_index(PortDir::South));
  EXPECT_EQ(mesh->peer(center, port_index(PortDir::West)).port, port_index(PortDir::East));
}

TEST(MeshTopology, NeighborUnwiredOffMesh) {
  const MeshTopology grid(2, 2);
  EXPECT_FALSE(make_mesh(2, 2)->peer(0, port_index(PortDir::West)).valid());
  EXPECT_THROW(grid.coord_of(4), std::out_of_range);
  EXPECT_THROW(grid.node_at({2, 0}), std::out_of_range);
}

TEST(MeshTopology, LinkCountFormula) {
  // 2·[(W−1)·H + W·(H−1)] directed inter-router links.
  EXPECT_EQ(make_mesh(5, 5)->num_directed_links(), 80);
  EXPECT_EQ(make_mesh(4, 4)->num_directed_links(), 48);
  EXPECT_EQ(make_mesh(8, 8)->num_directed_links(), 224);
  EXPECT_EQ(make_mesh(2, 1)->num_directed_links(), 2);
}

TEST(MeshTopology, ManhattanDistance) {
  EXPECT_EQ(MeshTopology::manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(MeshTopology::manhattan({2, 2}, {2, 2}), 0);
}

TEST(MeshTopology, DegenerateSizesRejected) {
  EXPECT_THROW(MeshTopology(0, 5), std::invalid_argument);
  EXPECT_THROW(MeshTopology(1, 1), std::invalid_argument);
}

// ------------------------------------------------------------ routing ----

TEST(Routing, XYGoesXFirst) {
  const MeshTopology grid(5, 5);
  const auto mesh = make_mesh(5, 5);
  const NodeId src = grid.node_at({1, 1});
  EXPECT_EQ(dor(*mesh, RoutingAlgo::XY, src, grid.node_at({3, 3})), PortDir::East);
  EXPECT_EQ(dor(*mesh, RoutingAlgo::XY, src, grid.node_at({0, 3})), PortDir::West);
  EXPECT_EQ(dor(*mesh, RoutingAlgo::XY, src, grid.node_at({1, 3})), PortDir::North);
  EXPECT_EQ(dor(*mesh, RoutingAlgo::XY, src, grid.node_at({1, 0})), PortDir::South);
  EXPECT_EQ(dor(*mesh, RoutingAlgo::XY, src, src), PortDir::Local);
}

TEST(Routing, YXGoesYFirst) {
  const MeshTopology grid(5, 5);
  const auto mesh = make_mesh(5, 5);
  const NodeId src = grid.node_at({1, 1});
  EXPECT_EQ(dor(*mesh, RoutingAlgo::YX, src, grid.node_at({3, 3})), PortDir::North);
  EXPECT_EQ(dor(*mesh, RoutingAlgo::YX, src, grid.node_at({3, 1})), PortDir::East);
}

TEST(Routing, AdaptiveAndUgalFallBackToXY) {
  // The deterministic port of the adaptive algorithms (their escape path)
  // is the XY port, for every pair.
  const auto mesh = make_mesh(4, 3);
  for (NodeId s = 0; s < mesh->num_nodes(); ++s) {
    for (NodeId d = 0; d < mesh->num_nodes(); ++d) {
      const int xy = mesh->dor_port(RoutingAlgo::XY, s, d);
      EXPECT_EQ(mesh->dor_port(RoutingAlgo::Adaptive, s, d), xy);
      EXPECT_EQ(mesh->dor_port(RoutingAlgo::Ugal, s, d), xy);
    }
  }
}

TEST(Routing, EveryPairReachesDestinationMinimally) {
  // Property: following the routing function hop by hop reaches dst in
  // exactly manhattan-distance steps, for both dimension orders.
  const MeshTopology grid(4, 3);
  const auto mesh = make_mesh(4, 3);
  for (const RoutingAlgo algo : {RoutingAlgo::XY, RoutingAlgo::YX}) {
    for (NodeId s = 0; s < grid.num_nodes(); ++s) {
      for (NodeId d = 0; d < grid.num_nodes(); ++d) {
        const int dist = MeshTopology::manhattan(grid.coord_of(s), grid.coord_of(d));
        ASSERT_EQ(mesh->hop_distance(s, d), dist);
        NodeId here = s;
        int steps = 0;
        while (here != d) {
          const PortDir dir = dor(*mesh, algo, here, d);
          ASSERT_NE(dir, PortDir::Local);
          here = neighbor(*mesh, here, dir);
          ASSERT_GE(here, 0) << "routed off the mesh";
          ASSERT_LE(++steps, dist) << "non-minimal route";
        }
        EXPECT_EQ(steps, dist);
        EXPECT_EQ(dor(*mesh, algo, here, d), PortDir::Local);
      }
    }
  }
}

TEST(Routing, StringConversions) {
  EXPECT_EQ(routing_algo_from_string("xy"), RoutingAlgo::XY);
  EXPECT_EQ(routing_algo_from_string("yx"), RoutingAlgo::YX);
  EXPECT_EQ(routing_algo_from_string("adaptive"), RoutingAlgo::Adaptive);
  EXPECT_EQ(routing_algo_from_string("ugal"), RoutingAlgo::Ugal);
  // Case-insensitive, and unknown names report the offender + valid set.
  EXPECT_EQ(routing_algo_from_string("XY"), RoutingAlgo::XY);
  EXPECT_EQ(routing_algo_from_string("UGAL"), RoutingAlgo::Ugal);
  try {
    routing_algo_from_string("westfirst");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("westfirst"), std::string::npos);
    EXPECT_NE(msg.find("valid"), std::string::npos);
  }
  EXPECT_STREQ(to_string(RoutingAlgo::XY), "xy");
  EXPECT_STREQ(to_string(RoutingAlgo::Adaptive), "adaptive");
  EXPECT_STREQ(to_string(RoutingAlgo::Ugal), "ugal");
}

// ------------------------------------------------------------ channel ----
//
// A channel has no clock edge of its own: it reads its reader's cycle
// counter. Each test owns that counter and advances it by hand.

TEST(DelayLine, DeliversAfterLatency) {
  std::uint64_t clock = 0;
  auto ch = Channel<int>::delay_line(2, &clock);
  ch.push(42);
  ++clock;
  EXPECT_FALSE(ch.pop().has_value());
  ++clock;
  const auto v = ch.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(DelayLine, PipelinedBackToBack) {
  std::uint64_t clock = 0;
  auto ch = Channel<int>::delay_line(3, &clock);
  // One push per cycle; each arrives exactly 3 cycles later.
  std::vector<int> received;
  for (int i = 0; i < 10; ++i) {
    ++clock;
    if (auto v = ch.pop()) received.push_back(*v);
    if (i < 6) ch.push(i);
  }
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(DelayLine, DoublePushSameCycleViolatesInvariant) {
  std::uint64_t clock = 0;
  auto ch = Channel<int>::delay_line(1, &clock);
  ch.push(1);
  EXPECT_THROW(ch.push(2), common::InvariantViolation);
}

TEST(DelayLine, OverwritingUndeliveredItemViolatesInvariant) {
  // A reader that misses due items leaves them queued; once the link holds
  // more than latency + 1 items the next push must trip the invariant, not
  // lose an item. Latency 3 allows four, so the fifth push is refused.
  std::uint64_t clock = 0;
  auto ch = Channel<int>::delay_line(3, &clock);
  for (int i = 0; i < 4; ++i) {
    ch.push(i);
    ++clock;
  }
  EXPECT_THROW(ch.push(4), common::InvariantViolation);
}

TEST(DelayLine, InFlightCount) {
  std::uint64_t clock = 0;
  auto ch = Channel<int>::delay_line(2, &clock);
  EXPECT_EQ(ch.in_flight(), 0u);
  ch.push(5);
  EXPECT_EQ(ch.in_flight(), 1u);
  clock += 2;
  (void)ch.pop();
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(DelayLine, PendingBitFollowsOccupancy) {
  // The bit the reader bound is set by a push and cleared only by the pop
  // that empties the channel; the reader's other bits are never touched.
  std::uint64_t clock = 0;
  std::uint64_t mask = 0b1000;
  auto ch = Channel<int>::delay_line(1, &clock);
  ch.set_reader_bit(&mask, 1);
  ch.push(1);
  EXPECT_EQ(mask, 0b1010u);
  ++clock;
  ch.push(2);
  ASSERT_EQ(ch.pop().value_or(-1), 1);
  EXPECT_EQ(mask, 0b1010u) << "one item still in flight";
  ++clock;
  ASSERT_EQ(ch.pop().value_or(-1), 2);
  EXPECT_EQ(mask, 0b1000u);
}

TEST(DelayLine, MissedDueItemViolatesInvariant) {
  // A same-clock reader must take each item in the cycle it arrives;
  // popping it a cycle late is a protocol bug, not a delayed delivery.
  std::uint64_t clock = 0;
  auto ch = Channel<int>::delay_line(1, &clock);
  ch.push(7);
  clock += 2;
  EXPECT_THROW((void)ch.pop(), common::InvariantViolation);
}

TEST(DelayLine, LatencyMustBePositive) {
  std::uint64_t clock = 0;
  EXPECT_THROW(Channel<int>::delay_line(0, &clock), std::invalid_argument);
  EXPECT_THROW(Channel<int>::delay_line(1, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace nocdvfs::noc
