// The topo/ subsystem: topology shapes, the routing engine's class
// discipline, fault injection with up*/down* reroute, and the scenario
// pre-flight validation that ties them together.
//
// Structural invariants are checked per topology kind over several sizes:
// peer symmetry (following a directed link and its return port round-trips),
// the directed-link inventory, tile ownership (every router owns exactly
// `concentration` NIs, each on a distinct local port), and that walking
// dor_port reaches the destination in exactly hop_distance() steps — i.e.
// the deterministic route is the canonical minimal path everywhere.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "noc/routing.hpp"
#include "sim/scenario.hpp"
#include "topo/fault_model.hpp"
#include "topo/routing_engine.hpp"
#include "topo/topology.hpp"

namespace nocdvfs {
namespace {

using topo::FaultModel;
using topo::RoutingEngine;
using topo::Topology;
using topo::TopologyKind;

struct Shape {
  TopologyKind kind;
  int width;
  int height;
  int concentration;
};

std::vector<Shape> all_shapes() {
  return {
      {TopologyKind::Mesh, 4, 4, 1},      {TopologyKind::Mesh, 5, 3, 1},
      {TopologyKind::Torus, 4, 4, 1},     {TopologyKind::Torus, 5, 3, 1},
      {TopologyKind::Cmesh, 4, 4, 4},     {TopologyKind::Cmesh, 6, 4, 2},
      {TopologyKind::Dragonfly, 4, 3, 1}, {TopologyKind::Dragonfly, 6, 4, 2},
  };
}

std::string label(const Shape& s) {
  return std::string(topo::to_string(s.kind)) + " " + std::to_string(s.width) + "x" +
         std::to_string(s.height) + " c=" + std::to_string(s.concentration);
}

TEST(TopologyParse, CaseInsensitiveWithOffenderInError) {
  EXPECT_EQ(topo::topology_kind_from_string("mesh"), TopologyKind::Mesh);
  EXPECT_EQ(topo::topology_kind_from_string("TORUS"), TopologyKind::Torus);
  EXPECT_EQ(topo::topology_kind_from_string("CMesh"), TopologyKind::Cmesh);
  EXPECT_EQ(topo::topology_kind_from_string("Dragonfly"), TopologyKind::Dragonfly);
  try {
    topo::topology_kind_from_string("hypercube");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hypercube"), std::string::npos) << what;
    EXPECT_NE(what.find("valid"), std::string::npos) << what;
    EXPECT_NE(what.find("torus"), std::string::npos) << what;
  }
}

TEST(TopologyMake, RejectsIllegalShapes) {
  EXPECT_THROW(Topology::make(TopologyKind::Mesh, 4, 4, 2), std::invalid_argument);
  EXPECT_THROW(Topology::make(TopologyKind::Torus, 1, 4, 1), std::invalid_argument);
  EXPECT_THROW(Topology::make(TopologyKind::Cmesh, 4, 4, 3), std::invalid_argument);
  EXPECT_THROW(Topology::make(TopologyKind::Cmesh, 5, 4, 2), std::invalid_argument);
  EXPECT_THROW(Topology::make(TopologyKind::Cmesh, 4, 3, 4), std::invalid_argument);
  EXPECT_THROW(Topology::make(TopologyKind::Dragonfly, 5, 3, 2), std::invalid_argument);
  EXPECT_THROW(Topology::make(TopologyKind::Dragonfly, 4, 1, 1), std::invalid_argument);
  // The error names the shape and the reason.
  try {
    Topology::make(TopologyKind::Cmesh, 4, 4, 3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cmesh"), std::string::npos) << what;
    EXPECT_NE(what.find("concentration"), std::string::npos) << what;
  }
}

TEST(TopologyStructure, PeerSymmetryAndLinkInventory) {
  for (const Shape& s : all_shapes()) {
    SCOPED_TRACE(label(s));
    const auto t = Topology::make(s.kind, s.width, s.height, s.concentration);
    int directed = 0;
    for (int r = 0; r < t->num_routers(); ++r) {
      EXPECT_LE(t->radix(r), noc::kMaxPorts);
      EXPECT_LE(t->num_net_ports(r), t->radix(r));
      for (int p = 0; p < t->num_net_ports(r); ++p) {
        const topo::PortPeer far = t->peer(r, p);
        if (!far.valid()) continue;  // unwired mesh edge
        ++directed;
        ASSERT_GE(far.router, 0);
        ASSERT_LT(far.router, t->num_routers());
        ASSERT_NE(far.router, r) << "self-link at port " << p;
        // The far end's return port points straight back here.
        const topo::PortPeer back = t->peer(far.router, far.port);
        ASSERT_TRUE(back.valid());
        EXPECT_EQ(back.router, r);
        EXPECT_EQ(back.port, p);
      }
    }
    EXPECT_EQ(directed, t->num_directed_links());
    EXPECT_EQ(directed % 2, 0) << "every undirected link must appear twice";
  }
}

TEST(TopologyStructure, TileOwnershipIsAPartition) {
  for (const Shape& s : all_shapes()) {
    SCOPED_TRACE(label(s));
    const auto t = Topology::make(s.kind, s.width, s.height, s.concentration);
    std::vector<int> nis_of(static_cast<std::size_t>(t->num_routers()), 0);
    std::set<std::pair<int, int>> used_ports;
    for (noc::NodeId n = 0; n < t->num_nodes(); ++n) {
      const int r = t->router_of(n);
      ASSERT_GE(r, 0);
      ASSERT_LT(r, t->num_routers());
      ++nis_of[static_cast<std::size_t>(r)];
      const int lp = t->local_port(n);
      // Local ports live past the network ports and are distinct per NI.
      EXPECT_GE(lp, t->num_net_ports(r));
      EXPECT_LT(lp, t->radix(r));
      EXPECT_TRUE(used_ports.insert({r, lp}).second)
          << "node " << n << " shares local port " << lp << " on router " << r;
    }
    for (int count : nis_of) EXPECT_EQ(count, s.concentration);
  }
}

TEST(TopologyStructure, DorWalkReachesInHopDistanceSteps) {
  for (const Shape& s : all_shapes()) {
    SCOPED_TRACE(label(s));
    const auto t = Topology::make(s.kind, s.width, s.height, s.concentration);
    for (int a = 0; a < t->num_routers(); ++a) {
      EXPECT_EQ(t->hop_distance(a, a), 0);
      for (int b = 0; b < t->num_routers(); ++b) {
        if (a == b) continue;
        const int d = t->hop_distance(a, b);
        ASSERT_GT(d, 0);
        int here = a;
        for (int step = 0; step < d; ++step) {
          const int p = t->dor_port(noc::RoutingAlgo::XY, here, b);
          ASSERT_GE(p, 0);
          ASSERT_LT(p, t->num_net_ports(here));
          const topo::PortPeer far = t->peer(here, p);
          ASSERT_TRUE(far.valid());
          here = far.router;
        }
        EXPECT_EQ(here, b) << "dor walk " << a << "->" << b << " did not arrive in " << d
                           << " steps";
      }
    }
  }
}

TEST(TopologyStructure, MinimalPortsAllDecreaseDistance) {
  for (const Shape& s : all_shapes()) {
    SCOPED_TRACE(label(s));
    const auto t = Topology::make(s.kind, s.width, s.height, s.concentration);
    for (int a = 0; a < t->num_routers(); ++a) {
      for (int b = 0; b < t->num_routers(); ++b) {
        if (a == b) continue;
        std::array<int, noc::kMaxPorts> ports{};
        const int n = t->minimal_ports(a, b, ports);
        ASSERT_GT(n, 0) << a << "->" << b;
        int prev = -1;
        for (int i = 0; i < n; ++i) {
          EXPECT_GT(ports[static_cast<std::size_t>(i)], prev) << "ports must ascend";
          prev = ports[static_cast<std::size_t>(i)];
          const topo::PortPeer far = t->peer(a, ports[static_cast<std::size_t>(i)]);
          ASSERT_TRUE(far.valid());
          EXPECT_EQ(t->hop_distance(far.router, b), t->hop_distance(a, b) - 1)
              << "port " << ports[static_cast<std::size_t>(i)] << " of " << a << "->" << b
              << " is not on a minimal path";
        }
      }
    }
  }
}

TEST(TopologyStructure, DatelineClassesOnlyWhereNeeded) {
  EXPECT_EQ(Topology::make(TopologyKind::Mesh, 4, 4, 1)->num_dor_classes(), 1);
  EXPECT_EQ(Topology::make(TopologyKind::Cmesh, 4, 4, 4)->num_dor_classes(), 1);
  EXPECT_EQ(Topology::make(TopologyKind::Torus, 4, 4, 1)->num_dor_classes(), 2);
  EXPECT_EQ(Topology::make(TopologyKind::Dragonfly, 4, 3, 1)->num_dor_classes(), 2);
}

TEST(RoutingEngineVcs, RequiredVcsFollowsClassDiscipline) {
  const auto mesh = Topology::make(TopologyKind::Mesh, 4, 4, 1);
  const auto torus = Topology::make(TopologyKind::Torus, 4, 4, 1);
  EXPECT_EQ(RoutingEngine::required_vcs(*mesh, noc::RoutingAlgo::XY), 1);
  EXPECT_EQ(RoutingEngine::required_vcs(*mesh, noc::RoutingAlgo::Adaptive), 2);
  EXPECT_EQ(RoutingEngine::required_vcs(*mesh, noc::RoutingAlgo::Ugal), 2);
  EXPECT_EQ(RoutingEngine::required_vcs(*torus, noc::RoutingAlgo::XY), 2);
  EXPECT_EQ(RoutingEngine::required_vcs(*torus, noc::RoutingAlgo::Adaptive), 3);
  EXPECT_EQ(RoutingEngine::required_vcs(*torus, noc::RoutingAlgo::Ugal), 4);
}

TEST(FaultSpec, GrammarAcceptanceAndRejection) {
  EXPECT_TRUE(FaultModel::spec_is_off(""));
  EXPECT_TRUE(FaultModel::spec_is_off("off"));
  EXPECT_TRUE(FaultModel::spec_is_off("NONE"));
  EXPECT_FALSE(FaultModel::spec_is_off("links:1"));

  EXPECT_EQ(FaultModel::spec_problem("links:2"), "");
  EXPECT_EQ(FaultModel::spec_problem("routers:1@5000"), "");
  EXPECT_EQ(FaultModel::spec_problem("links:1@0+routers:2@9000"), "");
  EXPECT_NE(FaultModel::spec_problem("links"), "");
  EXPECT_NE(FaultModel::spec_problem("links:-1"), "");
  EXPECT_NE(FaultModel::spec_problem("bridges:1"), "");
  EXPECT_NE(FaultModel::spec_problem("links:1@"), "");
  // The problem string names the offending token.
  EXPECT_NE(FaultModel::spec_problem("bridges:1").find("bridges"), std::string::npos);
}

TEST(FaultInjection, EventsFireOnScheduleAndAreSeedStable) {
  const auto t = Topology::make(TopologyKind::Torus, 4, 4, 1);
  FaultModel faults(*t, "links:2@100+routers:1@5000", 7);
  EXPECT_TRUE(faults.has_events());
  EXPECT_TRUE(faults.has_pending());
  EXPECT_FALSE(faults.due(99));
  EXPECT_TRUE(faults.due(100));

  EXPECT_TRUE(faults.advance_to(100));
  EXPECT_EQ(faults.failed_links(), 2);
  EXPECT_EQ(faults.failed_routers(), 0);
  EXPECT_TRUE(faults.has_pending());
  EXPECT_FALSE(faults.due(4999));

  EXPECT_TRUE(faults.advance_to(5000));
  EXPECT_EQ(faults.failed_routers(), 1);
  EXPECT_FALSE(faults.has_pending());

  // Same spec + seed kills the same elements...
  FaultModel again(*t, "links:2@100+routers:1@5000", 7);
  again.advance_to(5000);
  for (int r = 0; r < t->num_routers(); ++r) {
    EXPECT_EQ(faults.router_failed(r), again.router_failed(r));
    for (int p = 0; p < t->num_net_ports(r); ++p) {
      EXPECT_EQ(faults.link_failed(r, p), again.link_failed(r, p));
    }
  }
  // ...and the selection actually depends on the seed: some nearby seed
  // must pick a different fault set.
  const auto same_as_base = [&](const FaultModel& other) {
    for (int r = 0; r < t->num_routers(); ++r) {
      if (faults.router_failed(r) != other.router_failed(r)) return false;
      for (int p = 0; p < t->num_net_ports(r); ++p) {
        if (faults.link_failed(r, p) != other.link_failed(r, p)) return false;
      }
    }
    return true;
  };
  bool found_different = false;
  for (std::uint64_t seed = 8; seed < 24 && !found_different; ++seed) {
    FaultModel other(*t, "links:2@100+routers:1@5000", seed);
    other.advance_to(5000);
    found_different = !same_as_base(other);
  }
  EXPECT_TRUE(found_different) << "fault selection ignores the seed";
}

TEST(FaultInjection, FailedLinkIsDeadInBothDirections) {
  const auto t = Topology::make(TopologyKind::Torus, 4, 4, 1);
  FaultModel faults(*t, "links:3", 11);
  faults.advance_to(0);
  int directed_dead = 0;
  for (int r = 0; r < t->num_routers(); ++r) {
    for (int p = 0; p < t->num_net_ports(r); ++p) {
      if (!faults.link_failed(r, p)) continue;
      ++directed_dead;
      const topo::PortPeer far = t->peer(r, p);
      ASSERT_TRUE(far.valid());
      EXPECT_TRUE(faults.link_failed(far.router, far.port))
          << "reverse direction of a failed link must be failed too";
    }
  }
  EXPECT_EQ(directed_dead, 2 * faults.failed_links());
}

TEST(FaultInjection, NeverKillsTheLastRouter) {
  const auto t = Topology::make(TopologyKind::Mesh, 2, 2, 1);
  FaultModel faults(*t, "routers:99", 3);
  faults.advance_to(0);
  EXPECT_LT(faults.failed_routers(), t->num_routers());
  EXPECT_GE(faults.failed_routers(), 1);
}

TEST(RerouteTables, FaultFreeTablesBendNothing) {
  for (const Shape& s : all_shapes()) {
    SCOPED_TRACE(label(s));
    const auto t = Topology::make(s.kind, s.width, s.height, s.concentration);
    RoutingEngine engine(*t, noc::RoutingAlgo::XY,
                         RoutingEngine::required_vcs(*t, noc::RoutingAlgo::XY));
    engine.rebuild_tables();
    EXPECT_EQ(engine.unreachable_pairs(), 0);
    EXPECT_EQ(engine.rerouted_pairs(), 0);
    for (noc::NodeId a = 0; a < t->num_nodes(); ++a) {
      for (noc::NodeId b = 0; b < t->num_nodes(); ++b) {
        EXPECT_TRUE(engine.reachable(a, b));
      }
    }
  }
}

TEST(RerouteTables, LinkFaultReroutesWithoutDisconnectingTorus) {
  const auto t = Topology::make(TopologyKind::Torus, 4, 4, 1);
  RoutingEngine engine(*t, noc::RoutingAlgo::XY, 2);
  FaultModel faults(*t, "links:2", 5);
  engine.set_fault_model(&faults);
  faults.advance_to(0);
  engine.rebuild_tables();
  EXPECT_TRUE(engine.hook_active());
  // A 4x4 torus is 4-regular: two dead links cannot disconnect it, but
  // they must bend some routes off the fault-free table.
  EXPECT_EQ(engine.unreachable_pairs(), 0);
  EXPECT_GT(engine.rerouted_pairs(), 0);
  for (noc::NodeId a = 0; a < t->num_nodes(); ++a) {
    for (noc::NodeId b = 0; b < t->num_nodes(); ++b) {
      EXPECT_TRUE(engine.reachable(a, b));
    }
  }
}

TEST(RerouteTables, DeadRouterMakesItsNisUnreachable) {
  const auto t = Topology::make(TopologyKind::Mesh, 4, 4, 1);
  RoutingEngine engine(*t, noc::RoutingAlgo::XY, 1);
  FaultModel faults(*t, "routers:1", 9);
  engine.set_fault_model(&faults);
  faults.advance_to(0);
  engine.rebuild_tables();
  int dead = -1;
  for (int r = 0; r < t->num_routers(); ++r) {
    if (faults.router_failed(r)) dead = r;
  }
  ASSERT_GE(dead, 0);
  const int n = t->num_nodes();
  // Every ordered pair touching the dead tile is unreachable: (n-1) sources
  // into it plus (n-1) destinations out of it.
  EXPECT_EQ(engine.unreachable_pairs(), 2 * (n - 1));
  for (noc::NodeId other = 0; other < n; ++other) {
    if (other == dead) continue;
    EXPECT_FALSE(engine.reachable(other, dead));
    EXPECT_FALSE(engine.reachable(dead, other));
    EXPECT_TRUE(engine.reachable(other, other));
  }
}

// --- scenario pre-flight validation -----------------------------------

TEST(TopoConfig, VcBudgetCheckedAgainstClassDiscipline) {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.network.topology = TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::Ugal;
  s.network.num_vcs = 2;  // UGAL on a torus needs 4
  const std::string problem = sim::scenario_problem(s);
  EXPECT_NE(problem, "");
  EXPECT_NE(problem.find("virtual channels"), std::string::npos) << problem;
  s.network.num_vcs = 4;
  EXPECT_EQ(sim::scenario_problem(s), "");
}

TEST(TopoConfig, ThermalRequiresPlainMesh) {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.thermal = true;
  EXPECT_EQ(sim::scenario_problem(s), "");
  s.network.topology = TopologyKind::Torus;
  EXPECT_NE(sim::scenario_problem(s), "");
}

TEST(TopoConfig, IslandPartitionMayNotSplitTiles) {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.network.topology = TopologyKind::Cmesh;
  s.network.concentration = 4;
  s.network.routing = noc::RoutingAlgo::XY;
  s.islands = "quadrants";  // each 2x2 NI quadrant is exactly one cmesh tile
  EXPECT_EQ(sim::scenario_problem(s), "");
  s.islands = "rows";  // a row slices every 2x2 tile in half
  const std::string problem = sim::scenario_problem(s);
  EXPECT_NE(problem, "");
  EXPECT_NE(problem.find("tile"), std::string::npos) << problem;
}

TEST(TopoConfig, FaultSpecValidatedUpFront) {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.network.faults = "links:nope";
  EXPECT_NE(sim::scenario_problem(s), "");
  s.network.faults = "links:1@2000";
  EXPECT_EQ(sim::scenario_problem(s), "");
}

// --- end-to-end delivery on every topology x algorithm ------------------

struct EndToEndCase {
  TopologyKind kind;
  int width, height, concentration;
  const char* routing;
  int vcs;
};

TEST(TopoEndToEnd, EveryTopologyAlgorithmPairDelivers) {
  const std::vector<EndToEndCase> cases = {
      {TopologyKind::Torus, 4, 4, 1, "xy", 2},
      {TopologyKind::Torus, 4, 4, 1, "yx", 2},
      {TopologyKind::Torus, 4, 4, 1, "adaptive", 3},
      {TopologyKind::Torus, 4, 4, 1, "ugal", 4},
      {TopologyKind::Cmesh, 4, 4, 4, "xy", 1},
      {TopologyKind::Cmesh, 4, 4, 4, "adaptive", 2},
      {TopologyKind::Dragonfly, 4, 3, 1, "xy", 2},
      {TopologyKind::Dragonfly, 4, 3, 1, "ugal", 4},
      {TopologyKind::Mesh, 4, 4, 1, "adaptive", 2},
      {TopologyKind::Mesh, 4, 4, 1, "ugal", 2},
  };
  for (const EndToEndCase& c : cases) {
    SCOPED_TRACE(std::string(topo::to_string(c.kind)) + " + " + c.routing);
    sim::Scenario s;
    s.network.width = c.width;
    s.network.height = c.height;
    s.network.topology = c.kind;
    s.network.concentration = c.concentration;
    s.network.routing = noc::routing_algo_from_string(c.routing);
    s.network.num_vcs = c.vcs;
    s.lambda = 0.05;
    s.seed = 13;
    s.phases.adaptive_warmup = false;
    s.phases.warmup_node_cycles = 2000;
    s.phases.measure_node_cycles = 8000;
    const sim::RunResult r = sim::run(s);
    EXPECT_GT(r.packets_delivered, 100u);
    EXPECT_FALSE(r.saturated);
    EXPECT_EQ(r.dropped_packets, 0u);
    EXPECT_EQ(r.unreachable_pairs, 0);
    EXPECT_GT(r.avg_hops, 1.0);
    EXPECT_GE(static_cast<double>(r.max_hops), r.avg_hops);
  }
}

TEST(TopoEndToEnd, FaultedTorusReroutesWithoutLoss) {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.network.topology = TopologyKind::Torus;
  s.network.routing = noc::RoutingAlgo::XY;
  s.network.num_vcs = 2;
  s.network.faults = "links:2@0";
  s.network.fault_seed = 5;
  s.lambda = 0.05;
  s.seed = 13;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 2000;
  s.phases.measure_node_cycles = 8000;
  const sim::RunResult r = sim::run(s);
  EXPECT_GT(r.packets_delivered, 100u);
  EXPECT_EQ(r.failed_links, 2);
  EXPECT_GT(r.rerouted_pairs, 0);
  EXPECT_EQ(r.unreachable_pairs, 0);
  EXPECT_EQ(r.dropped_packets, 0u);
}

TEST(TopoEndToEnd, DeadRouterDropsAreAccounted) {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.network.topology = TopologyKind::Mesh;
  s.network.routing = noc::RoutingAlgo::XY;
  s.network.faults = "routers:1@4000";
  s.network.fault_seed = 9;
  s.lambda = 0.05;
  s.seed = 13;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 2000;
  s.phases.measure_node_cycles = 10000;
  const sim::RunResult r = sim::run(s);
  EXPECT_GT(r.packets_delivered, 100u);
  EXPECT_EQ(r.failed_routers, 1);
  // 15 live tiles each refuse traffic to the dead one, and the dead tile's
  // own sources are refused entirely: drops must be visible and accounted.
  EXPECT_GT(r.dropped_packets, 0u);
  EXPECT_EQ(r.unreachable_pairs, 2 * (16 - 1));
}


// The energy ledger charges tiles (a router plus every NI behind it), and
// islands are sums of tiles. On every topology and island layout, tile
// inventories and activities summed over an island's tiles equal the
// island's own, the islands partition the network, and a run's island
// energies add up to its total (summed over tiles in tile order, so equal
// up to the rounding of the regrouping).
TEST(TopologyEnergy, TilesSumToIslandsAndIslandsToTheRun) {
  for (const Shape shape : {Shape{TopologyKind::Mesh, 6, 6, 1}, Shape{TopologyKind::Torus, 6, 6, 1},
                            Shape{TopologyKind::Cmesh, 8, 8, 4},
                            Shape{TopologyKind::Dragonfly, 8, 8, 2}}) {
    for (const char* islands : {"global", "quadrants"}) {
      sim::Scenario s;
      s.network.topology = shape.kind;
      s.network.width = shape.width;
      s.network.height = shape.height;
      s.network.concentration = shape.concentration;
      s.islands = islands;
      s.lambda = 0.05;
      s.control_period = 1000;
      s.phases.adaptive_warmup = false;
      s.phases.warmup_node_cycles = 2000;
      s.phases.measure_node_cycles = 4000;
      const std::string what = std::string(topo::to_string(shape.kind)) + " islands=" + islands;
      const std::unique_ptr<sim::Simulator> simulator = sim::make_simulator(s);
      const sim::RunResult r = simulator->run(s.phases);
      const noc::Network& net = simulator->network();

      power::NetworkInventory network;
      std::uint64_t events = 0;
      for (int i = 0; i < net.num_islands(); ++i) {
        power::NetworkInventory inv;
        power::ActivityCounters activity;
        for (const noc::NodeId t : net.island_tiles(i)) {
          const power::TileInventory tile = net.tile_inventory(t);
          EXPECT_EQ(tile.num_routers, 1) << what;
          inv.num_routers += tile.num_routers;
          inv.num_links += tile.num_links;
          inv.num_local_links += tile.num_local_links;
          activity += net.tile_activity(t);
        }
        const power::NetworkInventory want = net.island_inventory(i);
        EXPECT_EQ(inv.num_routers, want.num_routers) << what << " island " << i;
        EXPECT_EQ(inv.num_links, want.num_links) << what << " island " << i;
        EXPECT_EQ(inv.num_local_links, want.num_local_links) << what << " island " << i;
        EXPECT_TRUE(activity == net.island_activity(i)) << what << " island " << i;
        network.num_routers += inv.num_routers;
        network.num_links += inv.num_links;
        network.num_local_links += inv.num_local_links;
        events += activity.total_events();
      }
      const Topology& topo = net.topology_model();
      EXPECT_EQ(network.num_routers, topo.num_routers()) << what;
      EXPECT_EQ(network.num_links, topo.num_directed_links()) << what;
      EXPECT_EQ(network.num_local_links, 2 * topo.num_nodes()) << what;
      EXPECT_GT(events, 0u) << what;

      ASSERT_EQ(r.islands.size(), static_cast<std::size_t>(net.num_islands())) << what;
      power::PowerBreakdown sum;
      for (const sim::IslandResult& isl : r.islands) sum.add_energy(isl.power);
      EXPECT_GT(sum.total_j(), 0.0) << what;
      EXPECT_NEAR(sum.datapath_j, r.power.datapath_j, 1e-12 * r.power.datapath_j) << what;
      EXPECT_NEAR(sum.clock_j, r.power.clock_j, 1e-12 * r.power.clock_j) << what;
      EXPECT_NEAR(sum.leakage_j, r.power.leakage_j, 1e-12 * r.power.leakage_j) << what;
    }
  }
}

}  // namespace
}  // namespace nocdvfs
