// Network-level tests: end-to-end delivery over the assembled mesh, flit
// conservation, hop accounting, drain behaviour and inventory bookkeeping.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "noc/network.hpp"

namespace nocdvfs::noc {
namespace {

NetworkConfig small_config() {
  NetworkConfig cfg;
  cfg.width = 3;
  cfg.height = 3;
  cfg.num_vcs = 4;
  cfg.vc_buffer_depth = 4;
  return cfg;
}

void run_cycles(Network& net, int cycles) {
  for (int i = 0; i < cycles; ++i) {
    net.step_island(0, static_cast<common::Picoseconds>((net.cycle() + 1) * 1000));
  }
}

TEST(Network, AllPairsSinglePacketDelivery) {
  Network net(small_config());
  const int n = net.num_nodes();
  std::uint64_t expected = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      net.ni(s).enqueue_packet(d, 3, 0, 0);
      ++expected;
    }
  }
  run_cycles(net, 600);
  std::map<std::pair<NodeId, NodeId>, int> seen;
  for (const auto& rec : net.delivered()) {
    EXPECT_EQ(rec.size, 3);
    ++seen[{rec.src, rec.dst}];
  }
  EXPECT_EQ(net.delivered().size(), expected);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      EXPECT_EQ((seen[{s, d}]), 1) << "pair " << s << "->" << d;
    }
  }
}

TEST(Network, HopCountEqualsManhattanPlusOne) {
  // Every router traversal increments hops; a packet crosses
  // manhattan(src,dst) links plus the ejection stage at the destination
  // router, i.e. hops == distance + 1.
  Network net(small_config());
  const auto& topo = net.topology_model();
  for (NodeId s = 0; s < net.num_nodes(); ++s) {
    for (NodeId d = 0; d < net.num_nodes(); ++d) {
      net.ni(s).enqueue_packet(d, 2, 0, 0);
    }
  }
  run_cycles(net, 600);
  for (const auto& rec : net.delivered()) {
    EXPECT_EQ(rec.hops, topo.hop_distance(rec.src, rec.dst) + 1)
        << rec.src << "->" << rec.dst;
  }
}

TEST(Network, FlitConservationUnderRandomTraffic) {
  Network net(small_config());
  common::Rng rng(99);
  for (int cyc = 0; cyc < 3000; ++cyc) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (rng.bernoulli(0.02)) {
        const auto d = static_cast<NodeId>(rng.uniform_below(9));
        net.ni(s).enqueue_packet(d, 5, net.cycle() * 1000, net.cycle());
      }
    }
    net.step_island(0, (net.cycle() + 1) * 1000);
    // Conservation: every injected flit is either ejected or in flight.
    ASSERT_EQ(net.total_flits_injected(),
              net.total_flits_ejected() + net.flits_in_network());
    // Backlog identity: generated = injected + backlog.
    ASSERT_EQ(net.total_flits_generated(),
              net.total_flits_injected() + net.total_source_backlog_flits());
  }
  EXPECT_GT(net.total_flits_generated(), 0u);
}

TEST(Network, DrainsCompletelyAfterTrafficStops) {
  Network net(small_config());
  common::Rng rng(7);
  for (int cyc = 0; cyc < 500; ++cyc) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (rng.bernoulli(0.05)) {
        net.ni(s).enqueue_packet(static_cast<NodeId>(rng.uniform_below(9)), 4,
                                 net.cycle() * 1000, net.cycle());
      }
    }
    net.step_island(0, (net.cycle() + 1) * 1000);
  }
  run_cycles(net, 2000);  // no new traffic: must drain
  EXPECT_EQ(net.flits_in_network(), 0u);
  EXPECT_EQ(net.total_source_backlog_flits(), 0u);
  EXPECT_EQ(net.total_flits_ejected(), net.total_flits_injected());
  EXPECT_EQ(net.total_packets_ejected(), net.total_packets_generated());
}

TEST(Network, PacketRecordTimestampsAreOrdered) {
  Network net(small_config());
  net.ni(0).enqueue_packet(8, 4, 1234, 0);
  run_cycles(net, 200);
  ASSERT_EQ(net.delivered().size(), 1u);
  const auto& rec = net.delivered().front();
  EXPECT_EQ(rec.create_time_ps, 1234u);
  EXPECT_GT(rec.eject_time_ps, rec.create_time_ps);
  EXPECT_GT(rec.eject_noc_cycle, rec.create_noc_cycle);
  EXPECT_GT(rec.delay_ns(), 0.0);
  EXPECT_EQ(rec.latency_cycles(), rec.eject_noc_cycle - rec.create_noc_cycle);
}

TEST(Network, ZeroLoadLatencyScalesWithDistance) {
  Network net(small_config());
  net.ni(0).enqueue_packet(1, 1, 0, 0);  // 1 hop
  run_cycles(net, 200);
  ASSERT_EQ(net.delivered().size(), 1u);
  const auto near_latency = net.delivered().front().latency_cycles();
  net.delivered().clear();

  net.ni(0).enqueue_packet(8, 1, net.cycle() * 1000, net.cycle());  // 4 hops
  run_cycles(net, 200);
  ASSERT_EQ(net.delivered().size(), 1u);
  const auto far_latency = net.delivered().front().latency_cycles();
  EXPECT_GT(far_latency, near_latency);
  // Pipeline depth sanity: a 1-hop single-flit packet should take well
  // under 20 cycles at zero load.
  EXPECT_GE(near_latency, 4u);
  EXPECT_LE(near_latency, 20u);
}

TEST(Network, InventoryMatchesTopology) {
  // Four uneven islands on a 5x5 mesh: their inventories partition the
  // network's 25 routers, 80 directed links and 50 local channels.
  NetworkConfig cfg;
  cfg.width = 5;
  cfg.height = 5;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) cfg.island_of.push_back((x >= 3 ? 1 : 0) + (y >= 3 ? 2 : 0));
  }
  Network net(cfg);
  ASSERT_EQ(net.num_islands(), 4);
  power::NetworkInventory sum;
  for (int i = 0; i < net.num_islands(); ++i) {
    const power::NetworkInventory inv = net.island_inventory(i);
    sum.num_routers += inv.num_routers;
    sum.num_links += inv.num_links;
    sum.num_local_links += inv.num_local_links;
  }
  EXPECT_EQ(sum.num_routers, 25);
  EXPECT_EQ(sum.num_links, 80);
  EXPECT_EQ(sum.num_local_links, 50);
}

TEST(Network, ActivityAggregationGrowsWithTraffic) {
  Network net(small_config());
  const auto before = net.total_activity();
  EXPECT_EQ(before.total_events(), 0u);
  net.ni(0).enqueue_packet(8, 6, 0, 0);
  run_cycles(net, 200);
  const auto after = net.total_activity();
  EXPECT_GT(after.buffer_writes, 0u);
  EXPECT_GT(after.crossbar_traversals, 0u);
  EXPECT_GT(after.link_flit_hops, 0u);
  EXPECT_GT(after.local_flit_hops, 0u);
  // 6 flits × (distance 4 + ejection) router traversals.
  EXPECT_EQ(after.crossbar_traversals, 6u * 5u);
}

TEST(Network, RejectsBadConfig) {
  NetworkConfig cfg = small_config();
  cfg.link_latency = 0;
  EXPECT_THROW(Network{cfg}, std::invalid_argument);
}

TEST(Network, WiderLinkLatencyStillDelivers) {
  NetworkConfig cfg = small_config();
  cfg.link_latency = 3;
  Network net(cfg);
  net.ni(0).enqueue_packet(8, 2, 0, 0);
  run_cycles(net, 300);
  ASSERT_EQ(net.delivered().size(), 1u);
}

}  // namespace
}  // namespace nocdvfs::noc
