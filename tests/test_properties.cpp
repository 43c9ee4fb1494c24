// Property-based suites (TEST_P): invariants that must hold across the
// whole router/NoC configuration space the paper sweeps — delivery,
// conservation, in-order per-VC arrival — plus delay-measurement sanity
// under random traffic mixes. These complement the example-based unit
// tests with breadth.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs {
namespace {

using noc::Network;
using noc::NetworkConfig;
using noc::NodeId;

/// (mesh k, VCs, buffer depth, packet size, link latency)
using NetParams = std::tuple<int, int, int, int, int>;

class NetworkPropertySweep : public ::testing::TestWithParam<NetParams> {
 protected:
  NetworkConfig make_config() const {
    const auto [k, vcs, depth, pkt, link] = GetParam();
    NetworkConfig cfg;
    cfg.width = k;
    cfg.height = k;
    cfg.num_vcs = vcs;
    cfg.vc_buffer_depth = depth;
    cfg.link_latency = link;
    return cfg;
  }
  int packet_size() const { return std::get<3>(GetParam()); }
};

TEST_P(NetworkPropertySweep, RandomTrafficConservesAndDrains) {
  Network net(make_config());
  common::Rng rng(1234);
  const int n = net.num_nodes();
  // Load phase: moderate random traffic.
  for (int cyc = 0; cyc < 1500; ++cyc) {
    for (NodeId s = 0; s < n; ++s) {
      if (rng.bernoulli(0.25 / packet_size())) {
        net.ni(s).enqueue_packet(static_cast<NodeId>(rng.uniform_below(
                                     static_cast<std::uint64_t>(n))),
                                 packet_size(), net.cycle() * 1000, net.cycle());
      }
    }
    net.step_island(0, (net.cycle() + 1) * 1000);
    // Conservation must hold every cycle.
    ASSERT_EQ(net.total_flits_injected(), net.total_flits_ejected() + net.flits_in_network());
  }
  // Drain phase.
  for (int cyc = 0; cyc < 30000 && net.flits_in_network() + net.total_source_backlog_flits() > 0;
       ++cyc) {
    net.step_island(0, (net.cycle() + 1) * 1000);
  }
  EXPECT_EQ(net.flits_in_network(), 0u);
  EXPECT_EQ(net.total_flits_ejected(), net.total_flits_generated());
  EXPECT_EQ(net.total_packets_ejected(), net.total_packets_generated());
}

TEST_P(NetworkPropertySweep, EveryPacketArrivesIntactAtItsDestination) {
  Network net(make_config());
  common::Rng rng(99);
  const int n = net.num_nodes();
  std::map<std::uint64_t, NodeId> expected_dst;
  for (int burst = 0; burst < 40; ++burst) {
    const auto s = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
    const auto d = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
    net.ni(s).enqueue_packet(d, packet_size(), net.cycle() * 1000, net.cycle());
    for (int cyc = 0; cyc < 12; ++cyc) net.step_island(0, (net.cycle() + 1) * 1000);
  }
  for (int cyc = 0; cyc < 20000 && net.total_packets_ejected() < 40; ++cyc) {
    net.step_island(0, (net.cycle() + 1) * 1000);
  }
  ASSERT_EQ(net.delivered().size(), 40u);
  for (const auto& rec : net.delivered()) {
    EXPECT_EQ(rec.size, packet_size());
    EXPECT_EQ(rec.hops, net.topology_model().hop_distance(rec.src, rec.dst) + 1);
    EXPECT_GE(rec.eject_time_ps, rec.create_time_ps);
  }
}

std::string net_param_name(const ::testing::TestParamInfo<NetParams>& info) {
  const auto k = std::get<0>(info.param);
  const auto vcs = std::get<1>(info.param);
  const auto depth = std::get<2>(info.param);
  const auto pkt = std::get<3>(info.param);
  const auto link = std::get<4>(info.param);
  // Built with += rather than chained `const char* + std::string&&` to dodge
  // GCC 12's -Wrestrict false positive on moved-string concatenation.
  std::string name = "k";
  name += std::to_string(k);
  name += "_vc";
  name += std::to_string(vcs);
  name += "_d";
  name += std::to_string(depth);
  name += "_p";
  name += std::to_string(pkt);
  name += "_l";
  name += std::to_string(link);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, NetworkPropertySweep,
    ::testing::Values(
        // the paper's sensitivity grid, shrunk to 3×3/4×4 meshes for speed
        NetParams{3, 2, 4, 10, 1}, NetParams{3, 4, 4, 20, 1}, NetParams{3, 8, 4, 20, 1},
        NetParams{3, 4, 8, 15, 1}, NetParams{3, 4, 16, 20, 1}, NetParams{4, 8, 4, 20, 1},
        NetParams{4, 2, 2, 5, 1}, NetParams{3, 1, 4, 8, 1},   // single VC: wormhole degenerate
        NetParams{3, 4, 1, 4, 1},                             // single-flit buffers
        NetParams{3, 4, 4, 1, 1},                             // single-flit packets
        NetParams{3, 4, 4, 12, 3},                            // longer links
        NetParams{4, 6, 3, 7, 2}),
    net_param_name);

/// End-to-end property: the delay measured by the metrics layer can never
/// be below the pure serialization bound (packet_size cycles at F_max).
class DelayBoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(DelayBoundSweep, MeasuredDelayRespectsSerializationBound) {
  const int pkt = GetParam();
  sim::Scenario cfg;
  cfg.network.width = 3;
  cfg.network.height = 3;
  cfg.packet_size = pkt;
  cfg.lambda = 0.05;
  cfg.control_period = 2000;
  cfg.phases.warmup_node_cycles = 6000;
  cfg.phases.measure_node_cycles = 10000;
  cfg.phases.adaptive_warmup = false;
  const auto r = sim::run(cfg);
  EXPECT_GE(r.min_delay_ns, static_cast<double>(pkt));  // 1 ns per flit at 1 GHz
  EXPECT_GT(r.packets_delivered, 10u);
}

INSTANTIATE_TEST_SUITE_P(PacketSizes, DelayBoundSweep, ::testing::Values(1, 2, 5, 10, 20));

}  // namespace
}  // namespace nocdvfs
