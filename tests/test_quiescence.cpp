// Quiescence properties of the skip-idle stepping (NetworkConfig::skip_idle):
//
//  * a zero-injection run is *exactly* free — zero packets, zero datapath
//    activity counters, energy precisely clock + leakage, and the skip
//    counter accounts for essentially every router/NI step;
//  * a burst drains to a quiescent network whose subsequent steps are
//    observably free (the skip counter advances by the full member count
//    per cycle) while delivering records bit-identical to the always-step
//    discipline;
//  * the activity list is exact: parked means empty buffers, idle NI and
//    nothing in flight, so activity can only resume through a push.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "noc/network.hpp"
#include "sim/scenario.hpp"

namespace nocdvfs {
namespace {

using noc::Network;
using noc::NetworkConfig;
using noc::NodeId;

common::Picoseconds ps_of(std::uint64_t cycle) {
  return static_cast<common::Picoseconds>(cycle) * 1000;
}

TEST(Quiescence, ZeroInjectionRunIsExactlyFree) {
  sim::Scenario s;
  s.lambda = 0.0;
  s.network.width = 8;
  s.network.height = 8;
  s.seed = 7;
  s.phases.warmup_node_cycles = 1000;
  s.phases.measure_node_cycles = 10000;
  s.phases.adaptive_warmup = false;

  const auto simulator = sim::make_simulator(s);
  const sim::RunResult r = simulator->run(s.phases);

  EXPECT_EQ(r.packets_delivered, 0u);
  EXPECT_EQ(simulator->network().total_flits_generated(), 0u);

  // No flit ever moved, so every datapath counter is zero...
  const power::ActivityCounters a = simulator->network().total_activity();
  EXPECT_EQ(a.buffer_writes, 0u);
  EXPECT_EQ(a.buffer_reads, 0u);
  EXPECT_EQ(a.crossbar_traversals, 0u);
  EXPECT_EQ(a.vc_alloc_grants, 0u);
  EXPECT_EQ(a.sw_alloc_grants, 0u);
  EXPECT_EQ(a.alloc_requests, 0u);
  EXPECT_EQ(a.link_flit_hops, 0u);
  EXPECT_EQ(a.local_flit_hops, 0u);

  // ... the datapath energy is exactly zero (not merely small), leaving
  // energy == clock + leakage as an identity on the breakdown ...
  EXPECT_EQ(r.power.datapath_j, 0.0);
  EXPECT_EQ(r.power.total_j(), r.power.clock_j + r.power.leakage_j);

  // ... and the skip counter shows the run was near-universally elided:
  // all 64 nodes park after the first cycle and never wake.
  const std::uint64_t members = 64;
  EXPECT_GE(simulator->network().idle_steps_skipped(),
            members * (r.measure_noc_cycles - 2));
  EXPECT_EQ(simulator->network().island_active_nodes(0), 0);
}

TEST(Quiescence, IdleNetworkParksEveryNodeAfterOneCycle) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  Network net(cfg);
  ASSERT_TRUE(net.skip_idle());

  // Cycle 1 steps all 16 freshly constructed nodes, finds them all
  // quiescent and parks them; every later cycle skips all 16.
  const std::uint64_t cycles = 100;
  for (std::uint64_t c = 1; c <= cycles; ++c) net.step_island(0, ps_of(c));
  EXPECT_EQ(net.island_active_nodes(0), 0);
  EXPECT_EQ(net.island_idle_steps_skipped(0), 16 * (cycles - 1));

  const power::ActivityCounters a = net.total_activity();
  EXPECT_EQ(a.buffer_writes + a.buffer_reads + a.crossbar_traversals +
                a.alloc_requests + a.link_flit_hops + a.local_flit_hops,
            0u);
}

/// Drive identical burst-then-silence traffic through a skip-idle network
/// and an always-step one, in lockstep.
TEST(Quiescence, BurstThenSilenceDrainsToFreeStepsBitIdentically) {
  NetworkConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.skip_idle = true;
  NetworkConfig cfg_off = cfg;
  cfg_off.skip_idle = false;
  Network on(cfg);
  Network off(cfg_off);

  const int n = cfg.num_nodes();
  const std::uint64_t total_cycles = 3000;
  for (std::uint64_t c = 1; c <= total_cycles; ++c) {
    if (c == 5) {
      // The burst: every fourth node fires an 11-flit packet at its mirror.
      for (NodeId src = 0; src < n; src += 4) {
        const NodeId dst = static_cast<NodeId>(n - 1 - src);
        on.ni(src).enqueue_packet(dst, 11, ps_of(c), c);
        off.ni(src).enqueue_packet(dst, 11, ps_of(c), c);
      }
    }
    on.step_island(0, ps_of(c));
    off.step_island(0, ps_of(c));
  }

  // Fully drained, and the two disciplines agree packet by packet.
  EXPECT_EQ(on.total_flits_ejected(), on.total_flits_generated());
  EXPECT_EQ(on.flits_in_network(), 0u);
  ASSERT_EQ(on.delivered().size(), off.delivered().size());
  for (std::size_t i = 0; i < on.delivered().size(); ++i) {
    const noc::PacketRecord& pa = on.delivered()[i];
    const noc::PacketRecord& pb = off.delivered()[i];
    EXPECT_EQ(pa.packet_id, pb.packet_id);
    EXPECT_EQ(pa.src, pb.src);
    EXPECT_EQ(pa.dst, pb.dst);
    EXPECT_EQ(pa.hops, pb.hops);
    EXPECT_EQ(pa.eject_time_ps, pb.eject_time_ps);
    EXPECT_EQ(pa.eject_noc_cycle, pb.eject_noc_cycle);
  }

  // The drained network is parked and its steps are observably free —
  // the skip counter advances by the full member count per cycle — while
  // the always-step network never skipped anything.
  EXPECT_EQ(on.island_active_nodes(0), 0);
  EXPECT_EQ(off.island_idle_steps_skipped(0), 0u);
  const std::uint64_t before = on.island_idle_steps_skipped(0);
  const std::uint64_t extra = 250;
  for (std::uint64_t c = total_cycles + 1; c <= total_cycles + extra; ++c) {
    on.step_island(0, ps_of(c));
  }
  EXPECT_EQ(on.island_idle_steps_skipped(0) - before,
            extra * static_cast<std::uint64_t>(n));
  EXPECT_EQ(on.delivered().size(), off.delivered().size());  // nothing new
}

/// Every tile kept awake after a cycle's phases is counted exactly once,
/// under the first reason that holds (buffered flits, pending router
/// input, busy NI, pending NI input); a parked idle mesh counts nothing.
TEST(Quiescence, AwakeReasonsSumToKeptTileSteps) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  Network idle(cfg);
  for (std::uint64_t c = 1; c <= 50; ++c) idle.step_island(0, ps_of(c));
  EXPECT_EQ(idle.island_active_nodes(0), 0);
  const noc::AwakeTileSteps none = idle.awake_tile_steps();
  EXPECT_EQ(none.buffered_flits, 0u);
  EXPECT_EQ(none.router_input, 0u);
  EXPECT_EQ(none.ni_busy, 0u);
  EXPECT_EQ(none.ni_input, 0u);

  cfg.width = 8;
  cfg.height = 8;
  Network net(cfg);
  const int n = cfg.num_nodes();
  std::uint64_t kept = 0;  // tiles left on the activity list after each step
  for (std::uint64_t c = 1; c <= 2000; ++c) {
    if (c == 5 || c == 600) {
      for (NodeId src = 0; src < n; src += 3) {
        net.ni(src).enqueue_packet(static_cast<NodeId>(n - 1 - src), 11, ps_of(c), c);
      }
    }
    net.step_island(0, ps_of(c));
    kept += static_cast<std::uint64_t>(net.island_active_nodes(0));
  }
  ASSERT_EQ(net.total_flits_ejected(), net.total_flits_generated());
  const noc::AwakeTileSteps why = net.awake_tile_steps();
  EXPECT_EQ(why.total(), kept);
  EXPECT_GT(why.buffered_flits, 0u);
  EXPECT_GT(why.router_input, 0u);

  // The always-step oracle parks nothing, so it counts nothing either.
  cfg.skip_idle = false;
  Network always(cfg);
  always.ni(0).enqueue_packet(5, 4, ps_of(1), 1);
  for (std::uint64_t c = 1; c <= 100; ++c) always.step_island(0, ps_of(c));
  EXPECT_EQ(always.awake_tile_steps().total(), 0u);
}

/// Parking must be exact across clock-domain boundaries too: a quadrant
/// partition with a burst confined to one island leaves the other islands'
/// skip counters running at full speed.
TEST(Quiescence, IslandsParkIndependently) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  // Quadrants, row-major 4×4.
  cfg.island_of = {0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3};
  Network net(cfg);

  // A packet strictly inside island 0: node 0 -> node 5.
  net.ni(0).enqueue_packet(5, 4, ps_of(1), 1);
  const std::uint64_t cycles = 400;
  for (std::uint64_t c = 1; c <= cycles; ++c) {
    for (int isl = 0; isl < net.num_islands(); ++isl) net.tick_island(isl);
    for (int isl = 0; isl < net.num_islands(); ++isl) net.run_island_phases(isl, ps_of(c));
  }
  EXPECT_EQ(net.total_flits_ejected(), 4u);
  // Islands 1..3 saw no traffic at all: they park after their first cycle.
  for (int isl = 1; isl < 4; ++isl) {
    EXPECT_EQ(net.island_active_nodes(isl), 0) << "island " << isl;
    EXPECT_EQ(net.island_idle_steps_skipped(isl), 4 * (cycles - 1)) << "island " << isl;
  }
  EXPECT_EQ(net.island_active_nodes(0), 0);  // drained eventually
}

}  // namespace
}  // namespace nocdvfs
