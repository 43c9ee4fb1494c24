// Randomized property test of the router's credit loop: drive a single
// router with protocol-respecting but randomly timed traffic and a sink
// that returns credits after random delays, asserting the conservation
// invariant every cycle:
//
//   for every output VC:  router credits + credits in flight back to the
//   router + flits the sink has not yet credited == buffer depth
//
// and, at the end, complete in-order delivery of every packet. Every
// suite here also checks each router's flit pool every cycle: each slot is
// free or holds a buffered flit, and the pool never outgrows the
// router's buffers.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "mesh_router.hpp"
#include "noc/channel.hpp"
#include "noc/network.hpp"
#include "noc/router.hpp"

namespace nocdvfs::noc {
namespace {

struct FuzzParams {
  int num_vcs;
  int depth;
  std::uint64_t seed;
};

/// Flit pool slot conservation of one router.
::testing::AssertionResult pool_conserves(const Router& r) {
  const int cap = r.radix() * r.config().num_vcs * r.config().vc_buffer_depth;
  if (r.pool_slots() != r.pool_free_slots() + r.buffered_now()) {
    return ::testing::AssertionFailure()
           << "pool slots " << r.pool_slots() << " != free " << r.pool_free_slots()
           << " + buffered " << r.buffered_now();
  }
  if (r.pool_slots() > cap) {
    return ::testing::AssertionFailure()
           << "pool slots " << r.pool_slots() << " exceed radix x VCs x depth " << cap;
  }
  return ::testing::AssertionSuccess();
}

/// pool_conserves for every router of `net`.
::testing::AssertionResult pools_conserve(const Network& net) {
  for (int r = 0; r < net.num_routers(); ++r) {
    if (auto ok = pool_conserves(net.router_at(r)); !ok) return ok << " (router " << r << ')';
  }
  return ::testing::AssertionSuccess();
}

class RouterFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(RouterFuzz, CreditLoopConservesAndDeliversInOrder) {
  const auto [num_vcs, depth, seed] = GetParam();
  RouterConfig cfg;
  cfg.num_vcs = num_vcs;
  cfg.vc_buffer_depth = depth;
  MeshRouter mesh(2, 1, 0, cfg);
  Router& router = mesh.router();

  std::uint64_t clock = 0;  // the reader clock of every channel below
  FlitChannel in_local = FlitChannel::delay_line(1, &clock);
  FlitChannel out_east = FlitChannel::delay_line(1, &clock);
  FlitChannel in_east = FlitChannel::delay_line(1, &clock);
  FlitChannel out_local = FlitChannel::delay_line(1, &clock);
  CreditChannel credit_src = CreditChannel::delay_line(1, &clock);
  CreditChannel credit_sink = CreditChannel::delay_line(1, &clock);
  CreditChannel credit_src_e = CreditChannel::delay_line(1, &clock);
  CreditChannel credit_sink_l = CreditChannel::delay_line(1, &clock);
  router.connect_input(PortDir::Local, &in_local, &credit_src);
  router.connect_output(PortDir::East, &out_east, &credit_sink);
  router.connect_input(PortDir::East, &in_east, &credit_src_e);
  router.connect_output(PortDir::Local, &out_local, &credit_sink_l);

  common::Rng rng(seed);
  // Upstream state: our credit view of the router's Local input buffer.
  std::vector<int> up_credits(static_cast<std::size_t>(num_vcs), depth);
  // Sink state: flits received per East VC not yet credited (with a random
  // return delay queue).
  std::vector<std::deque<int>> pending_credit_delay(static_cast<std::size_t>(num_vcs));

  struct SendState {
    std::uint64_t packet = 0;
    int flit = 0;
    int size = 0;
    int vc = -1;
    bool active = false;
  } send;
  std::uint64_t next_packet_id = 1;
  constexpr std::uint64_t kPackets = 60;

  std::map<std::uint64_t, int> received_flits;  // packet id -> next expected index
  std::uint64_t packets_done = 0;

  for (int cyc = 0; cyc < 20000 && packets_done < kPackets; ++cyc) {
    ++clock;

    // Upstream: receive returned credits.
    if (auto c = credit_src.pop()) {
      ++up_credits[c->vc];
      ASSERT_LE(up_credits[c->vc], depth);
    }
    router.receive_phase();
    router.compute_phase();
    ASSERT_TRUE(pool_conserves(router)) << "cycle " << cyc;

    // Sink: receive flits, schedule credit return 1..4 cycles later.
    if (auto f = out_east.pop()) {
      auto& exp = received_flits[f->packet_id];
      ASSERT_EQ(exp, f->flit_index) << "out-of-order flit within packet";
      ++exp;
      if (f->tail) ++packets_done;
      pending_credit_delay[f->vc].push_back(1 + static_cast<int>(rng.uniform_below(4)));
    }
    // Age the pending credits; return those that mature (≤1 per cycle per
    // the channel's capacity — extras wait one more cycle).
    bool pushed_credit = false;
    for (int v = 0; v < num_vcs; ++v) {
      auto& q = pending_credit_delay[static_cast<std::size_t>(v)];
      for (auto& d : q) d = d > 0 ? d - 1 : 0;
      if (!pushed_credit && !q.empty() && q.front() == 0) {
        q.pop_front();
        credit_sink.push(Credit{static_cast<std::uint8_t>(v)});
        pushed_credit = true;
      }
    }

    // Upstream: maybe start / continue a packet (random stalls included).
    if (!send.active && next_packet_id <= kPackets && rng.bernoulli(0.4)) {
      const int vc = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(num_vcs)));
      if (up_credits[static_cast<std::size_t>(vc)] > 0) {
        send.active = true;
        send.vc = vc;
        send.packet = next_packet_id++;
        send.flit = 0;
        send.size = 1 + static_cast<int>(rng.uniform_below(9));
      }
    }
    if (send.active && up_credits[static_cast<std::size_t>(send.vc)] > 0 &&
        rng.bernoulli(0.8)) {
      Flit f;
      f.packet_id = send.packet;
      f.src = 0;
      f.dst = 1;  // always routed East
      f.flit_index = static_cast<std::uint16_t>(send.flit);
      f.packet_size = static_cast<std::uint16_t>(send.size);
      f.head = (send.flit == 0);
      f.tail = (send.flit + 1 == send.size);
      f.vc = static_cast<std::uint8_t>(send.vc);
      in_local.push(f);
      --up_credits[static_cast<std::size_t>(send.vc)];
      if (++send.flit == send.size) send.active = false;
    }

    // The conservation invariant, every cycle, every East output VC:
    // router-held credits + credits in the return channel + sink flits not
    // yet credited + flits in the forward link == depth is NOT directly
    // observable (in-flight flits occupy no downstream slot yet), but the
    // router's credit counter must never exceed depth or go negative —
    // and the sum of credits it *could* reclaim is bounded by depth.
    for (int v = 0; v < num_vcs; ++v) {
      const int held = router.output_credits(PortDir::East, v);
      ASSERT_GE(held, 0);
      ASSERT_LE(held, depth);
      const auto owed =
          static_cast<int>(pending_credit_delay[static_cast<std::size_t>(v)].size()) +
          static_cast<int>(credit_sink.in_flight());
      ASSERT_LE(held + owed, depth + num_vcs)  // channel holds ≤1, shared bound
          << "credit overcount on VC " << v;
    }
  }
  EXPECT_EQ(packets_done, kPackets) << "fuzz run failed to deliver all packets";
}

// --- skip-idle activity-list fuzz -----------------------------------------
//
// Bursty on/off traffic over a whole mesh, in lockstep against the
// always-step discipline. The on/off envelope repeatedly drives nodes
// into quiescence and drags them back out — including routers that parked
// while credit-starved and can only re-activate through the credit push of
// a downstream traversal. Instances vary the link pipeline depth and add a
// quadrant partition whose islands step at two rates (fast islands every
// second master tick, slow ones every third), so clock-domain crossings
// carry flits and credits between tiles that park and wake on different
// clocks, and coincident edges run tick-all-then-phase-all. Properties
// checked:
//
//   * conservation every master tick: generated == ejected + in-network
//     (links and CDC fifos included) + backlog;
//   * no stuck router: everything injected is eventually delivered;
//   * bit-identity: the skip-idle net's delivery stream matches always-step.

struct ActivityFuzzParams {
  int width;
  int height;
  int packet_size;  ///< > vc_buffer_depth forces multi-router credit stalls
  std::uint64_t seed;
  int link_latency = 1;
  bool quadrants = false;  ///< four islands at two clock rates (else one island)
  int cdc_sync_cycles = 2;
};

class ActivityFuzz : public ::testing::TestWithParam<ActivityFuzzParams> {};

TEST_P(ActivityFuzz, BurstyOnOffConservesAndMatchesAlwaysStep) {
  const ActivityFuzzParams& param = GetParam();
  const int width = param.width;
  const int height = param.height;
  const int packet_size = param.packet_size;
  NetworkConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.num_vcs = 2;
  cfg.vc_buffer_depth = 2;  // shallow: credit backpressure everywhere
  cfg.link_latency = param.link_latency;
  cfg.cdc_sync_cycles = param.cdc_sync_cycles;
  if (param.quadrants) {
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        cfg.island_of.push_back((y >= height / 2 ? 2 : 0) + (x >= width / 2 ? 1 : 0));
      }
    }
  }
  cfg.skip_idle = true;
  NetworkConfig cfg_off = cfg;
  cfg_off.skip_idle = false;
  Network on(cfg);
  Network off(cfg_off);

  // Island i fires on master ticks divisible by its period: one island
  // steps every tick; with quadrants, islands 0 and 3 every second tick
  // and islands 1 and 2 every third (coincident every sixth).
  const int islands = on.num_islands();
  std::vector<std::uint64_t> period(static_cast<std::size_t>(islands), 1);
  if (param.quadrants) period = {2, 3, 3, 2};
  std::vector<int> fired;

  common::Rng rng(param.seed);
  const int n = cfg.num_nodes();
  bool burst = false;
  int phase_left = 0;
  std::uint64_t generated_packets = 0;

  const std::uint64_t active_cycles = 4000;
  const std::uint64_t drain_cycles = 4000;
  for (std::uint64_t c = 1; c <= active_cycles + drain_cycles; ++c) {
    if (c <= active_cycles) {
      if (phase_left == 0) {
        // Alternate bursts (5..40 cycles) and silences (20..120 cycles) —
        // silences long enough for the whole mesh to park mid-run.
        burst = !burst;
        phase_left = burst ? 5 + static_cast<int>(rng.uniform_below(36))
                           : 20 + static_cast<int>(rng.uniform_below(101));
      }
      --phase_left;
      if (burst && rng.bernoulli(0.7)) {
        const auto src = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        const auto dst = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        const auto now = static_cast<common::Picoseconds>(c) * 1000;
        on.ni(src).enqueue_packet(dst, packet_size, now, c);
        off.ni(src).enqueue_packet(dst, packet_size, now, c);
        ++generated_packets;
      }
    }
    fired.clear();
    for (int i = 0; i < islands; ++i) {
      if (c % period[static_cast<std::size_t>(i)] == 0) fired.push_back(i);
    }
    const auto now = static_cast<common::Picoseconds>(c) * 1000;
    for (Network* net : {&on, &off}) {
      for (const int d : fired) net->tick_island(d);
      for (const int d : fired) net->run_island_phases(d, now);
    }

    // Conservation on the skip-idle network, every cycle: no flit may be
    // lost in a parked corner of the mesh.
    ASSERT_EQ(on.total_flits_generated(),
              on.total_flits_ejected() + on.flits_in_network() +
                  on.total_source_backlog_flits())
        << "conservation violated at cycle " << c;
    ASSERT_TRUE(pools_conserve(on)) << "skip-idle, cycle " << c;
    ASSERT_TRUE(pools_conserve(off)) << "always-step, cycle " << c;
  }

  // No stuck router: the silence tail drains everything.
  EXPECT_EQ(on.total_packets_ejected(), generated_packets);
  EXPECT_EQ(on.flits_in_network(), 0u);
  for (int i = 0; i < islands; ++i) EXPECT_EQ(on.island_active_nodes(i), 0) << "island " << i;

  // Bit-identity against the always-step discipline, packet by packet.
  ASSERT_EQ(on.delivered().size(), off.delivered().size());
  for (std::size_t i = 0; i < on.delivered().size(); ++i) {
    const PacketRecord& pa = on.delivered()[i];
    const PacketRecord& pb = off.delivered()[i];
    ASSERT_EQ(pa.packet_id, pb.packet_id) << "record " << i;
    ASSERT_EQ(pa.eject_noc_cycle, pb.eject_noc_cycle) << "record " << i;
    ASSERT_EQ(pa.hops, pb.hops) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, ActivityFuzz,
    ::testing::Values(ActivityFuzzParams{4, 4, 5, 21}, ActivityFuzzParams{6, 6, 9, 22},
                      ActivityFuzzParams{5, 3, 13, 23}, ActivityFuzzParams{6, 6, 9, 24, 3},
                      ActivityFuzzParams{4, 4, 5, 25, 1, true, 0},
                      ActivityFuzzParams{4, 4, 5, 26, 1, true, 2},
                      ActivityFuzzParams{4, 4, 9, 27, 3, true, 2}),
    [](const ::testing::TestParamInfo<ActivityFuzzParams>& info) {
      const ActivityFuzzParams& p = info.param;
      std::string name = std::to_string(p.width) + "x" + std::to_string(p.height) + "_p" +
                         std::to_string(p.packet_size) + "_s" + std::to_string(p.seed);
      if (p.link_latency != 1) name += "_lat" + std::to_string(p.link_latency);
      if (p.quadrants) name += "_quad_cdc" + std::to_string(p.cdc_sync_cycles);
      return name;
    });

// --- topology / fault-reroute fuzz ----------------------------------------
//
// Bursty uniform-random traffic over every topology kind and routing
// algorithm, with link/router faults firing mid-burst. Properties checked
// every cycle:
//
//   * fault-aware conservation: generated == ejected + in-network +
//     source backlog + dropped (NI-refused plus router-drained) — a fault
//     may destroy flits but never lose them from the ledger;
//   * progress watchdog: while anything is in flight, the ejected+dropped
//     ledger must advance within a bounded window (a routing cycle or a
//     credit deadlock would stall it forever);
//   * full drain: after the burst, everything generated is either
//     delivered or accounted as dropped, and the network empties.

struct TopologyFuzzParams {
  topo::TopologyKind kind;
  int width;
  int height;
  int concentration;
  RoutingAlgo routing;
  int num_vcs;
  const char* faults;  ///< "" = fault-free
  std::uint64_t seed;
};

class TopologyFuzz : public ::testing::TestWithParam<TopologyFuzzParams> {};

TEST_P(TopologyFuzz, FaultAwareConservationAndProgress) {
  const TopologyFuzzParams p = GetParam();
  NetworkConfig cfg;
  cfg.width = p.width;
  cfg.height = p.height;
  cfg.topology = p.kind;
  cfg.concentration = p.concentration;
  cfg.routing = p.routing;
  cfg.num_vcs = p.num_vcs;
  cfg.vc_buffer_depth = 2;  // shallow: credit backpressure everywhere
  cfg.faults = p.faults;
  cfg.fault_seed = p.seed;
  Network net(cfg);

  common::Rng rng(p.seed);
  const int n = cfg.num_nodes();
  bool burst = false;
  int phase_left = 0;

  const std::uint64_t active_cycles = 3000;
  const std::uint64_t max_cycles = 30000;
  constexpr std::uint64_t kWatchdogCycles = 2000;
  std::uint64_t last_progress_cycle = 0;
  std::uint64_t last_ledger = 0;

  std::uint64_t c = 1;
  for (; c <= max_cycles; ++c) {
    if (c <= active_cycles) {
      if (phase_left == 0) {
        burst = !burst;
        phase_left = burst ? 5 + static_cast<int>(rng.uniform_below(36))
                           : 20 + static_cast<int>(rng.uniform_below(101));
      }
      --phase_left;
      if (burst && rng.bernoulli(0.7)) {
        const auto src = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        const auto dst = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        net.ni(src).enqueue_packet(dst, 5, static_cast<common::Picoseconds>(c) * 1000, c);
      }
    }
    net.step_island(0, static_cast<common::Picoseconds>(c) * 1000);

    // Fault-aware conservation, every cycle.
    ASSERT_EQ(net.total_flits_generated(),
              net.total_flits_ejected() + net.flits_in_network() +
                  net.total_source_backlog_flits() + net.total_flits_dropped())
        << "conservation violated at cycle " << c;
    ASSERT_TRUE(pools_conserve(net)) << "cycle " << c;

    // Watchdog: anything in flight must keep the ledger moving.
    const std::uint64_t ledger = net.total_flits_ejected() + net.total_flits_dropped();
    const std::uint64_t outstanding =
        net.flits_in_network() + net.total_source_backlog_flits();
    if (ledger != last_ledger || outstanding == 0) {
      last_ledger = ledger;
      last_progress_cycle = c;
    }
    ASSERT_LT(c - last_progress_cycle, kWatchdogCycles)
        << "no ejection/drop progress since cycle " << last_progress_cycle << " with "
        << outstanding << " flits outstanding — routing cycle or credit deadlock";

    if (c > active_cycles && outstanding == 0) break;
  }

  // Full drain: everything generated was delivered or accounted as dropped.
  ASSERT_LE(c, max_cycles) << "network failed to drain";
  EXPECT_EQ(net.total_flits_generated(),
            net.total_flits_ejected() + net.total_flits_dropped());
  EXPECT_EQ(net.flits_in_network(), 0u);
  EXPECT_GT(net.total_packets_ejected(), 0u);
  if (cfg.faults.empty()) {
    EXPECT_EQ(net.total_flits_dropped(), 0u);
  } else {
    // The fault fired and the reroute machinery engaged.
    EXPECT_GT(net.failed_links() + net.failed_routers(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TopologyFuzz,
    ::testing::Values(
        TopologyFuzzParams{topo::TopologyKind::Torus, 4, 4, 1, RoutingAlgo::XY, 2, "", 31},
        TopologyFuzzParams{topo::TopologyKind::Torus, 4, 4, 1, RoutingAlgo::Adaptive, 3,
                           "links:2@1000", 32},
        TopologyFuzzParams{topo::TopologyKind::Torus, 4, 4, 1, RoutingAlgo::Ugal, 4,
                           "links:1@500+routers:1@2000", 33},
        TopologyFuzzParams{topo::TopologyKind::Cmesh, 4, 4, 4, RoutingAlgo::XY, 1,
                           "routers:1@1500", 34},
        TopologyFuzzParams{topo::TopologyKind::Cmesh, 6, 4, 2, RoutingAlgo::Adaptive, 2,
                           "links:2@0", 35},
        TopologyFuzzParams{topo::TopologyKind::Dragonfly, 4, 3, 1, RoutingAlgo::XY, 2, "",
                           36},
        TopologyFuzzParams{topo::TopologyKind::Dragonfly, 6, 4, 2, RoutingAlgo::Ugal, 4,
                           "links:1@1000", 37},
        TopologyFuzzParams{topo::TopologyKind::Mesh, 4, 4, 1, RoutingAlgo::Adaptive, 2,
                           "routers:1@1000", 38}),
    [](const ::testing::TestParamInfo<TopologyFuzzParams>& info) {
      return std::string(topo::to_string(info.param.kind)) + "_" +
             to_string(info.param.routing) + "_s" + std::to_string(info.param.seed);
    });

INSTANTIATE_TEST_SUITE_P(Shapes, RouterFuzz,
                         ::testing::Values(FuzzParams{1, 1, 11}, FuzzParams{2, 2, 12},
                                           FuzzParams{4, 4, 13}, FuzzParams{8, 2, 14},
                                           FuzzParams{3, 7, 15}, FuzzParams{16, 4, 16}),
                         [](const ::testing::TestParamInfo<FuzzParams>& info) {
                           return "vc" + std::to_string(info.param.num_vcs) + "_d" +
                                  std::to_string(info.param.depth) + "_s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace nocdvfs::noc
