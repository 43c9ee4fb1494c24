// Router-level tests: a single router wired to hand-driven channels so the
// pipeline timing, credit flow, VC lifecycle and failure modes can be
// observed cycle by cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>

#include "mesh_router.hpp"
#include "noc/channel.hpp"
#include "noc/router.hpp"

namespace nocdvfs::noc {
namespace {

Flit make_flit(NodeId src, NodeId dst, int index, int size, int vc) {
  Flit f;
  f.packet_id = 1;
  f.src = src;
  f.dst = dst;
  f.flit_index = static_cast<std::uint16_t>(index);
  f.packet_size = static_cast<std::uint16_t>(size);
  f.head = (index == 0);
  f.tail = (index == size - 1);
  f.vc = static_cast<std::uint8_t>(vc);
  return f;
}

/// Router 0 of a 2×1 mesh: ports Local and East are wired, the rest are
/// absent (mesh edge). The test drives the channels directly.
class RouterHarness {
 public:
  explicit RouterHarness(RouterConfig cfg = RouterConfig{})
      : mesh_(2, 1, 0, cfg), router_(mesh_.router()) {
    router_.connect_input(PortDir::Local, &in_local, &credit_to_local_src);
    router_.connect_input(PortDir::East, &in_east, &credit_to_east_src);
    router_.connect_output(PortDir::Local, &out_local, &credit_from_local_sink);
    router_.connect_output(PortDir::East, &out_east, &credit_from_east_sink);
  }

  /// One NoC cycle: the clock every channel reads advances, router
  /// receives and computes.
  void cycle() {
    ++clock;
    router_.receive_phase();
    router_.compute_phase();
  }

  /// Consume the credits the router sends back towards the flit sources —
  /// what a protocol-respecting upstream does every cycle. Tests that
  /// inspect credits pop the channels themselves instead.
  void drain_source_credits() {
    (void)credit_to_local_src.pop();
    (void)credit_to_east_src.pop();
  }

  Router& router() { return router_; }

  std::uint64_t clock = 0;  ///< the reader clock of every channel below
  FlitChannel in_local = FlitChannel::delay_line(1, &clock);
  FlitChannel in_east = FlitChannel::delay_line(1, &clock);
  FlitChannel out_local = FlitChannel::delay_line(1, &clock);
  FlitChannel out_east = FlitChannel::delay_line(1, &clock);
  CreditChannel credit_to_local_src = CreditChannel::delay_line(1, &clock);
  CreditChannel credit_to_east_src = CreditChannel::delay_line(1, &clock);
  CreditChannel credit_from_local_sink = CreditChannel::delay_line(1, &clock);
  CreditChannel credit_from_east_sink = CreditChannel::delay_line(1, &clock);

 private:
  MeshRouter mesh_;
  Router& router_;
};

TEST(Router, HeadFlitPipelineLatency) {
  RouterHarness h;
  // Single-flit packet destined to node 1 (East). Pushed at cycle 0 → the
  // channel delivers at cycle 1 (RC), VA at 2, SA+ST at 3, and the output
  // link delivers at cycle 4.
  h.in_local.push(make_flit(0, 1, 0, 1, 0));
  std::optional<Flit> got;
  int arrival_cycle = -1;
  for (int cyc = 1; cyc <= 6; ++cyc) {
    h.cycle();
    if (auto f = h.out_east.pop()) {
      got = f;
      arrival_cycle = cyc;
      break;
    }
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(arrival_cycle, 4);
  EXPECT_EQ(got->dst, 1);
  EXPECT_EQ(got->hops, 1);
}

TEST(Router, RoutesToLocalWhenDestinationIsSelf) {
  RouterHarness h;
  h.in_east.push(make_flit(1, 0, 0, 1, 0));
  std::optional<Flit> got;
  for (int cyc = 0; cyc < 8 && !got; ++cyc) {
    h.cycle();
    got = h.out_local.pop();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->dst, 0);
}

TEST(Router, CreditDecrementsOnTraversalAndReturnsUpstream) {
  RouterConfig cfg;
  cfg.vc_buffer_depth = 4;
  RouterHarness h(cfg);
  const int before = h.router().output_credits(PortDir::East, 0);
  EXPECT_EQ(before, 4);

  h.in_local.push(make_flit(0, 1, 0, 1, 0));
  bool credit_seen = false;
  int credits_after_st = -1;
  for (int cyc = 1; cyc <= 6; ++cyc) {
    h.cycle();
    if (h.out_east.pop()) credits_after_st = h.router().output_credits(PortDir::East, 0);
    if (auto c = h.credit_to_local_src.pop()) {
      credit_seen = true;
      EXPECT_EQ(c->vc, 0);
    }
  }
  // The flit was forced onto some East VC; exactly one VC lost a credit.
  int total = 0;
  for (int v = 0; v < cfg.num_vcs; ++v) total += h.router().output_credits(PortDir::East, v);
  EXPECT_EQ(total, 4 * cfg.num_vcs - 1);
  EXPECT_GE(credits_after_st, 0);
  EXPECT_TRUE(credit_seen) << "freed buffer slot must send a credit upstream";
}

TEST(Router, TailReleasesOutputVc) {
  RouterHarness h;
  constexpr int kSize = 3;
  for (int i = 0; i < kSize; ++i) {
    h.in_local.push(make_flit(0, 1, i, kSize, 0));
    h.cycle();
    h.drain_source_credits();
  }
  // Drain everything; afterwards no East VC may remain allocated.
  for (int cyc = 0; cyc < 12; ++cyc) {
    h.cycle();
    h.drain_source_credits();
    (void)h.out_east.pop();
  }
  for (int v = 0; v < h.router().config().num_vcs; ++v) {
    EXPECT_FALSE(h.router().output_vc_allocated(PortDir::East, v));
    EXPECT_EQ(h.router().input_vc_state(PortDir::Local, v), VcStateKind::Idle);
  }
  EXPECT_EQ(h.router().buffered_flits(), 0);
}

TEST(Router, MultiFlitPacketStreamsInOrder) {
  RouterHarness h;
  constexpr int kSize = 5;
  int pushed = 0;
  std::vector<int> received;
  for (int cyc = 0; cyc < 20; ++cyc) {
    if (pushed < kSize) {
      h.in_local.push(make_flit(0, 1, pushed, kSize, 2));
      ++pushed;
    }
    h.cycle();
    h.drain_source_credits();
    if (auto f = h.out_east.pop()) {
      received.push_back(f->flit_index);
      // Ideal downstream sink: consume and return the credit.
      h.credit_from_east_sink.push(Credit{f->vc});
    }
  }
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kSize));
  for (int i = 0; i < kSize; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST(Router, CreditStarvationStallsAndCreditResumesFlow) {
  RouterConfig cfg;
  cfg.vc_buffer_depth = 2;
  RouterHarness h(cfg);
  // 6-flit packet; downstream never returns credits, so exactly
  // vc_buffer_depth flits can traverse before the router stalls.
  constexpr int kSize = 6;
  int pushed = 0;
  int received = 0;
  for (int cyc = 0; cyc < 30; ++cyc) {
    // Respect the credit protocol on the upstream side: only 2 outstanding.
    if (pushed < kSize && pushed - received - h.router().buffered_flits() < 2) {
      // Count credits returned to us to decide whether we may push.
    }
    if (auto c = h.credit_to_local_src.pop()) (void)c;
    if (pushed < kSize && h.router().input_vc_occupancy(PortDir::Local, 1) < 2) {
      h.in_local.push(make_flit(0, 1, pushed, kSize, 1));
      ++pushed;
    }
    h.cycle();
    if (h.out_east.pop()) ++received;
  }
  EXPECT_EQ(received, 2) << "only vc_buffer_depth flits may pass without credits";

  // Return one credit on the VC the router picked: exactly one more flit.
  int granted_vc = -1;
  for (int v = 0; v < cfg.num_vcs; ++v) {
    if (h.router().output_vc_allocated(PortDir::East, v)) granted_vc = v;
  }
  ASSERT_GE(granted_vc, 0);
  h.credit_from_east_sink.push(Credit{static_cast<std::uint8_t>(granted_vc)});
  for (int cyc = 0; cyc < 6; ++cyc) {
    h.cycle();
    if (h.out_east.pop()) ++received;
  }
  EXPECT_EQ(received, 3);
}

TEST(Router, TwoInputsToSameOutputShareBandwidthFairly) {
  RouterConfig cfg;
  cfg.vc_buffer_depth = 8;
  RouterHarness h(cfg);
  // Local and East both stream single-flit packets to... East input routes
  // to Local (dst 0), Local input routes East (dst 1) — different outputs,
  // no conflict. To create a conflict, both must target the same output:
  // only Local->East and East->Local exist in a 2-node mesh, so instead
  // check both flows progress concurrently at full rate.
  int sent = 0;
  int got_east = 0, got_local = 0;
  for (int cyc = 0; cyc < 40; ++cyc) {
    if (sent < 16) {
      h.in_local.push(make_flit(0, 1, 0, 1, static_cast<std::uint8_t>(sent % 4)));
      h.in_east.push(make_flit(1, 0, 0, 1, static_cast<std::uint8_t>(sent % 4)));
      ++sent;
    }
    // Keep credits flowing back so neither direction starves.
    if (auto c = h.credit_to_local_src.pop()) (void)c;
    if (auto c = h.credit_to_east_src.pop()) (void)c;
    h.cycle();
    if (h.out_east.pop()) ++got_east;
    if (h.out_local.pop()) ++got_local;
    // Sink returns credits immediately.
    while (true) break;
  }
  EXPECT_EQ(got_east, 16);
  EXPECT_EQ(got_local, 16);
}

TEST(Router, ActivityCountersTrackFlits) {
  RouterHarness h;
  constexpr int kSize = 4;
  for (int i = 0; i < kSize; ++i) {
    h.in_local.push(make_flit(0, 1, i, kSize, 0));
    h.cycle();
    h.drain_source_credits();
    (void)h.out_east.pop();
  }
  for (int cyc = 0; cyc < 12; ++cyc) {
    h.cycle();
    h.drain_source_credits();
    (void)h.out_east.pop();
  }
  const auto& a = h.router().activity();
  EXPECT_EQ(a.buffer_writes, static_cast<std::uint64_t>(kSize));
  EXPECT_EQ(a.buffer_reads, static_cast<std::uint64_t>(kSize));
  EXPECT_EQ(a.crossbar_traversals, static_cast<std::uint64_t>(kSize));
  EXPECT_EQ(a.link_flit_hops, static_cast<std::uint64_t>(kSize));
  EXPECT_EQ(a.vc_alloc_grants, 1u);
  EXPECT_EQ(a.sw_alloc_grants, static_cast<std::uint64_t>(kSize));
}

TEST(Router, BufferOverflowFromCreditViolationIsCaught) {
  RouterConfig cfg;
  cfg.vc_buffer_depth = 2;
  RouterHarness h(cfg);
  // Downstream never returns credits; we (the upstream) ignore the credit
  // protocol and push one flit per cycle. depth flits traverse, depth more
  // buffer up; the next arrival must trip the invariant.
  constexpr int kFlits = 10;
  EXPECT_THROW(
      {
        for (int i = 0; i < kFlits; ++i) {
          h.in_local.push(make_flit(0, 1, i, kFlits, 3));
          h.cycle();
        }
      },
      common::InvariantViolation);
}

TEST(Router, PushSetsExactlyTheReadersPendingBit) {
  // Wiring order: inputs Local (bit 0), East (bit 1); outputs Local (bit
  // 0), East (bit 1). Channels the router writes never touch its masks.
  RouterHarness h;
  const Router& r = h.router();
  EXPECT_FALSE(r.inputs_pending().any());
  h.in_east.push(make_flit(1, 0, 0, 1, 0));
  EXPECT_EQ(r.inputs_pending().flits, 0b10u);
  EXPECT_EQ(r.inputs_pending().credits, 0u);
  h.credit_from_local_sink.push(Credit{0});
  EXPECT_EQ(r.inputs_pending().flits, 0b10u);
  EXPECT_EQ(r.inputs_pending().credits, 0b01u);
  h.credit_to_east_src.push(Credit{0});  // read by the upstream, not this router
  h.out_east.push(make_flit(0, 1, 0, 1, 0));
  EXPECT_EQ(r.inputs_pending().flits, 0b10u);
  EXPECT_EQ(r.inputs_pending().credits, 0b01u);

  // A pop that empties its channel clears exactly its bit. (The credit is
  // popped by hand: the router's credit counters are already full.)
  ++h.clock;
  ASSERT_TRUE(h.credit_from_local_sink.pop().has_value());
  EXPECT_EQ(r.inputs_pending().flits, 0b10u);
  EXPECT_EQ(r.inputs_pending().credits, 0u);
  h.router().receive_phase();
  EXPECT_FALSE(r.inputs_pending().any());
  EXPECT_EQ(r.buffered_now(), 1);
}

TEST(Router, FlitPoolGrowsToThePeakBuffered) {
  // One VC of depth 4 per port, and 4-flit packets Local -> East and
  // East -> Local. Neither sink returns a credit before cycle 40, so on
  // each input the first packet crosses on the four downstream credits and
  // the second buffers whole: the burst peaks at 8 flits buffered. The pool
  // grows to exactly that peak, every slot is free again once the sinks'
  // credits drain it, and the third packets reuse freed slots.
  RouterConfig cfg;
  cfg.num_vcs = 1;
  cfg.vc_buffer_depth = 4;
  RouterHarness h(cfg);
  Router& r = h.router();
  constexpr int kSize = 4;
  struct Stream {
    FlitChannel& in;
    CreditChannel& credit_back;
    FlitChannel& out;
    CreditChannel& sink_credit;
    NodeId src, dst;
    int sent = 0, credits = 4, owed = 0, received = 0;
  };
  std::array<Stream, 2> streams{
      Stream{h.in_local, h.credit_to_local_src, h.out_east, h.credit_from_east_sink, 0, 1},
      Stream{h.in_east, h.credit_to_east_src, h.out_local, h.credit_from_local_sink, 1, 0}};
  int peak = 0;
  for (int cyc = 0; cyc < 120; ++cyc) {
    const int packets = cyc < 60 ? 2 : 3;
    for (Stream& st : streams) {
      if (st.credit_back.pop()) ++st.credits;
      if (st.sent < packets * kSize && st.credits > 0) {
        st.in.push(make_flit(st.src, st.dst, st.sent % kSize, kSize, 0));
        ++st.sent;
        --st.credits;
      }
    }
    ++h.clock;
    r.receive_phase();
    peak = std::max(peak, r.buffered_now());  // slots are handed out only here
    r.compute_phase();
    for (Stream& st : streams) {
      if (st.out.pop()) {
        ++st.owed;
        ++st.received;
      }
      if (cyc >= 40 && st.owed > 0) {
        st.sink_credit.push(Credit{0});
        --st.owed;
      }
    }
    ASSERT_EQ(r.pool_slots(), r.pool_free_slots() + r.buffered_now()) << "cycle " << cyc;
  }
  EXPECT_EQ(peak, 8);
  EXPECT_EQ(r.pool_slots(), peak);
  EXPECT_LT(r.pool_slots(), kMeshPorts * cfg.num_vcs * cfg.vc_buffer_depth);
  EXPECT_EQ(r.buffered_now(), 0);
  EXPECT_EQ(r.pool_free_slots(), r.pool_slots());
  for (const Stream& st : streams) EXPECT_EQ(st.received, 3 * kSize);
}

TEST(Router, ConfigValidation) {
  RouterConfig bad;
  bad.num_vcs = 0;
  EXPECT_THROW(Router(0, kMeshPorts, bad), std::invalid_argument);
  bad.num_vcs = 65;
  EXPECT_THROW(Router(0, kMeshPorts, bad), std::invalid_argument);
  bad.num_vcs = 4;
  bad.vc_buffer_depth = 0;
  EXPECT_THROW(Router(0, kMeshPorts, bad), std::invalid_argument);
  EXPECT_THROW(Router(0, 0, RouterConfig{}), std::invalid_argument);
  EXPECT_THROW(Router(0, kMaxPorts + 1, RouterConfig{}), std::invalid_argument);
}

TEST(Router, WiringValidation) {
  MeshRouter mesh(2, 1, 0, RouterConfig{});
  Router& r = mesh.router();
  std::uint64_t clock = 0;
  FlitChannel f = FlitChannel::delay_line(1, &clock);
  CreditChannel c = CreditChannel::delay_line(1, &clock);
  EXPECT_THROW(r.connect_input(PortDir::Local, nullptr, &c), std::invalid_argument);
  EXPECT_THROW(r.connect_output(PortDir::East, &f, nullptr), std::invalid_argument);
  r.connect_input(PortDir::Local, &f, &c);
  EXPECT_THROW(r.connect_input(PortDir::Local, &f, &c), common::InvariantViolation);
}

}  // namespace
}  // namespace nocdvfs::noc
