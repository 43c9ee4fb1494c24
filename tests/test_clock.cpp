// Clock kernel tests: edge interleaving at integer and non-integer
// frequency ratios, retuning semantics, and counter consistency — for a
// single NoC domain (the paper's node + NoC clock pair) and for N
// independently retunable NoC domains (voltage–frequency islands).

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/clock.hpp"

namespace nocdvfs::sim {
namespace {

// ---------------------------------------------------------------------------
// One NoC domain: the paper's original node + NoC clock pair.
// ---------------------------------------------------------------------------

TEST(SingleDomainClock, EqualFrequenciesTickTogether) {
  MultiClock clk(1e9, {1e9});
  for (int i = 0; i < 100; ++i) {
    const auto e = clk.advance();
    EXPECT_TRUE(e.node);
    EXPECT_TRUE(e.noc_any);
  }
  EXPECT_EQ(clk.node_cycles(), 100u);
  EXPECT_EQ(clk.noc_cycles(0), 100u);
  EXPECT_EQ(clk.now(), 100'000u);  // 100 ns
}

TEST(SingleDomainClock, HalfRateNocTicksEveryOtherNodeCycle) {
  MultiClock clk(1e9, {0.5e9});
  int node = 0, noc = 0;
  while (clk.now() < 100'000) {
    const auto e = clk.advance();
    node += e.node ? 1 : 0;
    noc += e.noc_any ? 1 : 0;
  }
  EXPECT_EQ(node, 100);
  EXPECT_EQ(noc, 50);
}

TEST(SingleDomainClock, NonIntegerRatioKeepsLongRunProportion) {
  MultiClock clk(1e9, {333e6});
  while (clk.node_cycles() < 100000) clk.advance();
  const double ratio = static_cast<double>(clk.noc_cycles(0)) / clk.node_cycles();
  EXPECT_NEAR(ratio, 0.333, 0.001);
}

TEST(SingleDomainClock, CountersMatchElapsedTime) {
  MultiClock clk(1e9, {750e6});
  while (clk.node_cycles() < 10000) clk.advance();
  // node: 1000 ps period → time = cycles × 1000.
  EXPECT_EQ(clk.now(), clk.node_cycles() * 1000u);
  // noc: 1333 ps period; counter must match time/period ±1.
  const auto expected_noc = clk.now() / 1333;
  EXPECT_NEAR(static_cast<double>(clk.noc_cycles(0)), static_cast<double>(expected_noc), 1.0);
}

TEST(SingleDomainClock, FrequencyChangeAppliesAfterPendingEdge) {
  MultiClock clk(1e9, {1e9});
  clk.advance();  // t = 1000, both fire; next noc edge scheduled at 2000
  clk.set_noc_frequency(0, 0.5e9);
  // The pending edge at 2000 still happens...
  auto e = clk.advance();
  EXPECT_TRUE(e.noc_any);
  EXPECT_EQ(clk.now(), 2000u);
  // ...and the new 2000 ps period applies afterwards: next noc edge at 4000.
  std::uint64_t next_noc_time = 0;
  while (next_noc_time == 0) {
    e = clk.advance();
    if (e.noc_any) next_noc_time = clk.now();
  }
  EXPECT_EQ(next_noc_time, 4000u);
}

TEST(SingleDomainClock, SpeedUpAlsoHonored) {
  MultiClock clk(1e9, {333e6});
  clk.advance();  // node edge at 1000 (noc edge pending at 3003)
  clk.set_noc_frequency(0, 1e9);
  std::uint64_t noc_edges_seen = 0;
  while (clk.now() < 20000) {
    if (clk.advance().noc_any) ++noc_edges_seen;
  }
  // Pending edge at 3003, then 1000 ps period: ≈ 1 + 17 edges by t = 20000.
  EXPECT_GE(noc_edges_seen, 17u);
}

TEST(SingleDomainClock, FrequencyAccessors) {
  MultiClock clk(1e9, {500e6});
  EXPECT_DOUBLE_EQ(clk.node_frequency(), 1e9);
  EXPECT_DOUBLE_EQ(clk.noc_frequency(0), 500e6);
  EXPECT_EQ(clk.noc_period_ps(0), 2000u);
  clk.set_noc_frequency(0, 333e6);
  EXPECT_EQ(clk.noc_period_ps(0), 3003u);
}

TEST(SingleDomainClock, RejectsBadFrequencies) {
  EXPECT_THROW(MultiClock(0.0, {1e9}), std::invalid_argument);
  EXPECT_THROW(MultiClock(1e9, {-1.0}), std::invalid_argument);
  MultiClock clk(1e9, {1e9});
  EXPECT_THROW(clk.set_noc_frequency(0, 0.0), std::invalid_argument);
}

TEST(SingleDomainClock, TimeStrictlyIncreases) {
  MultiClock clk(1e9, {617e6});  // deliberately awkward ratio
  common::Picoseconds prev = 0;
  for (int i = 0; i < 10000; ++i) {
    clk.advance();
    ASSERT_GT(clk.now(), prev);
    prev = clk.now();
  }
}

// ---------------------------------------------------------------------------
// MultiClock: N retunable NoC domains on the shared picosecond timeline.
// ---------------------------------------------------------------------------

TEST(MultiClock, CoincidentEdgesAcrossThreeDomains) {
  // Periods 1000 / 2000 / 4000 ps: at t = 4000 the node domain and all
  // three NoC domains fire in the same advance(), reported together in
  // ascending domain order.
  MultiClock clk(1e9, {1e9, 0.5e9, 0.25e9});
  bool saw_triple = false;
  while (clk.now() < 20000) {
    const auto e = clk.advance();
    if (clk.now() % 4000 == 0) {
      EXPECT_TRUE(e.node);
      EXPECT_TRUE(e.noc_any);
      ASSERT_EQ(clk.fired().size(), 3u);
      EXPECT_EQ(clk.fired()[0], 0);
      EXPECT_EQ(clk.fired()[1], 1);
      EXPECT_EQ(clk.fired()[2], 2);
      saw_triple = true;
    } else if (clk.now() % 2000 == 0) {
      ASSERT_EQ(clk.fired().size(), 2u);
    }
    ASSERT_TRUE(std::is_sorted(clk.fired().begin(), clk.fired().end()));
  }
  EXPECT_TRUE(saw_triple);
  EXPECT_EQ(clk.noc_cycles(0), 20u);
  EXPECT_EQ(clk.noc_cycles(1), 10u);
  EXPECT_EQ(clk.noc_cycles(2), 5u);
}

TEST(MultiClock, RetuneExactlyOnControlWindowBoundary) {
  // Retuning at an instant where the domain just fired (a control update
  // lands exactly on the domain's own edge) keeps the already-scheduled
  // next edge and applies the new period after it — the same glitch-free
  // rule as a mid-period retune.
  MultiClock clk(1e9, {1e9});
  clk.advance();  // t = 1000: both domains fired; next noc edge at 2000
  ASSERT_EQ(clk.fired().size(), 1u);
  clk.set_noc_frequency(0, 0.5e9);
  auto e = clk.advance();
  EXPECT_TRUE(e.noc_any);
  EXPECT_EQ(clk.now(), 2000u);  // pending edge kept its instant
  std::uint64_t next_noc_time = 0;
  while (next_noc_time == 0) {
    e = clk.advance();
    if (e.noc_any) next_noc_time = clk.now();
  }
  EXPECT_EQ(next_noc_time, 4000u);  // then the 2000 ps period applies
}

TEST(MultiClock, RetuningOneDomainNeverPerturbsAnother) {
  MultiClock a(1e9, {750e6, 617e6});
  MultiClock b(1e9, {750e6, 617e6});
  // Drive both clocks identically except that `b` keeps retuning domain 0.
  std::vector<common::Picoseconds> a_dom1_edges, b_dom1_edges;
  for (int i = 0; i < 5000; ++i) {
    a.advance();
    if (std::find(a.fired().begin(), a.fired().end(), 1) != a.fired().end()) {
      a_dom1_edges.push_back(a.now());
    }
  }
  int flip = 0;
  while (b.now() < a.now()) {
    b.advance();
    if (std::find(b.fired().begin(), b.fired().end(), 1) != b.fired().end()) {
      b_dom1_edges.push_back(b.now());
    }
    if (b.node_cycles() % 100 == 0) {
      b.set_noc_frequency(0, (flip++ % 2) ? 750e6 : 333e6);
    }
  }
  // Domain 1's edge schedule is bit-identical despite domain 0's churn.
  ASSERT_GE(b_dom1_edges.size(), a_dom1_edges.size());
  for (std::size_t i = 0; i < a_dom1_edges.size(); ++i) {
    ASSERT_EQ(b_dom1_edges[i], a_dom1_edges[i]);
  }
  EXPECT_DOUBLE_EQ(b.noc_frequency(1), 617e6);
}

TEST(MultiClock, PerDomainCountersMatchElapsedTime) {
  MultiClock clk(1e9, {750e6, 500e6, 250e6});
  while (clk.node_cycles() < 10000) clk.advance();
  EXPECT_EQ(clk.now(), clk.node_cycles() * 1000u);
  EXPECT_NEAR(static_cast<double>(clk.noc_cycles(0)),
              static_cast<double>(clk.now() / 1333), 1.0);
  EXPECT_EQ(clk.noc_cycles(1), clk.now() / 2000);
  EXPECT_EQ(clk.noc_cycles(2), clk.now() / 4000);
}

TEST(MultiClock, Validation) {
  EXPECT_THROW(MultiClock(1e9, {}), std::invalid_argument);
  EXPECT_THROW(MultiClock(1e9, {1e9, 0.0}), std::invalid_argument);
  MultiClock clk(1e9, {1e9, 0.5e9});
  EXPECT_THROW(clk.set_noc_frequency(1, -1.0), std::invalid_argument);
  EXPECT_THROW(clk.set_noc_frequency(5, 1e9), std::out_of_range);
  EXPECT_EQ(clk.num_noc_domains(), 2);
}

}  // namespace
}  // namespace nocdvfs::sim
