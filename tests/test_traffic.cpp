// Traffic-layer tests: destination patterns (including the paper's five),
// injection processes, and the two traffic models. Pattern invariants are
// checked as properties (bijectivity for permutations, rate accuracy for
// processes) with parameterized suites where the property is shared.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/scenario.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"
#include "traffic/traffic_model.hpp"

namespace nocdvfs::traffic {
namespace {

using noc::MeshTopology;
using noc::NodeId;

// ----------------------------------------------------------- patterns ----

TEST(Pattern, UniformCoversAllDestinations) {
  MeshTopology topo(4, 4);
  auto p = TrafficPattern::create("uniform", topo);
  common::Rng rng(1);
  std::map<NodeId, int> counts;
  constexpr int kN = 32000;
  for (int i = 0; i < kN; ++i) ++counts[p->pick(5, rng)];
  EXPECT_EQ(counts.size(), 16u);
  for (const auto& [node, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 1.0 / 16, 0.01) << "node " << node;
  }
}

TEST(Pattern, TornadoFormula) {
  MeshTopology topo(5, 5);
  auto p = TrafficPattern::create("tornado", topo);
  common::Rng rng(1);
  // ceil(5/2) - 1 = 2 hops around each dimension.
  EXPECT_EQ(p->pick(topo.node_at({0, 0}), rng), topo.node_at({2, 2}));
  EXPECT_EQ(p->pick(topo.node_at({4, 1}), rng), topo.node_at({1, 3}));
}

TEST(Pattern, BitComplementMirrorsCoordinates) {
  MeshTopology topo(4, 4);
  auto p = TrafficPattern::create("bitcomp", topo);
  common::Rng rng(1);
  EXPECT_EQ(p->pick(topo.node_at({0, 0}), rng), topo.node_at({3, 3}));
  EXPECT_EQ(p->pick(topo.node_at({1, 2}), rng), topo.node_at({2, 1}));
}

TEST(Pattern, TransposeSwapsCoordinates) {
  MeshTopology topo(5, 5);
  auto p = TrafficPattern::create("transpose", topo);
  common::Rng rng(1);
  EXPECT_EQ(p->pick(topo.node_at({1, 3}), rng), topo.node_at({3, 1}));
  EXPECT_EQ(p->pick(topo.node_at({2, 2}), rng), topo.node_at({2, 2}));
}

TEST(Pattern, TransposeRequiresSquareMesh) {
  MeshTopology topo(4, 5);
  EXPECT_THROW(TrafficPattern::create("transpose", topo), std::invalid_argument);
}

TEST(Pattern, NeighborWrapsModK) {
  MeshTopology topo(4, 4);
  auto p = TrafficPattern::create("neighbor", topo);
  common::Rng rng(1);
  EXPECT_EQ(p->pick(topo.node_at({1, 1}), rng), topo.node_at({2, 2}));
  EXPECT_EQ(p->pick(topo.node_at({3, 3}), rng), topo.node_at({0, 0}));
}

TEST(Pattern, ShuffleAndBitrevRequirePowerOfTwo) {
  MeshTopology topo55(5, 5);
  EXPECT_THROW(TrafficPattern::create("shuffle", topo55), std::invalid_argument);
  EXPECT_THROW(TrafficPattern::create("bitrev", topo55), std::invalid_argument);
  MeshTopology topo44(4, 4);
  EXPECT_NE(TrafficPattern::create("shuffle", topo44), nullptr);
  EXPECT_NE(TrafficPattern::create("bitrev", topo44), nullptr);
}

TEST(Pattern, BitrevReversesIndexBits) {
  MeshTopology topo(4, 4);  // 16 nodes, 4 bits
  auto p = TrafficPattern::create("bitrev", topo);
  common::Rng rng(1);
  EXPECT_EQ(p->pick(0b0001, rng), 0b1000);
  EXPECT_EQ(p->pick(0b1010, rng), 0b0101);
  EXPECT_EQ(p->pick(0b1111, rng), 0b1111);
}

TEST(Pattern, HotspotFractionRespected) {
  MeshTopology topo(5, 5);
  auto p = TrafficPattern::create("hotspot", topo, 1, 0.4);
  common::Rng rng(2);
  const NodeId hotspot = topo.node_at({2, 2});
  int hits = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) hits += (p->pick(0, rng) == hotspot) ? 1 : 0;
  // 40% direct + uniform residue hitting the hotspot 1/25 of the time.
  const double expected = 0.4 + 0.6 / 25.0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, expected, 0.01);
}

TEST(Pattern, HotspotRejectsBadFraction) {
  MeshTopology topo(3, 3);
  EXPECT_THROW(TrafficPattern::create("hotspot", topo, 1, 1.5), std::invalid_argument);
}

TEST(Pattern, UnknownNameRejected) {
  MeshTopology topo(3, 3);
  EXPECT_THROW(TrafficPattern::create("nearest-enemy", topo), std::invalid_argument);
}

TEST(Pattern, UnknownNameErrorListsEveryKnownPattern) {
  sim::Scenario s;
  s.pattern = "bogus";
  try {
    sim::make_simulator(s);
    FAIL() << "pattern=bogus was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    for (const std::string& name : TrafficPattern::known_patterns()) {
      EXPECT_NE(what.find(name), std::string::npos) << name << " missing from: " << what;
    }
  }
}

TEST(Pattern, MeanHopDistanceUniform) {
  // For a k×k mesh with uniform traffic (self included), the mean per-dim
  // distance is (k²−1)/(3k); for k = 5 the total is 2·(24/15) = 3.2.
  MeshTopology topo(5, 5);
  auto p = TrafficPattern::create("uniform", topo);
  common::Rng rng(3);
  constexpr int kSamplesPerNode = 2000;
  double total = 0.0;
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    for (int i = 0; i < kSamplesPerNode; ++i) {
      total += MeshTopology::manhattan(topo.coord_of(src), topo.coord_of(p->pick(src, rng)));
    }
  }
  EXPECT_NEAR(total / (topo.num_nodes() * kSamplesPerNode), 3.2, 0.05);
}

/// Property: every deterministic pattern on a square power-of-two mesh is a
/// bijection (permutation traffic must not overload any destination).
class PermutationProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(PermutationProperty, IsBijective) {
  MeshTopology topo(4, 4);
  auto p = TrafficPattern::create(GetParam(), topo, /*seed=*/5);
  ASSERT_TRUE(p->deterministic());
  common::Rng rng(1);
  std::set<NodeId> dests;
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    const NodeId d = p->pick(s, rng);
    EXPECT_TRUE(topo.valid(d));
    dests.insert(d);
  }
  EXPECT_EQ(dests.size(), static_cast<std::size_t>(topo.num_nodes()));
}

INSTANTIATE_TEST_SUITE_P(AllPermutations, PermutationProperty,
                         ::testing::Values("tornado", "bitcomp", "transpose", "neighbor",
                                           "shuffle", "bitrev", "permutation"));

/// Property: picks are stable across repeated calls for deterministic
/// patterns, and within the mesh for all patterns.
class PatternValidity : public ::testing::TestWithParam<std::string> {};

TEST_P(PatternValidity, DestinationsAlwaysOnMesh) {
  MeshTopology topo(4, 4);
  auto p = TrafficPattern::create(GetParam(), topo, 7);
  common::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const NodeId s = static_cast<NodeId>(rng.uniform_below(16));
    EXPECT_TRUE(topo.valid(p->pick(s, rng)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternValidity,
                         ::testing::ValuesIn(TrafficPattern::known_patterns()));

// ---------------------------------------------------------- injection ----

TEST(Injection, BernoulliRateAccuracy) {
  InjectionProcess inj = InjectionProcess::bernoulli(0.15);
  common::Rng rng(4);
  constexpr int kN = 200000;
  int fires = 0;
  for (int i = 0; i < kN; ++i) fires += inj.fire(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fires) / kN, 0.15, 0.005);
}

TEST(Injection, BernoulliRejectsBadRate) {
  EXPECT_THROW(InjectionProcess::bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(InjectionProcess::bernoulli(1.1), std::invalid_argument);
}

TEST(Injection, OnOffLongRunRateMatches) {
  InjectionProcess inj = InjectionProcess::onoff(0.1);
  common::Rng rng(5);
  constexpr int kN = 400000;
  int fires = 0;
  for (int i = 0; i < kN; ++i) fires += inj.fire(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fires) / kN, 0.1, 0.01);
}

TEST(Injection, OnOffIsBurstierThanBernoulli) {
  // Compare the variance of per-window counts: the MMPP must exceed the
  // memoryless process at equal mean rate.
  constexpr double kRate = 0.1;
  constexpr int kWindows = 2000;
  constexpr int kWindow = 100;
  auto window_variance = [&](InjectionProcess& inj, common::Rng& rng) {
    double sum = 0.0, sum2 = 0.0;
    for (int w = 0; w < kWindows; ++w) {
      int c = 0;
      for (int i = 0; i < kWindow; ++i) c += inj.fire(rng) ? 1 : 0;
      sum += c;
      sum2 += static_cast<double>(c) * c;
    }
    const double mean = sum / kWindows;
    return sum2 / kWindows - mean * mean;
  };
  common::Rng rng1(6), rng2(6);
  InjectionProcess bern = InjectionProcess::bernoulli(kRate);
  InjectionProcess onoff = InjectionProcess::onoff(kRate);
  EXPECT_GT(window_variance(onoff, rng2), 1.5 * window_variance(bern, rng1));
}

TEST(Injection, OnOffRejectsInfeasibleDuty) {
  // duty = alpha/(alpha+beta) = 0.2; on_rate = rate/duty > 1 must throw.
  EXPECT_THROW(InjectionProcess::onoff(0.5, 0.0125, 0.05), std::invalid_argument);
}

TEST(Injection, FactoryByName) {
  EXPECT_EQ(InjectionProcess::create("bernoulli", 0.1).kind(), InjectionProcess::Kind::Bernoulli);
  EXPECT_EQ(InjectionProcess::create("onoff", 0.1).kind(), InjectionProcess::Kind::OnOff);
  EXPECT_THROW(InjectionProcess::create("poisson", 0.1), std::invalid_argument);
}

TEST(Injection, UnknownKindErrorListsEveryProcess) {
  try {
    (void)InjectionProcess::create("poisson", 0.1);
    FAIL() << "process=poisson was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'poisson'"), std::string::npos) << what;
    EXPECT_NE(what.find("bernoulli"), std::string::npos) << what;
    EXPECT_NE(what.find("onoff"), std::string::npos) << what;
  }
}

// ------------------------------------------------------ traffic model ----

TEST(SyntheticTraffic, OfferedRateMatchesLambda) {
  noc::NetworkConfig ncfg;
  ncfg.width = 4;
  ncfg.height = 4;
  noc::Network net(ncfg);
  MeshTopology topo(4, 4);
  SyntheticTrafficParams params;
  params.lambda = 0.2;
  params.packet_size = 4;
  SyntheticTraffic model(topo, params);
  constexpr int kTicks = 50000;
  for (int t = 0; t < kTicks; ++t) model.node_tick(t * 1000, 0, net);
  const double measured = static_cast<double>(net.total_flits_generated()) /
                          (16.0 * static_cast<double>(kTicks));
  EXPECT_NEAR(measured, 0.2, 0.01);
  EXPECT_DOUBLE_EQ(model.offered_flits_per_node_cycle(), 0.2);
}

TEST(SyntheticTraffic, RejectsInfeasibleLambda) {
  MeshTopology topo(4, 4);
  SyntheticTrafficParams params;
  params.lambda = 6.0;
  params.packet_size = 4;  // 1.5 packets per cycle: impossible
  EXPECT_THROW(SyntheticTraffic(topo, params), std::invalid_argument);
  params.lambda = -0.1;
  EXPECT_THROW(SyntheticTraffic(topo, params), std::invalid_argument);
}

TEST(MatrixTraffic, RatesAndDestinationsFollowMatrix) {
  noc::NetworkConfig ncfg;
  ncfg.width = 2;
  ncfg.height = 2;
  noc::Network net(ncfg);
  // Node 0 sends 3:1 to nodes 1 and 2; others silent. 40 M packets/s at a
  // 1 GHz node clock = 0.04 packets/cycle.
  std::vector<std::vector<double>> rates(4, std::vector<double>(4, 0.0));
  rates[0][1] = 30e6;
  rates[0][2] = 10e6;
  MatrixTraffic model(rates, 2, 1e9, 42);
  constexpr int kTicks = 200000;
  for (int t = 0; t < kTicks; ++t) model.node_tick(t * 1000, 0, net);

  EXPECT_EQ(net.ni(1).packets_generated(), 0u);
  const double total = static_cast<double>(net.ni(0).packets_generated());
  EXPECT_NEAR(total / kTicks, 0.04, 0.004);
  // Mean offered flits/node-cycle: 0.04 packets × 2 flits / 4 nodes.
  EXPECT_NEAR(model.offered_flits_per_node_cycle(), 0.02, 1e-12);
}

TEST(MatrixTraffic, ValidationErrors) {
  EXPECT_THROW(MatrixTraffic({}, 2, 1e9, 1), std::invalid_argument);
  std::vector<std::vector<double>> ragged = {{0.0, 1.0}, {0.0}};
  EXPECT_THROW(MatrixTraffic(ragged, 2, 1e9, 1), std::invalid_argument);
  std::vector<std::vector<double>> negative(2, std::vector<double>(2, 0.0));
  negative[0][1] = -5.0;
  EXPECT_THROW(MatrixTraffic(negative, 2, 1e9, 1), std::invalid_argument);
  std::vector<std::vector<double>> too_fast(2, std::vector<double>(2, 0.0));
  too_fast[0][1] = 2e9;  // 2 packets per node cycle
  EXPECT_THROW(MatrixTraffic(too_fast, 2, 1e9, 1), std::invalid_argument);
}

}  // namespace
}  // namespace nocdvfs::traffic
