// Traffic-layer tests: destination patterns (including the paper's five),
// injection processes, and the two traffic models. Pattern invariants are
// checked as properties (bijectivity for permutations, rate accuracy for
// processes) with parameterized suites where the property is shared.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/scenario.hpp"
#include "traffic/arrival_calendar.hpp"
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

/// Arrivals per window of `window` node cycles over `windows` windows,
/// walked gap by gap from the process's first arrival.
std::vector<int> window_counts(InjectionProcess& inj, common::Rng& rng, int windows,
                               int window) {
  std::vector<int> counts(static_cast<std::size_t>(windows), 0);
  const std::uint64_t span = static_cast<std::uint64_t>(windows) * window;
  // The first gap lands in cycle gap-1 (gap 1 is the first cycle).
  for (std::uint64_t t = inj.next_gap(rng) - 1; t < span; t += inj.next_gap(rng)) {
    ++counts[t / static_cast<std::uint64_t>(window)];
  }
  return counts;
}

/// Variance over mean of per-window counts (1 - p for a Bernoulli process).
double index_of_dispersion(const std::vector<int>& counts) {
  double sum = 0.0, sum2 = 0.0;
  for (const int c : counts) {
    sum += c;
    sum2 += static_cast<double>(c) * c;
  }
  const double n = static_cast<double>(counts.size());
  const double mean = sum / n;
  return (sum2 / n - mean * mean) / mean;
}

/// Upper 0.1% point of the chi-square law with `df` degrees of freedom
/// (Wilson–Hilferty; within 1% for df >= 5).
double chi2_critical_999(int df) {
  const double k = static_cast<double>(df);
  const double a = 2.0 / (9.0 * k);
  return k * std::pow(1.0 - a + 3.0902 * std::sqrt(a), 3.0);
}

/// Bins of consecutive gap values [lo, hi], each expected to hold at least
/// `min_share` of a Geom(p) sample; the last bin is open-ended.
struct GapBin {
  std::uint64_t lo, hi;
  double prob;
};
std::vector<GapBin> geometric_bins(double p, double min_share) {
  std::vector<GapBin> bins;
  const double q = 1.0 - p;
  std::uint64_t lo = 1;
  double tail = 1.0;  // P(G >= lo) = q^(lo-1)
  while (tail > 2.0 * min_share) {
    // Smallest hi with P(lo <= G <= hi) = tail - q^hi >= min_share.
    const double target = tail - min_share;  // need q^hi <= target
    auto hi = static_cast<std::uint64_t>(std::ceil(std::log(target) / std::log(q)));
    hi = std::max(hi, lo);
    const double next_tail = std::pow(q, static_cast<double>(hi));
    bins.push_back({lo, hi, tail - next_tail});
    lo = hi + 1;
    tail = next_tail;
  }
  bins.push_back({lo, kNever, tail});
  return bins;
}

class BernoulliGapLaw : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliGapLaw, GapsFollowTheGeometricLaw) {
  // Pearson's chi-square of the sampled gaps against Geom(p), p = lambda:
  // P(gap = k) = (1-p)^(k-1) p. The old per-cycle sampler's gaps follow
  // the same law, so this is the check that the realization changed and
  // the process did not.
  const double p = GetParam();
  InjectionProcess inj = InjectionProcess::bernoulli(p);
  common::Rng rng(17);
  constexpr int kSamples = 40000;
  const std::vector<GapBin> bins = geometric_bins(p, 0.04);
  ASSERT_GE(bins.size(), 8u);
  std::vector<double> observed(bins.size(), 0.0);
  double gap_sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t g = inj.next_gap(rng);
    ASSERT_GE(g, 1u);
    gap_sum += static_cast<double>(g);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (g <= bins[b].hi) {
        observed[b] += 1.0;
        break;
      }
    }
  }
  double chi2 = 0.0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const double expected = kSamples * bins[b].prob;
    chi2 += (observed[b] - expected) * (observed[b] - expected) / expected;
  }
  const int df = static_cast<int>(bins.size()) - 1;
  EXPECT_LT(chi2, chi2_critical_999(df)) << "p=" << p << " bins=" << bins.size();
  // Mean gap 1/p (standard error sqrt(1-p)/p/sqrt(N), < 0.5%).
  EXPECT_NEAR(gap_sum / kSamples * p, 1.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, BernoulliGapLaw, ::testing::Values(0.0005, 0.01, 0.1));

TEST(Injection, BernoulliRateAccuracy) {
  InjectionProcess inj = InjectionProcess::bernoulli(0.15);
  common::Rng rng(4);
  const std::vector<int> counts = window_counts(inj, rng, 2000, 100);
  const double fires = std::accumulate(counts.begin(), counts.end(), 0.0);
  EXPECT_NEAR(fires / 200000.0, 0.15, 0.005);
}

TEST(Injection, BernoulliRejectsBadRate) {
  EXPECT_THROW(InjectionProcess::bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(InjectionProcess::bernoulli(1.1), std::invalid_argument);
}

TEST(Injection, EdgeRatesNeverFireOrFireEveryCycle) {
  common::Rng rng(3);
  InjectionProcess never = InjectionProcess::bernoulli(0.0);
  InjectionProcess always = InjectionProcess::bernoulli(1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(never.next_gap(rng), kNever);
    EXPECT_EQ(always.next_gap(rng), 1u);
  }
  InjectionProcess silent = InjectionProcess::onoff(0.0);
  EXPECT_EQ(silent.next_gap(rng), kNever);
  // alpha = beta = 1 alternates OFF/ON every cycle from OFF; with
  // on_rate = 1 every ON cycle fires: cycles 0, 2, 4, ...
  InjectionProcess blink = InjectionProcess::onoff(0.5, 1.0, 1.0);
  EXPECT_EQ(blink.next_gap(rng), 1u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(blink.next_gap(rng), 2u);
}

TEST(Injection, OnOffLongRunRateMatches) {
  InjectionProcess inj = InjectionProcess::onoff(0.1);
  common::Rng rng(5);
  const std::vector<int> counts = window_counts(inj, rng, 4000, 100);
  const double fires = std::accumulate(counts.begin(), counts.end(), 0.0);
  EXPECT_NEAR(fires / 400000.0, 0.1, 0.01);
}

TEST(Injection, OnOffIsBurstierThanBernoulli) {
  // Compare the dispersion of per-window counts: the MMPP must exceed the
  // memoryless process at equal mean rate.
  constexpr double kRate = 0.1;
  common::Rng rng1(6), rng2(6);
  InjectionProcess bern = InjectionProcess::bernoulli(kRate);
  InjectionProcess onoff = InjectionProcess::onoff(kRate);
  EXPECT_GT(index_of_dispersion(window_counts(onoff, rng2, 2000, 100)),
            1.5 * index_of_dispersion(window_counts(bern, rng1, 2000, 100)));
}

/// The discrete MMPP cycle by cycle, as a per-cycle sampler would draw it
/// (one transition draw and one emission draw per cycle): the oracle the
/// sojourn sampler is checked against.
class PerCycleOnOff {
 public:
  PerCycleOnOff(double rate, double alpha, double beta)
      : on_rate_(rate * (alpha + beta) / alpha), alpha_(alpha), beta_(beta) {}
  bool fire(common::Rng& rng) {
    on_ = on_ ? !rng.bernoulli(beta_) : rng.bernoulli(alpha_);
    return on_ && rng.bernoulli(on_rate_);
  }

 private:
  bool on_ = false;
  double on_rate_, alpha_, beta_;
};

TEST(Injection, OnOffMatchesThePerCycleProcess) {
  // Two-sample chi-square over gap bins, plus the first arrival from the
  // OFF start, for sojourns short enough to cross several per gap.
  constexpr double kRate = 0.05, kAlpha = 0.05, kBeta = 0.2;
  constexpr int kSamples = 30000;
  constexpr std::uint64_t kEdges[] = {1, 2, 3, 4, 6, 8, 11, 15, 20, 30, 45, 70, 110};
  constexpr std::size_t kBins = std::size(kEdges) + 1;
  const auto bin_of = [&](std::uint64_t g) {
    std::size_t b = 0;
    while (b < std::size(kEdges) && g > kEdges[b]) ++b;
    return b;
  };
  std::vector<double> sojourn(kBins, 0.0), per_cycle(kBins, 0.0);
  InjectionProcess inj = InjectionProcess::onoff(kRate, kAlpha, kBeta);
  common::Rng rng_a(21);
  for (int i = 0; i < kSamples; ++i) sojourn[bin_of(inj.next_gap(rng_a))] += 1.0;
  PerCycleOnOff ref(kRate, kAlpha, kBeta);
  common::Rng rng_b(22);
  std::uint64_t since = 0;
  for (int n = 0; n < kSamples;) {
    ++since;
    if (ref.fire(rng_b)) {
      per_cycle[bin_of(since)] += 1.0;
      since = 0;
      ++n;
    }
  }
  double chi2 = 0.0;
  int used = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    const double sum = sojourn[b] + per_cycle[b];
    if (sum == 0.0) continue;
    chi2 += (sojourn[b] - per_cycle[b]) * (sojourn[b] - per_cycle[b]) / sum;
    ++used;
  }
  EXPECT_LT(chi2, chi2_critical_999(used - 1));

  // From the OFF start the first arrival waits for the first ON cycle:
  // its mean exceeds the stationary mean gap. Compare the two samplers.
  constexpr int kStarts = 20000;
  double first_sojourn = 0.0, first_per_cycle = 0.0;
  for (int i = 0; i < kStarts; ++i) {
    InjectionProcess fresh = InjectionProcess::onoff(kRate, kAlpha, kBeta);
    first_sojourn += static_cast<double>(fresh.next_gap(rng_a));
    PerCycleOnOff fresh_ref(kRate, kAlpha, kBeta);
    std::uint64_t t = 1;
    while (!fresh_ref.fire(rng_b)) ++t;
    first_per_cycle += static_cast<double>(t);
  }
  EXPECT_NEAR(first_sojourn / first_per_cycle, 1.0, 0.03);
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

/// Per-node packet counts of a SyntheticTraffic run on a 4×4 mesh, one
/// vector entry per (window, node). The network is never stepped.
std::vector<int> synthetic_window_counts(const SyntheticTrafficParams& params, int windows,
                                         int window) {
  noc::NetworkConfig ncfg;
  ncfg.width = 4;
  ncfg.height = 4;
  noc::Network net(ncfg);
  SyntheticTraffic model(MeshTopology(4, 4), params);
  std::vector<int> counts;
  std::vector<std::uint64_t> before(16, 0);
  for (int w = 0, t = 0; w < windows; ++w) {
    for (int i = 0; i < window; ++i, ++t) model.node_tick(t * 1000, 0, net);
    for (NodeId node = 0; node < 16; ++node) {
      const std::uint64_t now = net.ni(node).packets_generated();
      counts.push_back(static_cast<int>(now - before[static_cast<std::size_t>(node)]));
      before[static_cast<std::size_t>(node)] = now;
    }
  }
  return counts;
}

TEST(SyntheticTraffic, HonoursProcessOnOff) {
  // process=onoff through the model, not only through InjectionProcess:
  // the long-run rate is lambda and the window counts are overdispersed.
  SyntheticTrafficParams params;
  params.lambda = 0.2;
  params.packet_size = 4;  // 0.05 packets per node cycle
  params.process = "onoff";
  const std::vector<int> onoff = synthetic_window_counts(params, 400, 100);
  params.process = "bernoulli";
  const std::vector<int> bern = synthetic_window_counts(params, 400, 100);
  const double onoff_packets = std::accumulate(onoff.begin(), onoff.end(), 0.0);
  EXPECT_NEAR(onoff_packets * params.packet_size / (16.0 * 400 * 100), 0.2, 0.01);
  EXPECT_NEAR(index_of_dispersion(bern), 0.95, 0.05);
  EXPECT_GT(index_of_dispersion(onoff), 2.0 * index_of_dispersion(bern));
}

TEST(SyntheticTraffic, SameCycleArrivalsEnqueueInAscendingNodeId) {
  noc::NetworkConfig ncfg;
  ncfg.width = 4;
  ncfg.height = 4;
  noc::Network net(ncfg);
  std::vector<NodeId> sources;
  net.set_injection_observer([&](noc::PacketId, NodeId src, NodeId, int, std::uint8_t) {
    sources.push_back(src);
  });
  SyntheticTrafficParams params;
  params.lambda = 2.0;
  params.packet_size = 4;  // half the nodes fire in a typical cycle
  SyntheticTraffic model(MeshTopology(4, 4), params);
  int multi = 0;
  for (int t = 0; t < 500; ++t) {
    sources.clear();
    model.node_tick(t * 1000, 0, net);
    EXPECT_TRUE(std::is_sorted(sources.begin(), sources.end())) << "tick " << t;
    EXPECT_EQ(std::adjacent_find(sources.begin(), sources.end()), sources.end());
    multi += sources.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(multi, 400);
}

TEST(SyntheticTraffic, ZeroAndFullLoad) {
  noc::NetworkConfig ncfg;
  ncfg.width = 2;
  ncfg.height = 2;
  noc::Network net(ncfg);
  SyntheticTrafficParams params;
  params.packet_size = 2;
  params.lambda = 0.0;
  SyntheticTraffic idle(MeshTopology(2, 2), params);
  params.lambda = 2.0;  // one packet per node cycle
  SyntheticTraffic full(MeshTopology(2, 2), params);
  for (int t = 0; t < 100; ++t) idle.node_tick(t * 1000, 0, net);
  EXPECT_EQ(net.total_flits_generated(), 0u);
  for (int t = 0; t < 100; ++t) full.node_tick(t * 1000, 0, net);
  for (NodeId node = 0; node < 4; ++node) EXPECT_EQ(net.ni(node).packets_generated(), 100u);
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

TEST(MatrixTraffic, PerSourceRatesFollowTheMatrix) {
  noc::NetworkConfig ncfg;
  ncfg.width = 2;
  ncfg.height = 2;
  noc::Network net(ncfg);
  // Packets per node cycle at a 1 GHz node clock: node 0 0.2, node 1
  // 0.01, node 2 silent, node 3 0.05 (split 1:4 over nodes 0 and 1).
  std::vector<std::vector<double>> rates(4, std::vector<double>(4, 0.0));
  rates[0][3] = 200e6;
  rates[1][2] = 10e6;
  rates[3][0] = 10e6;
  rates[3][1] = 40e6;
  MatrixTraffic model(rates, 1, 1e9, 7);
  std::vector<int> to_node(4, 0);
  net.set_injection_observer([&](noc::PacketId, NodeId src, NodeId dst, int, std::uint8_t) {
    if (src == 3) ++to_node[static_cast<std::size_t>(dst)];
  });
  constexpr int kTicks = 200000;
  for (int t = 0; t < kTicks; ++t) model.node_tick(t * 1000, 0, net);
  const auto rate = [&](NodeId n) {
    return static_cast<double>(net.ni(n).packets_generated()) / kTicks;
  };
  EXPECT_NEAR(rate(0), 0.2, 0.004);
  EXPECT_NEAR(rate(1), 0.01, 0.001);
  EXPECT_EQ(net.ni(2).packets_generated(), 0u);
  EXPECT_NEAR(rate(3), 0.05, 0.002);
  EXPECT_NEAR(static_cast<double>(to_node[1]) / (to_node[0] + to_node[1]), 0.8, 0.02);
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

// --------------------------------------------------- arrival calendar ----

TEST(ArrivalCalendar, PopsDueNodesInAscendingIdOnItsOwnTicks) {
  ArrivalCalendar cal;
  // Scheduled out of order; node 9 twice as far out.
  cal.schedule(7, 2);
  cal.schedule(3, 2);
  cal.schedule(9, 4);
  cal.schedule(5, 2);
  cal.schedule(1, kNever);  // rate 0: never enters the calendar
  EXPECT_TRUE(cal.pop_due().empty());  // tick 1
  EXPECT_EQ(cal.pop_due(), (std::vector<NodeId>{3, 5, 7}));  // tick 2
  EXPECT_EQ(cal.tick(), 2u);
  cal.schedule(3, 1);  // relative to tick 2: due at tick 3
  cal.schedule(0, 2);  // due at tick 4, with node 9
  EXPECT_EQ(cal.pop_due(), (std::vector<NodeId>{3}));
  EXPECT_EQ(cal.pop_due(), (std::vector<NodeId>{0, 9}));
  for (int t = 0; t < 1000; ++t) EXPECT_TRUE(cal.pop_due().empty());
  EXPECT_THROW(cal.schedule(2, 0), common::InvariantViolation);
}

}  // namespace
}  // namespace nocdvfs::traffic
