// Voltage–frequency island tests: partition presets and validation through
// a built network, the clock-domain-crossing FIFO, per-island
// control/measurement/energy attribution through whole-simulator runs,
// per-island policy overrides, sweep pre-validation messages, and
// serial-vs-parallel determinism of island sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "noc/channel.hpp"
#include "noc/network.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "vfi/island_map.hpp"
#include "vfi/residency.hpp"

namespace nocdvfs {
namespace {

// ---------------------------------------------------------------------------
// Island partition: vfi::island_assignment builds it, noc::Network checks
// and owns it
// ---------------------------------------------------------------------------

/// A width×height network of `kind` partitioned by `preset`.
std::unique_ptr<noc::Network> partitioned(
    vfi::Preset preset, int width, int height, const std::string& custom_map = "",
    topo::TopologyKind kind = topo::TopologyKind::Mesh) {
  noc::NetworkConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.topology = kind;
  cfg.island_of = vfi::island_assignment(preset, width, height, custom_map);
  return std::make_unique<noc::Network>(cfg);
}

/// The message `fn` throws as std::invalid_argument, or "" if it returns.
template <class Fn>
std::string invalid_argument_of(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(IslandPartition, PresetShapes) {
  const auto global = partitioned(vfi::Preset::Global, 5, 5);
  EXPECT_EQ(global->num_islands(), 1);
  EXPECT_EQ(global->island_members(0).size(), 25u);
  EXPECT_EQ(global->num_boundary_links(), 0);

  const auto rows = partitioned(vfi::Preset::Rows, 4, 3);
  EXPECT_EQ(rows->num_islands(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rows->island_members(i).size(), 4u);
  EXPECT_EQ(rows->island_of(0), 0);
  EXPECT_EQ(rows->island_of(11), 2);

  const auto cols = partitioned(vfi::Preset::Cols, 4, 3);
  EXPECT_EQ(cols->num_islands(), 4);
  EXPECT_EQ(cols->island_of(5), 1);  // node (x=1, y=1)

  const auto per_router = partitioned(vfi::Preset::PerRouter, 3, 3);
  EXPECT_EQ(per_router->num_islands(), 9);
  // Every inter-router link crosses a boundary.
  EXPECT_EQ(per_router->num_boundary_links(), 24);
}

TEST(IslandPartition, PerRouterTorusCrossesEveryWrapLinkToo) {
  // 9 routers with 4 directed links each: the wrap-around links cross too,
  // which a mesh-only count (24) would miss.
  const auto net = partitioned(vfi::Preset::PerRouter, 3, 3, "", topo::TopologyKind::Torus);
  EXPECT_EQ(net->num_islands(), 9);
  EXPECT_EQ(net->link_table().size(), 36u);
  EXPECT_EQ(net->num_boundary_links(), 36);
}

TEST(IslandPartition, QuadrantsSplitOddMeshesLowHeavy) {
  const auto q = partitioned(vfi::Preset::Quadrants, 5, 5);
  EXPECT_EQ(q->num_islands(), 4);
  EXPECT_EQ(q->island_members(0).size(), 9u);  // 3x3 low-x/low-y quadrant
  EXPECT_EQ(q->island_members(1).size(), 6u);  // 2x3
  EXPECT_EQ(q->island_members(2).size(), 6u);  // 3x2
  EXPECT_EQ(q->island_members(3).size(), 4u);  // 2x2
  EXPECT_EQ(q->island_of(0), 0);
  EXPECT_EQ(q->island_of(4), 1);   // (4,0)
  EXPECT_EQ(q->island_of(20), 2);  // (0,4)
  EXPECT_EQ(q->island_of(24), 3);  // (4,4)
}

TEST(IslandPartition, CustomMapParsesAndValidates) {
  const auto m = partitioned(vfi::Preset::Custom, 2, 2, "0, 0,1,1");
  EXPECT_EQ(m->num_islands(), 2);
  EXPECT_EQ(m->island_members(1), (std::vector<noc::NodeId>{2, 3}));
  EXPECT_EQ(m->num_boundary_links(), 4);

  // Missing map, wrong size, non-contiguous ids, junk entries.
  const auto custom = [](const char* map) { partitioned(vfi::Preset::Custom, 2, 2, map); };
  EXPECT_NE(invalid_argument_of([&] { custom(""); }).find("island_map"), std::string::npos);
  const std::string short_map = invalid_argument_of([&] { custom("0,1,0"); });
  EXPECT_NE(short_map.find("3 entries"), std::string::npos) << short_map;
  EXPECT_NE(short_map.find("4 nodes"), std::string::npos) << short_map;
  EXPECT_NE(invalid_argument_of([&] { custom("0,0,2,2"); }).find("must be contiguous"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([&] { custom("0,0,1,x"); }).find("island_map"),
            std::string::npos);
  EXPECT_THROW(vfi::island_assignment(vfi::Preset::Quadrants, 1, 5), std::invalid_argument);
  EXPECT_THROW(vfi::preset_from_string("diagonal"), std::invalid_argument);
}

TEST(IslandPartition, OutOfRangeIdsNameTheIdAndTheNodeCount) {
  // Through the scenario check: the id is bounded before anything is sized,
  // so neither a huge allocation nor max_id + 1 overflow happens.
  sim::Scenario s;
  s.network.width = 2;
  s.network.height = 1;
  s.islands = "custom";
  s.island_map = "0,2147483647";
  const std::string via_scenario = sim::scenario_problem(s);
  EXPECT_NE(via_scenario.find("2147483647"), std::string::npos) << via_scenario;
  EXPECT_NE(via_scenario.find("2 nodes"), std::string::npos) << via_scenario;

  // Through the network itself.
  noc::NetworkConfig cfg;
  cfg.width = 2;
  cfg.height = 1;
  cfg.island_of = {0, 5};
  const std::string via_network = invalid_argument_of([&] { noc::Network net(cfg); });
  EXPECT_NE(via_network.find("island id 5"), std::string::npos) << via_network;
  EXPECT_NE(via_network.find("2 nodes"), std::string::npos) << via_network;
}

// ---------------------------------------------------------------------------
// CDC fifo (noc::Channel::cdc_fifo)
// ---------------------------------------------------------------------------

// The fifo reads its reader's cycle counter; each test owns that counter
// and advances it by hand.

TEST(CdcFifo, DeliversAfterReadyDelayReaderTicks) {
  std::uint64_t reader_clock = 0;
  auto fifo = noc::Channel<int>::cdc_fifo(/*ready_delay=*/3, /*capacity=*/8, &reader_clock);
  fifo.push(42);
  for (int tick = 1; tick <= 2; ++tick) {
    ++reader_clock;
    EXPECT_FALSE(fifo.pop().has_value()) << "tick " << tick;
  }
  ++reader_clock;  // third reader tick: the synchronizer has settled
  const auto out = fifo.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 42);
  EXPECT_EQ(fifo.in_flight(), 0u);
}

TEST(CdcFifo, MultiplePushesBetweenTicksKeepFifoOrderOnePopPerTick) {
  std::uint64_t reader_clock = 0;
  auto fifo = noc::Channel<int>::cdc_fifo(1, 8, &reader_clock);
  // A fast writer lands three items between two reader ticks.
  fifo.push(1);
  fifo.push(2);
  fifo.push(3);
  std::vector<int> got;
  for (int tick = 0; tick < 5; ++tick) {
    ++reader_clock;
    auto v = fifo.pop();
    if (v) got.push_back(*v);
    // Single-flit link bandwidth: a second pop in the same tick is empty.
    EXPECT_FALSE(fifo.pop().has_value());
  }
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(CdcFifo, PendingBitClearsOnlyWhenEmpty) {
  std::uint64_t reader_clock = 0;
  std::uint64_t mask = 0;
  auto fifo = noc::Channel<int>::cdc_fifo(1, 8, &reader_clock);
  fifo.set_reader_bit(&mask, 2);
  fifo.push(1);
  fifo.push(2);
  EXPECT_EQ(mask, 0b100u);
  ++reader_clock;
  ASSERT_EQ(fifo.pop().value_or(-1), 1);
  EXPECT_EQ(mask, 0b100u) << "one item still queued";
  ++reader_clock;
  ASSERT_EQ(fifo.pop().value_or(-1), 2);
  EXPECT_EQ(mask, 0u);
}

TEST(CdcFifo, Validation) {
  std::uint64_t reader_clock = 0;
  EXPECT_THROW(noc::Channel<int>::cdc_fifo(0, 8, &reader_clock), std::invalid_argument);
  EXPECT_THROW(noc::Channel<int>::cdc_fifo(1, 0, &reader_clock), std::invalid_argument);
  EXPECT_THROW(noc::Channel<int>::cdc_fifo(1, 8, nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Whole-simulator island runs
// ---------------------------------------------------------------------------

sim::Scenario tiny_vfi() {
  sim::Scenario s;
  s.network.width = 4;
  s.network.height = 4;
  s.packet_size = 4;
  s.pattern = "hotspot";
  s.lambda = 0.08;
  s.seed = 11;
  s.control_period = 2000;
  s.phases.warmup_node_cycles = 6000;
  s.phases.measure_node_cycles = 8000;
  s.phases.adaptive_warmup = false;
  return s;
}

TEST(VfiRun, GlobalIslandIsTheDefaultPathAndCdcKeyIsInert) {
  // With one island there are no boundaries, so the synchronizer penalty
  // must have no effect on any metric.
  sim::Scenario a = tiny_vfi();
  sim::Scenario b = tiny_vfi();
  b.islands = "global";
  b.network.cdc_sync_cycles = 9;
  const auto ra = sim::run(a);
  const auto rb = sim::run(b);
  EXPECT_EQ(ra.packets_delivered, rb.packets_delivered);
  EXPECT_DOUBLE_EQ(ra.avg_delay_ns, rb.avg_delay_ns);
  EXPECT_DOUBLE_EQ(ra.power.total_j(), rb.power.total_j());
  EXPECT_DOUBLE_EQ(ra.avg_frequency_hz, rb.avg_frequency_hz);
  ASSERT_EQ(ra.islands.size(), 1u);
  // The single island's slice coincides with the global fields.
  EXPECT_EQ(ra.islands[0].packets_delivered, ra.packets_delivered);
  EXPECT_DOUBLE_EQ(ra.islands[0].avg_frequency_hz, ra.avg_frequency_hz);
  EXPECT_DOUBLE_EQ(ra.islands[0].power.total_j(), ra.power.total_j());
  EXPECT_EQ(ra.islands[0].measure_noc_cycles, ra.measure_noc_cycles);
}

TEST(VfiRun, QuadrantRunAttributesEnergyAndCoversResidency) {
  sim::Scenario s = tiny_vfi();
  s.islands = "quadrants";
  s.policy.policy = sim::Policy::Rmsd;
  s.policy.lambda_max = 0.25;
  const auto r = sim::run(s);
  ASSERT_EQ(r.islands.size(), 4u);

  // Island energies sum exactly to the run total (they ARE the total).
  double datapath = 0.0, clock = 0.0, leak = 0.0;
  std::uint64_t packets = 0;
  for (const auto& isl : r.islands) {
    datapath += isl.power.datapath_j;
    clock += isl.power.clock_j;
    leak += isl.power.leakage_j;
    packets += isl.packets_delivered;
    // Residency covers the whole measurement window on every island.
    common::Picoseconds dwell = 0;
    for (const auto& level : isl.freq_residency) dwell += level.dwell_ps;
    EXPECT_EQ(dwell, r.measure_duration_ps) << "island " << isl.island;
    EXPECT_EQ(isl.nodes, 4);
    EXPECT_EQ(isl.policy, "rmsd");
  }
  EXPECT_DOUBLE_EQ(datapath, r.power.datapath_j);
  EXPECT_DOUBLE_EQ(clock, r.power.clock_j);
  EXPECT_DOUBLE_EQ(leak, r.power.leakage_j);
  EXPECT_EQ(packets, r.packets_delivered);
  EXPECT_GT(r.packets_delivered, 0u);
}

TEST(VfiRun, HotspotIslandsDivergeUnderLocalControl) {
  // Distributed control senses only local state: the quadrant hosting the
  // hotspot (node 0) queues far more traffic than it generates, while the
  // remote quadrants see nearly empty buffers and idle down — so the
  // actuated frequencies and (V, F) traces must diverge across islands.
  sim::Scenario s = tiny_vfi();
  s.islands = "quadrants";
  s.policy.policy = sim::Policy::Qbsd;
  s.phases.warmup_node_cycles = 20000;
  const auto r = sim::run(s);
  ASSERT_EQ(r.islands.size(), 4u);
  std::set<std::uint64_t> trace_lengths;
  double f_lo = 1e30, f_hi = 0.0;
  for (const auto& isl : r.islands) {
    f_lo = std::min(f_lo, isl.avg_frequency_hz);
    f_hi = std::max(f_hi, isl.avg_frequency_hz);
    trace_lengths.insert(isl.vf_trace.size());
  }
  // > 1% spread between the hottest and coolest island.
  EXPECT_GT(f_hi - f_lo, 0.01 * f_hi);
  // And the actuation traces are not all the same trajectory.
  bool traces_differ = trace_lengths.size() > 1;
  if (!traces_differ) {
    for (std::size_t i = 1; i < r.islands.size() && !traces_differ; ++i) {
      const auto& a = r.islands[0].vf_trace;
      const auto& b = r.islands[i].vf_trace;
      for (std::size_t p = 0; p < a.size(); ++p) {
        if (a[p].f != b[p].f) {
          traces_differ = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(traces_differ);
}

TEST(VfiRun, MultiIslandRunPopulatesGlobalVfTraceWithIsland0) {
  // Convention (documented on RunResult::vf_trace): multi-island runs fill
  // the global actuation trace with *island 0's* trace — the same domain
  // the global cycle-denominated metrics are counted in. It used to stay
  // silently empty.
  sim::Scenario s = tiny_vfi();
  s.islands = "quadrants";
  s.policy.policy = sim::Policy::Rmsd;
  s.policy.lambda_max = 0.25;
  const auto r = sim::run(s);
  ASSERT_EQ(r.islands.size(), 4u);

  // RMSD retunes away from f_max on the first update, so the trace is
  // non-empty for every island — and the global one mirrors island 0's.
  ASSERT_FALSE(r.islands[0].vf_trace.empty());
  ASSERT_EQ(r.vf_trace.size(), r.islands[0].vf_trace.size());
  for (std::size_t i = 0; i < r.vf_trace.size(); ++i) {
    EXPECT_EQ(r.vf_trace[i].t, r.islands[0].vf_trace[i].t);
    EXPECT_DOUBLE_EQ(r.vf_trace[i].f, r.islands[0].vf_trace[i].f);
    EXPECT_DOUBLE_EQ(r.vf_trace[i].vdd, r.islands[0].vf_trace[i].vdd);
  }
  // And it is genuinely island 0's, not a copy of another island's: the
  // quadrants diverge under the hotspot load, so at least one other island
  // has a different trace.
  bool any_differs = false;
  for (std::size_t i = 1; i < r.islands.size(); ++i) {
    const auto& other = r.islands[i].vf_trace;
    if (other.size() != r.vf_trace.size()) {
      any_differs = true;
      continue;
    }
    for (std::size_t p = 0; p < other.size(); ++p) {
      if (other[p].f != r.vf_trace[p].f) any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(VfiRun, CdcSynchronizerPenaltyRaisesCrossIslandDelay) {
  // Transpose traffic on a column partition: every packet crosses at
  // least one boundary, so raising cdc_sync_cycles must raise delay.
  sim::Scenario s = tiny_vfi();
  s.pattern = "transpose";
  s.islands = "cols";
  s.policy.policy = sim::Policy::NoDvfs;  // fixed clocks isolate the CDC cost
  s.network.cdc_sync_cycles = 0;
  const auto cheap = sim::run(s);
  s.network.cdc_sync_cycles = 6;
  const auto dear = sim::run(s);
  EXPECT_GT(cheap.packets_delivered, 0u);
  EXPECT_GT(dear.avg_delay_ns, cheap.avg_delay_ns);
}

TEST(VfiRun, PerIslandPolicyOverrides) {
  sim::Scenario s = tiny_vfi();
  s.islands = "quadrants";
  s.island_policies = "nodvfs,rmsd,dmsd,qbsd";
  s.policy.lambda_max = 0.25;
  s.policy.target_delay_ns = 80.0;
  const auto r = sim::run(s);
  ASSERT_EQ(r.islands.size(), 4u);
  EXPECT_EQ(r.islands[0].policy, "nodvfs");
  EXPECT_EQ(r.islands[1].policy, "rmsd");
  EXPECT_EQ(r.islands[2].policy, "dmsd");
  EXPECT_EQ(r.islands[3].policy, "qbsd");
  // The No-DVFS island never leaves the top of the range.
  EXPECT_DOUBLE_EQ(r.islands[0].final_frequency_hz, 1e9);
  ASSERT_EQ(r.islands[0].freq_residency.size(), 1u);
}

TEST(VfiRun, ScenarioValidationNamesTheProblem) {
  sim::Scenario s = tiny_vfi();
  s.islands = "custom";
  EXPECT_THROW(
      try { sim::run(s); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("island_map"), std::string::npos);
        throw;
      },
      std::invalid_argument);

  s.islands = "quadrants";
  s.island_policies = "rmsd,dmsd";  // 2 entries for 4 islands
  EXPECT_THROW(
      try { sim::run(s); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("island_policies"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find('4'), std::string::npos);
        throw;
      },
      std::invalid_argument);

  sim::Scenario ok = tiny_vfi();
  ok.islands = "rows";
  ok.island_policies = "";
  EXPECT_TRUE(sim::scenario_problem(ok).empty());
}

// ---------------------------------------------------------------------------
// Sweep integration
// ---------------------------------------------------------------------------

TEST(VfiSweep, PreValidationNamesPointAxisAndGroup) {
  sim::SweepRunner runner;
  const auto axes = std::vector<sim::SweepAxis>{
      sim::SweepAxis::islands({"global", "custom"})};
  try {
    runner.run(tiny_vfi(), axes, "vfi-check");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("point #1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("islands=custom"), std::string::npos) << msg;
    EXPECT_NE(msg.find("vfi-check"), std::string::npos) << msg;
    EXPECT_NE(msg.find("island_map"), std::string::npos) << msg;
  }

  // Map-size/mesh mismatch is caught before any worker starts.
  sim::Scenario bad = tiny_vfi();
  bad.islands = "custom";
  bad.island_map = "0,0,1,1";  // 4 entries for a 16-node mesh
  try {
    runner.run(bad, {}, "");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("4 entries"), std::string::npos) << msg;
    EXPECT_NE(msg.find("16"), std::string::npos) << msg;
  }

  // Per-island policy list of the wrong length, via an axis label.
  sim::Scenario wrong = tiny_vfi();
  wrong.islands = "quadrants";
  wrong.island_policies = "rmsd";
  try {
    runner.run(wrong, {sim::SweepAxis::seeds(2)}, "policies");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("island_policies"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("seed=1"), std::string::npos) << e.what();
  }
}

TEST(VfiSweep, SerialAndFourThreadIslandSweepsAreBitIdentical) {
  const auto axes = std::vector<sim::SweepAxis>{
      sim::SweepAxis::islands({"global", "quadrants", "per_router"}),
      sim::SweepAxis::seeds(2, 3)};
  sim::Scenario base = tiny_vfi();
  base.policy.policy = sim::Policy::Dmsd;
  base.policy.target_delay_ns = 70.0;

  sim::SweepRunner serial(sim::SweepRunner::Options{.threads = 1});
  sim::SweepRunner pooled(sim::SweepRunner::Options{.threads = 4});
  const auto a = serial.run(base, axes, "serial");
  const auto b = pooled.run(base, axes, "pooled");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sim::RunResult& ra = a[i].result;
    const sim::RunResult& rb = b[i].result;
    ASSERT_EQ(ra.packets_delivered, rb.packets_delivered);
    ASSERT_EQ(ra.avg_delay_ns, rb.avg_delay_ns);
    ASSERT_EQ(ra.power.total_j(), rb.power.total_j());
    ASSERT_EQ(ra.islands.size(), rb.islands.size());
    for (std::size_t k = 0; k < ra.islands.size(); ++k) {
      ASSERT_EQ(ra.islands[k].avg_frequency_hz, rb.islands[k].avg_frequency_hz);
      ASSERT_EQ(ra.islands[k].power.total_j(), rb.islands[k].power.total_j());
      ASSERT_EQ(ra.islands[k].vf_trace.size(), rb.islands[k].vf_trace.size());
    }
  }
}

TEST(VfiSweep, CsvCarriesPerIslandResidencyColumns) {
  std::ostringstream csv;
  sim::CsvResultSink sink(csv);
  sim::SweepRunner runner(sim::SweepRunner::Options{.threads = 1});
  runner.add_sink(sink);
  sim::Scenario s = tiny_vfi();
  s.islands = "quadrants";
  runner.run(s, {}, "res");
  const std::string text = csv.str();
  EXPECT_NE(text.find("islands,num_islands,freq_residency,island_power_mw"),
            std::string::npos);
  EXPECT_NE(text.find("quadrants,4,"), std::string::npos);
  EXPECT_NE(text.find("i3="), std::string::npos);
  EXPECT_NE(text.find("MHz:"), std::string::npos);
}

}  // namespace
}  // namespace nocdvfs
