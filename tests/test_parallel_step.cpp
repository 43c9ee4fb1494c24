// Parallel island step: a run on 1, 2, 3 or 4 forced step workers must be
// bit-identical to the serial run on every axis the simulator has
// (islands, thermal, topologies, routings, faults, stall tracking, trace
// replay, request–reply, the flight recorder), and the merge rules the
// step relies on (worker-order deliveries, one admission per woken tile,
// the sweep's CPU budget) hold at their edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "obs/timeline.hpp"
#include "sim/result_schema.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "traffic/request_reply.hpp"

namespace nocdvfs {
namespace {

namespace fs = std::filesystem;

/// Every simulated value of a run: the schema's config and metric columns
/// with doubles in hexfloat, then the JSONL row (island results, window
/// and VF traces, latency slices, hot tiles and links) with the host
/// columns, which vary between identical runs, removed.
std::string fingerprint(const sim::RunResult& r) {
  const sim::SweepRecord rec{"", sim::SweepPoint{}, r};
  std::ostringstream os;
  os << std::hexfloat;
  for (const sim::ResultField& f : sim::result_schema()) {
    if (f.cls != sim::FieldClass::Metric && f.cls != sim::FieldClass::Config) continue;
    os << f.name << '=';
    std::visit(
        [&os](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, const obs::RunManifest*>) {
            os << "manifest";
          } else {
            os << v;
          }
        },
        f.get(rec));
    os << ' ';
  }
  std::ostringstream row;
  sim::JsonlResultSink sink(row);
  sink.on_result(rec);
  static const std::regex kHost(
      R"re("(host_wall_s|peak_rss_mb)":[^,}]*,?|"manifest":\{[^}]*\},?)re");
  os << '\n' << std::regex_replace(row.str(), kHost, "");
  return os.str();
}

/// The manifest count `key` of a run (every run's host plug-in writes the
/// noc.step_workers / parallel_steps / serial_steps entries).
std::uint64_t manifest_count(const sim::RunResult& r, const std::string& key) {
  const std::string* v = r.manifest.find(key);
  EXPECT_NE(v, nullptr) << key;
  return v == nullptr ? 0 : std::stoull(*v);
}

sim::Scenario small_phases(sim::Scenario s) {
  s.seed = 3;
  s.control_period = 1000;
  s.phases.adaptive_warmup = false;
  s.phases.warmup_node_cycles = 2000;
  s.phases.measure_node_cycles = 3000;
  return s;
}

sim::Scenario mesh(int k, double lambda) {
  sim::Scenario s;
  s.network.width = k;
  s.network.height = k;
  s.lambda = lambda;
  s.packet_size = 8;
  return small_phases(s);
}

/// Runs `s` serially and on 2, 3 and 4 forced workers with one awake tile
/// per worker (so every step with two or more awake tiles is parallel), and
/// requires the same fingerprint each time. Returns the serial result.
sim::RunResult expect_worker_invariant(sim::Scenario s) {
  s.network.step.tiles_per_worker = 1;
  s.network.step.workers = 1;
  const sim::RunResult serial = sim::run(s);
  EXPECT_EQ(manifest_count(serial, "noc.parallel_steps"), 0u);
  EXPECT_GT(serial.packets_delivered, 0u);
  const std::string want = fingerprint(serial);
  for (const int workers : {2, 3, 4}) {
    s.network.step.workers = workers;
    const sim::RunResult r = sim::run(s);
    EXPECT_EQ(manifest_count(r, "noc.step_workers"), static_cast<std::uint64_t>(workers));
    EXPECT_GT(manifest_count(r, "noc.parallel_steps"), 0u) << workers << " workers";
    EXPECT_EQ(fingerprint(r), want) << workers << " workers diverged from serial";
  }
  return serial;
}

TEST(ParallelStep, QuadrantsDmsdThermal16x16) {
  sim::Scenario s = mesh(16, 0.05);
  s.islands = "quadrants";
  s.policy.policy = sim::Policy::Dmsd;
  s.policy.target_delay_ns = 150.0;
  s.thermal = true;
  expect_worker_invariant(s);
}

TEST(ParallelStep, GlobalIsland32x32) {
  sim::Scenario s = mesh(32, 0.02);
  s.policy.policy = sim::Policy::Rmsd;
  s.phases.warmup_node_cycles = 1000;
  s.phases.measure_node_cycles = 1500;
  expect_worker_invariant(s);
}

TEST(ParallelStep, SkipIdleOffStepsEveryTileInParallel) {
  sim::Scenario s = mesh(8, 0.1);
  s.islands = "quadrants";
  s.network.skip_idle = false;
  expect_worker_invariant(s);
}

TEST(ParallelStep, Topologies) {
  sim::Scenario torus = mesh(8, 0.1);
  torus.network.topology = topo::TopologyKind::Torus;
  expect_worker_invariant(torus);

  sim::Scenario cmesh = mesh(8, 0.1);
  cmesh.network.topology = topo::TopologyKind::Cmesh;
  cmesh.network.concentration = 4;
  expect_worker_invariant(cmesh);

  sim::Scenario dragonfly = mesh(6, 0.1);
  dragonfly.network.height = 4;
  dragonfly.network.topology = topo::TopologyKind::Dragonfly;
  dragonfly.network.concentration = 2;
  expect_worker_invariant(dragonfly);
}

TEST(ParallelStep, AdaptiveAndUgalRouting) {
  sim::Scenario adaptive = mesh(8, 0.2);
  adaptive.pattern = "transpose";
  adaptive.network.routing = noc::RoutingAlgo::Adaptive;
  expect_worker_invariant(adaptive);

  sim::Scenario ugal = mesh(8, 0.2);
  ugal.pattern = "transpose";
  ugal.network.topology = topo::TopologyKind::Torus;
  ugal.network.routing = noc::RoutingAlgo::Ugal;
  expect_worker_invariant(ugal);
}

TEST(ParallelStep, LinkAndRouterFaults) {
  sim::Scenario s = mesh(8, 0.1);
  s.network.topology = topo::TopologyKind::Torus;
  s.network.faults = "links:2@0+routers:1@5000";
  s.phases.measure_node_cycles = 6000;  // past the router failure at cycle 5000
  const sim::RunResult r = expect_worker_invariant(s);
  EXPECT_EQ(r.failed_routers, 1);
}

TEST(ParallelStep, StallTrackingOn) {
  // Any telemetry mode switches every router onto the stall taxonomy.
  sim::Scenario s = mesh(8, 0.15);
  s.islands = "quadrants";
  s.telemetry = "windows";
  const sim::RunResult r = expect_worker_invariant(s);
  EXPECT_GT(r.telemetry.busy_vc_cycles, 0u);
}

TEST(ParallelStep, TraceReplay) {
  const std::string path =
      (fs::temp_directory_path() / "nocdvfs_test_parallel_step.noctrace").string();
  sim::Scenario rec = mesh(8, 0.1);
  rec.record_path = path;
  sim::run(rec);
  sim::Scenario replay = rec;
  replay.record_path.clear();
  replay.workload = sim::Scenario::Workload::Trace;
  replay.trace_path = path;
  expect_worker_invariant(replay);
  fs::remove(path);
}

TEST(ParallelStep, RequestReply) {
  sim::Scenario s = mesh(8, 0.1);
  s.workload = sim::Scenario::Workload::Custom;
  s.traffic_factory = [](const sim::Scenario& sc) -> std::unique_ptr<traffic::TrafficModel> {
    noc::MeshTopology topo(sc.network.width, sc.network.height);
    traffic::RequestReplyParams rr;
    rr.request_rate = 0.02;
    rr.seed = sc.seed;
    return std::make_unique<traffic::RequestReplyTraffic>(topo, rr);
  };
  const sim::RunResult r = expect_worker_invariant(s);
  EXPECT_GT(r.class1_packets, 0u);
}

TEST(ParallelStep, OversubscribedHostStaysBitIdentical) {
  // Three runs of four workers each at once: more threads than most hosts
  // have CPUs, so helpers are descheduled mid-step, their chunks are taken
  // by other workers, and some wake after their step has ended.
  sim::Scenario s = mesh(8, 0.15);
  s.islands = "quadrants";
  s.network.step.tiles_per_worker = 1;
  s.network.step.workers = 1;
  const std::string want = fingerprint(sim::run(s));
  s.network.step.workers = 4;
  std::vector<std::string> got(3);
  std::vector<std::thread> runs;
  for (std::size_t i = 0; i < got.size(); ++i) {
    runs.emplace_back([&s, &got, i] { got[i] = fingerprint(sim::run(s)); });
  }
  for (std::thread& t : runs) t.join();
  for (const std::string& g : got) EXPECT_EQ(g, want);
}

/// prof=on gives every step worker a host worker track: its parallel
/// steps and busy time, carried into the exported .nocobs.
TEST(ParallelStep, ProfOnGivesEachStepWorkerATrack) {
  sim::Scenario s = mesh(8, 0.1);
  s.network.step.workers = 3;
  s.network.step.tiles_per_worker = 1;
  s.prof = "on";
  s.telemetry = "windows";
  const std::string base = (fs::temp_directory_path() / "nocdvfs_test_step_tracks").string();
  s.telemetry_out = base;
  const sim::RunResult r = sim::run(s);
  const std::uint64_t parallel = manifest_count(r, "noc.parallel_steps");
  ASSERT_EQ(r.host.step_workers.size(), 3u);
  // Chunks are claimed, so which worker ran how many steps depends on the
  // host's scheduling; every worker ran at most every parallel step, and
  // the helpers took part.
  std::uint64_t helper_steps = 0;
  for (const obs::HostWorkerStats& w : r.host.step_workers) {
    EXPECT_LE(w.points, parallel) << "worker " << w.worker;
    if (w.worker > 0) helper_steps += w.points;
  }
  EXPECT_GT(r.host.step_workers[0].busy_ns, 0u);
  EXPECT_GT(helper_steps, 0u);
  const obs::Timeline tl = obs::read_timeline_binary(base + ".nocobs");
  ASSERT_EQ(tl.host_workers.size(), 3u);
  EXPECT_TRUE(tl.host_spans.empty());
  EXPECT_GT(tl.host_worker_span_ns(), tl.host_workers[0].busy_ns);
  fs::remove(base + ".nocobs");
  fs::remove(base + ".json");

  s.prof = "off";  // off mode reads no clock and carries no tracks
  s.telemetry = "off";
  EXPECT_TRUE(sim::run(s).host.step_workers.empty());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The flight recorder's clock and event log are shared, so a recorded run
/// steps serially on any worker count: its simulated `.nocobs` sections
/// are byte-identical and no step runs on the pool.
TEST(ParallelStep, FlightRecorderRunsSerialWithIdenticalTimeline) {
  sim::Scenario s = mesh(8, 0.15);
  s.telemetry = "full";
  s.pkt_trace = "on";
  s.pkt_trace_rate = 4;
  s.network.step.tiles_per_worker = 1;
  const std::string base = (fs::temp_directory_path() / "nocdvfs_test_parallel_step").string();
  s.telemetry_out = base;
  std::string want;
  for (const int workers : {1, 2, 3, 4}) {
    s.network.step.workers = workers;
    const sim::RunResult r = sim::run(s);
    EXPECT_EQ(manifest_count(r, "noc.parallel_steps"), 0u);
    obs::Timeline tl = obs::read_timeline_binary(base + ".nocobs");
    ASSERT_FALSE(tl.flights.empty());
    // Host sections (wall time, manifest) differ between any two runs.
    tl.manifest.clear();
    tl.host_phases.clear();
    tl.host_spans.clear();
    tl.host_workers.clear();
    obs::write_timeline_binary(tl, base + ".sim.nocobs");
    const std::string bytes = slurp(base + ".sim.nocobs");
    if (workers == 1) {
      want = bytes;
    } else {
      EXPECT_EQ(bytes, want) << workers << " workers changed the .nocobs";
    }
  }
  fs::remove(base + ".nocobs");
  fs::remove(base + ".json");
  fs::remove(base + ".sim.nocobs");
}

/// Steps driven by hand on one island: deliveries, activity lists and the
/// cached buffered-flit sum must match a serial twin cycle by cycle.
struct Twins {
  Twins(int k, int workers) {
    noc::NetworkConfig cfg;
    cfg.width = k;
    cfg.height = k;
    cfg.step.workers = 1;
    serial = std::make_unique<noc::Network>(cfg);
    cfg.step.workers = workers;
    cfg.step.tiles_per_worker = 1;
    parallel = std::make_unique<noc::Network>(cfg);
  }

  void enqueue(noc::NodeId src, noc::NodeId dst, int flits) {
    for (noc::Network* net : {serial.get(), parallel.get()}) {
      net->ni(src).enqueue_packet(dst, flits, net->cycle() * 1000, net->cycle());
    }
  }

  void step_and_compare() {
    for (noc::Network* net : {serial.get(), parallel.get()}) {
      net->step_island(0, (net->cycle() + 1) * 1000);
    }
    ASSERT_EQ(parallel->island_active_nodes(0), serial->island_active_nodes(0));
    ASSERT_EQ(parallel->island_buffered_flits_now(0), serial->island_buffered_flits_now(0));
    ASSERT_EQ(parallel->island_buffered_flits_now(0), parallel->buffered_flits_now());
    ASSERT_EQ(parallel->delivered().size(), serial->delivered().size());
    for (std::size_t i = 0; i < serial->delivered().size(); ++i) {
      ASSERT_EQ(parallel->delivered()[i].packet_id, serial->delivered()[i].packet_id);
      ASSERT_EQ(parallel->delivered()[i].eject_noc_cycle, serial->delivered()[i].eject_noc_cycle);
    }
  }

  std::unique_ptr<noc::Network> serial;
  std::unique_ptr<noc::Network> parallel;
};

TEST(ParallelStep, FewerAwakeTilesThanWorkers) {
  // Every tile starts awake, so the first steps use all four workers. Once
  // they are parked, one packet corner to corner keeps one to three tiles
  // awake: a step uses one worker per awake tile at most, so worker 3 runs
  // no further step, and the last steps have no awake tile.
  Twins t(4, 4);
  t.parallel->set_step_timing(true);
  for (int c = 0; c < 5; ++c) t.step_and_compare();
  ASSERT_EQ(t.parallel->island_active_nodes(0), 0);
  const std::vector<obs::HostWorkerStats> parked = t.parallel->step_worker_stats();
  ASSERT_EQ(parked.size(), 4u);  // the pool started
  const std::uint64_t parallel_parked = t.parallel->parallel_steps();
  t.enqueue(0, 15, 3);
  for (int c = 0; c < 60; ++c) t.step_and_compare();
  EXPECT_EQ(t.parallel->delivered().size(), 1u);
  EXPECT_EQ(t.parallel->island_active_nodes(0), 0);
  EXPECT_GT(t.parallel->parallel_steps(), parallel_parked);
  EXPECT_EQ(t.parallel->step_worker_stats()[3].points, parked[3].points);
  EXPECT_TRUE(t.serial->step_worker_stats().empty());
}

TEST(ParallelStep, StepUsesOneWorkerPerTilesPerWorker) {
  // A step with n awake tiles runs on min(workers, n / tiles_per_worker)
  // workers, serially below two. Traffic from a moving band of sources
  // sweeps the awake count across every worker count on an 8x8 mesh.
  noc::NetworkConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.step.workers = 4;
  cfg.step.tiles_per_worker = 8;
  noc::Network net(cfg);
  net.set_step_timing(true);
  std::vector<std::uint64_t> want(4, 0);
  std::uint64_t serial = 0;
  for (int c = 0; c < 1500; ++c) {
    const int band = (c / 100) % 8;  // sources in rows 0..band
    if (c % 4 == 0) {
      for (noc::NodeId src = 0; src < 8 * (band + 1); src += 3) {
        net.ni(src).enqueue_packet(63 - src, 4, net.cycle() * 1000, net.cycle());
      }
    }
    net.tick_island(0);
    const int workers = std::min(4, net.island_active_nodes(0) / 8);
    if (workers < 2) {
      ++serial;
    } else {
      for (int w = 0; w < workers; ++w) ++want[static_cast<std::size_t>(w)];
    }
    net.run_island_phases(0, net.cycle() * 1000);
    net.delivered().clear();
  }
  EXPECT_EQ(net.serial_steps(), serial);
  EXPECT_EQ(net.parallel_steps(), want[0]);
  // A worker beyond a step's count takes no part in it; within the count,
  // which worker runs which chunk depends on the host's scheduling.
  const std::vector<obs::HostWorkerStats> stats = net.step_worker_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (std::size_t w = 0; w < 4; ++w) EXPECT_LE(stats[w].points, want[w]) << "worker " << w;
  EXPECT_GT(want[3], 0u);       // some steps used all four workers
  EXPECT_GT(want[1], want[2]);  // and some only two
  EXPECT_GT(serial, 0u);
}

TEST(ParallelStep, TileWokenByTwoWorkersIsAdmittedOnce) {
  // On a 3x3 mesh tiles 3 and 5 both send to the parked centre tile 4.
  // The head flits cross their switches in the same step, each from its
  // own worker's chunk, so two workers wake tile 4 at once. A double
  // admission would leave tile 4 twice on the activity list, which the
  // serial twin (where the second wake is a no-op) would expose.
  for (const int workers : {2, 3}) {
    Twins t(3, workers);
    for (int c = 0; c < 5; ++c) t.step_and_compare();  // park every tile
    ASSERT_EQ(t.parallel->island_active_nodes(0), 0);
    for (int round = 0; round < 20; ++round) {
      t.enqueue(3, 4, 2);
      t.enqueue(5, 4, 2);
      for (int c = 0; c < 12; ++c) t.step_and_compare();
    }
    EXPECT_EQ(t.parallel->island_active_nodes(0), 0);
    EXPECT_EQ(t.parallel->delivered().size(), 40u);
    EXPECT_GT(t.parallel->parallel_steps(), 0u);
  }
}

TEST(ParallelStep, RouterPoolsGrowInsideParallelSteps) {
  // A 16x16 mesh near saturation on four workers with one awake tile each:
  // routers grow their flit pools inside parallel steps, and a tile (with
  // its pool) may be stepped by a different worker from one step to the
  // next. Deliveries and every router's pool must match the serial twin
  // after every step.
  Twins t(16, 4);
  common::Rng rng(7);
  const auto pool_slots = [](const noc::Network& net) {
    std::uint64_t n = 0;
    for (int r = 0; r < net.num_routers(); ++r) {
      n += static_cast<std::uint64_t>(net.router_at(r).pool_slots());
    }
    return n;
  };
  std::uint64_t grown_in_parallel = 0;
  for (int c = 0; c < 500; ++c) {
    if (c < 300) {
      for (noc::NodeId src = 0; src < 256; ++src) {
        if (rng.bernoulli(0.08)) {  // 0.4 flits per node and cycle
          t.enqueue(src, static_cast<noc::NodeId>(rng.uniform_below(256)), 5);
        }
      }
    }
    const std::uint64_t slots_before = pool_slots(*t.parallel);
    const std::uint64_t parallel_before = t.parallel->parallel_steps();
    t.step_and_compare();
    if (HasFatalFailure()) return;
    for (int r = 0; r < 256; ++r) {
      ASSERT_EQ(t.parallel->router_at(r).pool_slots(), t.serial->router_at(r).pool_slots())
          << "router " << r << ", cycle " << c;
    }
    if (t.parallel->parallel_steps() > parallel_before &&
        pool_slots(*t.parallel) > slots_before) {
      ++grown_in_parallel;
    }
  }
  EXPECT_GT(grown_in_parallel, 0u);
  EXPECT_GT(t.parallel->delivered().size(), 0u);
}

TEST(ParallelStep, StepWorkerBudgetIsBounded) {
  // Auto resolves to the host's CPUs divided among the concurrent runs,
  // never below 1 and never above the measured kDefaultStepWorkers, on any
  // host: a 128-thread server running one point must not ask a network
  // for more workers than it accepts.
  static_assert(noc::kDefaultStepWorkers <= noc::kMaxStepWorkers);
  for (const int cpus : {1, 2, 3, 4, 7, 16, 64, 65, 96, 128, 1024}) {
    for (int runs = 1; runs <= cpus + 2; runs += runs < 8 ? 1 : 7) {
      const int budget = noc::step_worker_budget(cpus, runs);
      EXPECT_GE(budget, 1) << cpus << " CPUs, " << runs << " runs";
      EXPECT_LE(budget, noc::kDefaultStepWorkers) << cpus << " CPUs, " << runs << " runs";
      EXPECT_LE(budget, std::max(1, cpus / runs)) << cpus << " CPUs, " << runs << " runs";
    }
  }
  EXPECT_EQ(noc::step_worker_budget(4, 1), 4);
  EXPECT_EQ(noc::step_worker_budget(4, 2), 2);
  EXPECT_EQ(noc::step_worker_budget(4, 4), 1);
  EXPECT_EQ(noc::step_worker_budget(128, 1), noc::kDefaultStepWorkers);
  EXPECT_EQ(noc::step_worker_budget(0, 1), 1);
  EXPECT_EQ(noc::Network(noc::NetworkConfig{}).step_workers(),
            noc::step_worker_budget(noc::host_cpus(), 1));
}

TEST(ParallelStep, SweepAtFullThreadsStartsNoStepWorkers) {
  const int cpus = noc::host_cpus();
  sim::Scenario base = mesh(32, 0.02);
  base.phases.warmup_node_cycles = 300;
  base.phases.measure_node_cycles = 300;
  std::vector<double> lambdas;
  for (int i = 0; i < cpus; ++i) lambdas.push_back(0.02 + 0.001 * i);
  sim::SweepRunner::Options opt;
  opt.threads = cpus;
  sim::SweepRunner runner(opt);
  const auto records = runner.run(base, {sim::SweepAxis::lambda(lambdas)});
  ASSERT_EQ(records.size(), static_cast<std::size_t>(cpus));
  for (const sim::SweepRecord& rec : records) {
    EXPECT_EQ(manifest_count(rec.result, "noc.step_workers"), 1u);
    EXPECT_EQ(manifest_count(rec.result, "noc.parallel_steps"), 0u);
    EXPECT_GT(manifest_count(rec.result, "noc.serial_steps"), 0u);
  }
}

TEST(ParallelStep, ConfigurationIsValidated) {
  noc::NetworkConfig cfg;
  cfg.step.workers = -1;
  EXPECT_THROW(noc::Network{cfg}, std::invalid_argument);
  cfg.step.workers = noc::kMaxStepWorkers + 1;
  EXPECT_THROW(noc::Network{cfg}, std::invalid_argument);
  cfg.step.workers = 2;
  cfg.step.tiles_per_worker = 0;
  EXPECT_THROW(noc::Network{cfg}, std::invalid_argument);
  cfg.step.tiles_per_worker = 1;
  const noc::Network net(cfg);
  EXPECT_EQ(net.step_workers(), 2);
  EXPECT_TRUE(net.step_worker_stats().empty());  // the pool starts at the first parallel step
}

}  // namespace
}  // namespace nocdvfs
