/// \file microbench_core.cpp
/// google-benchmark microbenchmarks of the simulator's hot paths: the
/// per-cycle cost of a network step across mesh sizes and loads, router
/// pipeline stages, the VC allocator, RNG, the traffic loop, VF lookups,
/// and — the headline set — end-to-end `Simulator::run` across mesh size ×
/// offered load × island partition × thermal. These guard the simulation
/// throughput the figure benches depend on; `bench/perf_baseline` turns a
/// subset into the tracked `BENCH_core.json` trajectory.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "noc/allocator.hpp"
#include "noc/network.hpp"
#include "power/energy_model.hpp"
#include "power/vf_curve.hpp"
#include "sim/scenario.hpp"
#include "traffic/pattern.hpp"
#include "traffic/traffic_model.hpp"

namespace {

using namespace nocdvfs;

void BM_RngRaw(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.raw());
}
BENCHMARK(BM_RngRaw);

void BM_RngBernoulli(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.bernoulli(0.1));
}
BENCHMARK(BM_RngBernoulli);

void BM_SeparableAllocator(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  noc::SeparableAllocator alloc(n, n);
  for (auto _ : state) {
    for (int a = 0; a < n; a += 2) {
      alloc.add_request(a, (a + 1) % n);
      alloc.add_request(a, (a + 3) % n);
    }
    benchmark::DoNotOptimize(alloc.allocate().size());
  }
}
BENCHMARK(BM_SeparableAllocator)->Arg(8)->Arg(40);

void BM_PatternPick(benchmark::State& state) {
  noc::MeshTopology topo(8, 8);
  auto pattern = traffic::TrafficPattern::create("uniform", topo);
  common::Rng rng(1);
  noc::NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern->pick(src, rng));
    src = (src + 1) % 64;
  }
}
BENCHMARK(BM_PatternPick);

void BM_VfCurveLookup(benchmark::State& state) {
  const power::VfCurve curve = power::VfCurve::fdsoi28();
  double f = 333e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.voltage_for(f));
    f += 1e6;
    if (f > 1e9) f = 333e6;
  }
}
BENCHMARK(BM_VfCurveLookup);

void BM_EnergyEventBatch(benchmark::State& state) {
  const power::EnergyModel model(power::EnergyModel::reference_geometry());
  power::ActivityCounters a;
  a.buffer_writes = 1000;
  a.buffer_reads = 1000;
  a.crossbar_traversals = 1000;
  a.link_flit_hops = 1200;
  const power::VoltageScale s = model.voltage_scale(0.75);
  for (auto _ : state) benchmark::DoNotOptimize(model.event_energy_j(a, s));
}
BENCHMARK(BM_EnergyEventBatch);

/// The traffic layer alone: one `SyntheticTraffic::node_tick` over a 64×64
/// node grid at λ = 0.0005 (the sparse64 perfbench load), with the network
/// never stepped, so the number is the arrival calendar's cost (one check
/// per tick, one gap draw and enqueue per packet) and does not depend on
/// the NoC. `items_processed` counts node ticks.
void BM_SyntheticTrafficNodeTick(benchmark::State& state) {
  noc::NetworkConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  auto net = std::make_unique<noc::Network>(cfg);
  traffic::SyntheticTrafficParams params;
  params.lambda = 0.0005;
  traffic::SyntheticTraffic gen(noc::MeshTopology(cfg.width, cfg.height), params);
  // Nothing steps the network, so generated packets queue in the NIs; a
  // fresh network every kTicksPerClear ticks (untimed) keeps the queues,
  // and the bench's memory, bounded whatever the iteration count.
  constexpr std::uint64_t kTicksPerClear = 1u << 16;
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    gen.node_tick(static_cast<common::Picoseconds>(cycle) * 1000, cycle, *net);
    benchmark::ClobberMemory();
    if (++cycle % kTicksPerClear == 0) {
      state.PauseTiming();
      net.reset();  // free the old network first: one 64x64 network at a time
      net = std::make_unique<noc::Network>(cfg);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_nodes());
}
BENCHMARK(BM_SyntheticTrafficNodeTick);

/// Full network cycle cost vs mesh size at a moderate load, on `workers`
/// island-step workers (1 = serial). The counter `items_processed` makes
/// the per-cycle cost directly readable; `awake_tiles` is the mean number
/// of tiles a step phases, the quantity the parallel step's tiles per
/// worker (noc::kStepTilesPerWorker) is set against. Every step here uses
/// all `workers`, however few tiles it has.
void BM_NetworkStep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const double lambda = static_cast<double>(state.range(1)) / 100.0;
  noc::NetworkConfig cfg;
  cfg.width = k;
  cfg.height = k;
  cfg.step.workers = static_cast<int>(state.range(2));
  cfg.step.tiles_per_worker = 1;
  noc::Network net(cfg);
  noc::MeshTopology topo(k, k);
  traffic::SyntheticTrafficParams params;
  params.lambda = lambda;
  params.packet_size = 20;
  traffic::SyntheticTraffic gen(topo, params);
  // Warm the network into steady state.
  for (int i = 0; i < 2000; ++i) {
    gen.node_tick(net.cycle() * 1000, net.cycle(), net);
    net.step_island(0, (net.cycle() + 1) * 1000);
    net.delivered().clear();
  }
  std::uint64_t awake = 0;
  for (auto _ : state) {
    gen.node_tick(net.cycle() * 1000, net.cycle(), net);
    net.tick_island(0);
    awake += static_cast<std::uint64_t>(net.island_active_nodes(0));
    net.run_island_phases(0, net.cycle() * 1000);
    net.delivered().clear();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["awake_tiles"] =
      benchmark::Counter(static_cast<double>(awake), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NetworkStep)
    ->ArgNames({"k", "lambda%", "workers"})
    ->Args({5, 5, 1})
    ->Args({5, 20, 1})
    ->Args({5, 35, 1})
    ->Args({4, 20, 1})
    ->ArgsProduct({{6}, {20}, {1, 2, 4}})  // ~29 awake tiles: serial wins
    ->ArgsProduct({{8}, {20}, {1, 2, 4}})  // ~57: break-even on any count
    ->ArgsProduct({{16}, {2, 4}, {1, 2, 4}})
    ->ArgsProduct({{32}, {1, 4}, {1, 4}})  // router and channel state well beyond L2
    ->UseRealTime();

/// Skip-idle vs always-step on an idle mesh — the cost of a quiescent
/// cycle under each discipline (the activity-list win in isolation).
void BM_NetworkStepIdle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  noc::NetworkConfig cfg;
  cfg.width = k;
  cfg.height = k;
  cfg.skip_idle = state.range(1) != 0;
  noc::Network net(cfg);
  for (int i = 0; i < 10; ++i) net.step_island(0, (net.cycle() + 1) * 1000);  // park everyone
  for (auto _ : state) net.step_island(0, (net.cycle() + 1) * 1000);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkStepIdle)
    ->ArgNames({"k", "skip"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1});

/// End-to-end simulator runs: the full matrix the perf baseline samples —
/// mesh size × offered load × island partition × thermal. Short fixed
/// phases (no adaptive warmup) keep each iteration bounded; items processed
/// counts simulated node cycles, so `items_per_second` reads as simulated
/// cycles per wall second.
void BM_SimulatorRun(benchmark::State& state, sim::Scenario s) {
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const sim::RunResult r = sim::run(s);
    benchmark::DoNotOptimize(r.packets_delivered);
    cycles += s.phases.warmup_node_cycles + s.phases.measure_node_cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}

const int kSimulatorRunMatrix = [] {
  for (const int k : {8, 16, 32}) {
    for (const auto& [load_name, lambda] :
         {std::pair{"idle", 0.0}, {"low", 0.01}, {"sat", 0.5}}) {
      for (const char* islands : {"global", "quadrants"}) {
        for (const bool thermal : {false, true}) {
          sim::Scenario s;
          s.network.width = k;
          s.network.height = k;
          s.lambda = lambda;
          s.packet_size = 20;
          s.islands = islands;
          s.thermal = thermal;
          s.seed = 1;
          s.control_period = 5000;
          s.phases.warmup_node_cycles = 500;
          s.phases.measure_node_cycles = 2500;
          s.phases.adaptive_warmup = false;
          const std::string name = "BM_SimulatorRun/" + std::to_string(k) + "x" +
                                   std::to_string(k) + "_" + load_name + "_" + islands +
                                   (thermal ? "_thermal" : "_cold");
          benchmark::RegisterBenchmark(name.c_str(), BM_SimulatorRun, s)
              ->Unit(benchmark::kMillisecond);
        }
      }
    }
  }
  return 0;
}();

}  // namespace

BENCHMARK_MAIN();
