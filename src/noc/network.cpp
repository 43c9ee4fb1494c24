#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace nocdvfs::noc {

namespace {

/// Where `Network::wake` records the tiles a helper step worker claims:
/// its own StepWorker::woken. Null on every other thread (the control
/// thread, node-domain enqueues), which append to the island's
/// newly_awake directly.
thread_local std::vector<NodeId>* t_woken = nullptr;

/// How a waiting step worker polls before it blocks in std::atomic::wait.
/// Consecutive island steps and the regions inside one are microseconds
/// apart, so a short spin catches almost every hand-off without a futex
/// round trip. The first polls pause (~10 us in all); the rest yield the
/// CPU, so on an oversubscribed host the worker everyone waits for can
/// run instead of the spinners.
constexpr int kPausePolls = 512;
constexpr int kSpinPolls = kPausePolls + 128;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Return once `word` differs from `seen`: spin briefly, then block.
template <typename Word>
void await_change(const std::atomic<Word>& word, Word seen) noexcept {
  for (int i = 0; i < kSpinPolls; ++i) {
    if (word.load(std::memory_order_acquire) != seen) return;
    if (i < kPausePolls) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  while (word.load(std::memory_order_acquire) == seen) {
    word.wait(seen, std::memory_order_acquire);
  }
}

int resolve_step_workers(const StepParallelism& step) {
  if (step.workers < 0 || step.workers > kMaxStepWorkers) {
    throw std::invalid_argument("Network: step.workers must be in [0, " +
                                std::to_string(kMaxStepWorkers) + "]");
  }
  if (step.tiles_per_worker < 1) {
    throw std::invalid_argument("Network: step.tiles_per_worker must be >= 1");
  }
  return step.workers > 0 ? step.workers : step_worker_budget(host_cpus(), 1);
}

}  // namespace

int host_cpus() {
  static const int cpus = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return cpus;
}

int step_worker_budget(int cpus, int concurrent_runs) noexcept {
  return std::clamp(cpus / std::max(1, concurrent_runs), 1, kDefaultStepWorkers);
}

/// The helper threads of the parallel island step. The control thread (the
/// one calling `run_island_phases`) is worker 0; helpers 1..n-1 wait for a
/// step and join it. A step of n workers has n chunks, and each region's
/// chunks are claimed, not assigned: a worker claims its own chunk first
/// (so a tile keeps its worker, and its data that worker's cache), then
/// any chunk still unclaimed. A region is over when all its chunks are
/// done. So no worker waits for a thread that has not started a chunk: on
/// an oversubscribed host a descheduled helper's chunk is taken by whoever
/// runs, down to the control thread alone, where a barrier would stall the
/// step until the helper ran again.
///
/// The step word carries a sequence number and the step's worker count; a
/// helper outside the count goes back to waiting. Each region's claim word
/// carries the sequence number beside its claimed-chunk bits, so a helper
/// that wakes after its step ended finds nothing to claim and touches no
/// step state. An exception in a chunk is kept per worker; the remaining
/// chunks are claimed and skipped, and the lowest worker's exception is
/// rethrown on the control thread.
class Network::StepPool {
 public:
  StepPool(Network& net, int workers) : net_(net), errors_(static_cast<std::size_t>(workers)) {
    threads_.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) threads_.emplace_back([this, w] { helper(w); });
  }

  ~StepPool() {
    stop_.store(true, std::memory_order_relaxed);
    step_.fetch_add(kSeqUnit, std::memory_order_release);
    step_.notify_all();
    // A helper that fell behind may block in await_region on a done count
    // that later steps reset and refilled to the very value it read; no
    // notify releases it then. Move every count so its wait returns.
    for (std::atomic<std::uint32_t>& done : done_) {
      done.fetch_add(1, std::memory_order_release);
      done.notify_all();
    }
    for (std::thread& t : threads_) t.join();
  }

  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  /// Run one step of `n` chunks (`net_.step_` is published first); returns
  /// once every chunk of every region is done.
  void run(int n) {
    const std::uint32_t seq = ++seq_;
    for (int r = 0; r < kStepRegions; ++r) {
      done_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
      claimed_[static_cast<std::size_t>(r)].store(std::uint64_t{seq} << 32,
                                                  std::memory_order_relaxed);
    }
    step_.store(std::uint64_t{seq} * kSeqUnit + static_cast<std::uint64_t>(n),
                std::memory_order_release);
    step_.notify_all();
    t_parallel_step = true;
    work(0, seq, n);
    t_parallel_step = false;
    if (failed_.load(std::memory_order_relaxed)) {
      failed_.store(false, std::memory_order_relaxed);
      for (std::exception_ptr& e : errors_) {
        if (e) std::rethrow_exception(std::exchange(e, nullptr));
      }
    }
  }

 private:
  /// The step word: the sequence number in units of kSeqUnit, the step's
  /// worker (and chunk) count below.
  static constexpr std::uint64_t kSeqUnit = 0x100;
  static constexpr int kStale = -2;    ///< claim: the caller's step has ended
  static constexpr int kNoChunk = -1;  ///< claim: every chunk of the region is taken

  void helper(int w) {
    t_woken = &net_.workers_[static_cast<std::size_t>(w)].woken;
    t_parallel_step = true;
    std::uint64_t seen = 0;
    for (;;) {
      await_change(step_, seen);
      seen = step_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_relaxed)) return;
      const int n = static_cast<int>(seen % kSeqUnit);
      if (w < n) work(w, static_cast<std::uint32_t>(seen / kSeqUnit), n);
    }
  }

  /// Worker `w`'s part of step `seq`: claim and run chunks region by
  /// region. Returns when the last region is done, or (a helper only) once
  /// the step turns out to have ended without it.
  void work(int w, std::uint32_t seq, int n) {
    StepWorker& me = net_.workers_[static_cast<std::size_t>(w)];
    const bool timed = net_.step_timing_;
    bool counted = false;
    for (int region = 0; region < kStepRegions; ++region) {
      int c = 0;
      while ((c = claim(region, seq, w, n)) >= 0) {
        if (!failed_.load(std::memory_order_relaxed)) {
          const auto t0 = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
          try {
            net_.step_region(c, region);
          } catch (...) {
            if (!errors_[static_cast<std::size_t>(w)]) {
              errors_[static_cast<std::size_t>(w)] = std::current_exception();
            }
            failed_.store(true, std::memory_order_relaxed);
          }
          if (timed) {
            me.busy_ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            // Counted before the chunk is marked done, which orders it
            // before any read.
            if (!std::exchange(counted, true)) ++me.parallel_steps;
          }
        }
        std::atomic<std::uint32_t>& done = done_[static_cast<std::size_t>(region)];
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == static_cast<std::uint32_t>(n)) {
          done.notify_all();
        }
      }
      if (c == kStale || !await_region(region, seq, n)) return;
    }
  }

  /// Claim a chunk of `region` in step `seq` for worker `w`: its own chunk
  /// if that is free, else the lowest free one.
  int claim(int region, std::uint32_t seq, int w, int n) {
    std::atomic<std::uint64_t>& word = claimed_[static_cast<std::size_t>(region)];
    std::uint64_t cur = word.load(std::memory_order_relaxed);
    const std::uint64_t all = (std::uint64_t{1} << n) - 1;
    for (;;) {
      if (static_cast<std::uint32_t>(cur >> 32) != seq) return kStale;
      const std::uint64_t free = all & ~cur;
      if (free == 0) return kNoChunk;
      const int c = ((free >> w) & 1) != 0 ? w : std::countr_zero(free);
      if (word.compare_exchange_weak(cur, cur | (std::uint64_t{1} << c),
                                     std::memory_order_acquire, std::memory_order_relaxed)) {
        return c;
      }
    }
  }

  /// Wait until every chunk of `region` is done: spin briefly, then block.
  /// False if step `seq` ended meanwhile (a late helper).
  bool await_region(int region, std::uint32_t seq, int n) {
    const std::atomic<std::uint32_t>& done = done_[static_cast<std::size_t>(region)];
    for (int i = 0;; ++i) {
      const std::uint32_t d = done.load(std::memory_order_acquire);
      if (d == static_cast<std::uint32_t>(n)) return true;
      if (step_.load(std::memory_order_relaxed) / kSeqUnit != seq) return false;
      if (i < kPausePolls) {
        cpu_relax();
      } else if (i < kSpinPolls) {
        std::this_thread::yield();
      } else {
        done.wait(d, std::memory_order_acquire);
      }
    }
  }

  Network& net_;
  std::vector<std::exception_ptr> errors_;
  std::uint32_t seq_ = 0;  ///< control thread only
  alignas(64) std::atomic<std::uint64_t> step_{0};  ///< the step word
  /// Per region: the step's sequence number above bit 32, claimed chunks below.
  alignas(64) std::array<std::atomic<std::uint64_t>, kStepRegions> claimed_{};
  /// Per region: chunks done.
  alignas(64) std::array<std::atomic<std::uint32_t>, kStepRegions> done_{};
  std::atomic<bool> failed_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  ///< last: the helpers use every member above
};

int check_island_partition(const std::vector<int>& island_of, const topo::Topology& topo) {
  const int n = topo.num_nodes();
  if (island_of.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("island partition has " + std::to_string(island_of.size()) +
                                " entries but the network has " + std::to_string(n) + " nodes");
  }
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  std::vector<int> tile_island(static_cast<std::size_t>(topo.num_routers()), -1);
  int k = 0;
  for (NodeId id = 0; id < n; ++id) {
    const int isl = island_of[static_cast<std::size_t>(id)];
    if (isl < 0 || isl >= n) {
      throw std::invalid_argument("island partition: node " + std::to_string(id) +
                                  " has island id " + std::to_string(isl) + ", outside [0, " +
                                  std::to_string(n) + ") for a network of " +
                                  std::to_string(n) + " nodes");
    }
    const int r = topo.router_of(id);
    int& owner = tile_island[static_cast<std::size_t>(r)];
    if (owner != -1 && owner != isl) {
      throw std::invalid_argument("island partition splits tile " + std::to_string(r) +
                                  " (concentration=" + std::to_string(topo.concentration()) +
                                  "): a router and all its NIs must share one island");
    }
    owner = isl;
    used[static_cast<std::size_t>(isl)] = 1;
    k = std::max(k, isl + 1);
  }
  for (int isl = 0; isl < k; ++isl) {
    if (!used[static_cast<std::size_t>(isl)]) {
      throw std::invalid_argument("island partition: island ids must be contiguous (island " +
                                  std::to_string(isl) + " of 0.." + std::to_string(k - 1) +
                                  " has no nodes)");
    }
  }
  return k;
}

Network::Network(const NetworkConfig& cfg) : cfg_(cfg) {
  if (cfg.link_latency < 1) throw std::invalid_argument("Network: link_latency must be >= 1");
  if (cfg.cdc_sync_cycles < 0) {
    throw std::invalid_argument("Network: cdc_sync_cycles must be >= 0");
  }
  // Physical structure (validates width/height/concentration per kind).
  topol_ = topo::Topology::make(cfg.topology, cfg.width, cfg.height, cfg.concentration);
  const int n = topol_->num_nodes();
  const int num_r = topol_->num_routers();

  // Resolve the island partition (empty config = one global island).
  island_of_ = cfg.island_of;
  if (island_of_.empty()) island_of_.assign(static_cast<std::size_t>(n), 0);
  const int k = check_island_partition(island_of_, *topol_);
  islands_.resize(static_cast<std::size_t>(k));
  island_cycles_.assign(static_cast<std::size_t>(k), 0);
  for (NodeId id = 0; id < n; ++id) {
    islands_[static_cast<std::size_t>(island_of_[static_cast<std::size_t>(id)])]
        .members.push_back(id);
  }

  // Tiles: the NIs behind each router, in ascending node order (which is
  // also local-port order — Topology guarantees it), all on their router's
  // island (the partition check guarantees it).
  tile_nis_.resize(static_cast<std::size_t>(num_r));
  for (NodeId id = 0; id < n; ++id) {
    tile_nis_[static_cast<std::size_t>(topol_->router_of(id))].push_back(id);
  }
  router_island_.resize(static_cast<std::size_t>(num_r));
  for (int r = 0; r < num_r; ++r) {
    const NodeId first_ni = tile_nis_[static_cast<std::size_t>(r)].front();
    const int isl = island_of_[static_cast<std::size_t>(first_ni)];
    router_island_[static_cast<std::size_t>(r)] = isl;
    islands_[static_cast<std::size_t>(isl)].tiles.push_back(r);
  }

  // Routing engine (validates the VC budget against the class discipline)
  // and, when requested, the fault model.
  engine_ = std::make_unique<topo::RoutingEngine>(*topol_, cfg.routing, cfg.num_vcs);
  if (!topo::FaultModel::spec_is_off(cfg.faults)) {
    faults_ = std::make_unique<topo::FaultModel>(*topol_, cfg.faults, cfg.fault_seed);
    engine_->set_fault_model(faults_.get());
  }

  RouterConfig rcfg;
  rcfg.num_vcs = cfg.num_vcs;
  rcfg.vc_buffer_depth = cfg.vc_buffer_depth;
  rcfg.routing = cfg.routing;

  NiConfig ncfg;
  ncfg.num_vcs = cfg.num_vcs;
  ncfg.vc_buffer_depth = cfg.vc_buffer_depth;

  routers_.reserve(static_cast<std::size_t>(num_r));
  for (int r = 0; r < num_r; ++r) {
    routers_.push_back(std::make_unique<Router>(r, topol_->radix(r), rcfg));
    routers_.back()->set_routing_engine(engine_.get());
    routers_.back()->set_first_local_port(topol_->num_net_ports(r));
  }
  nis_.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    nis_.push_back(std::make_unique<NetworkInterface>(id, ncfg));
    nis_.back()->set_wake_id(topol_->router_of(id));
    nis_.back()->set_packet_id_source(&next_packet_id_);
  }

  // Inter-router links: one flit channel and one reverse credit channel per
  // directed edge, wired in ascending (router, port) order — on the mesh
  // this replays the historical node/direction order exactly. A link whose
  // endpoints live in different islands becomes a CDC fifo pair: the flit
  // fifo is read (and therefore clocked) by the receiver's island, the
  // credit fifo by the sender's. Every channel reads the clock of the
  // island that pops it; its reader (the router or NI it is wired into)
  // hands it the pending-input bit a push raises.
  for (int r = 0; r < num_r; ++r) {
    const int src_island = router_island_[static_cast<std::size_t>(r)];
    const int net_ports = topol_->num_net_ports(r);
    for (int p = 0; p < net_ports; ++p) {
      const topo::PortPeer far = topol_->peer(r, p);
      if (!far.valid()) continue;
      const int dst_island = router_island_[static_cast<std::size_t>(far.router)];
      islands_[static_cast<std::size_t>(src_island)].links_sourced += 1;
      net_links_.push_back(obs::LinkInfo{r, p, far.router});
      FlitChannel* flit_ch = nullptr;
      CreditChannel* credit_ch = nullptr;
      if (src_island == dst_island) {
        flit_ch = &new_flit_channel(cfg.link_latency, src_island);
        credit_ch = &new_credit_channel(1, src_island);
      } else {
        ++num_boundary_links_;
        flit_ch = &new_cdc_flit_channel(cfg.link_latency + cfg.cdc_sync_cycles,
                                        dst_island);
        credit_ch = &new_cdc_credit_channel(1 + cfg.cdc_sync_cycles, src_island);
      }
      routers_[static_cast<std::size_t>(r)]->connect_output(p, flit_ch, credit_ch);
      routers_[static_cast<std::size_t>(far.router)]->connect_input(far.port, flit_ch,
                                                                    credit_ch);
      routers_[static_cast<std::size_t>(r)]->set_port_peer(p, far.router);
    }
  }

  // Local ports: injection (NI -> router) and ejection (router -> NI);
  // always intra-island, so all four channels belong to the NI's tile.
  for (NodeId id = 0; id < n; ++id) {
    const int r = topol_->router_of(id);
    const int lp = topol_->local_port(id);
    const int isl = island_of_[static_cast<std::size_t>(id)];
    auto& inject_flit = new_flit_channel(1, isl);
    auto& inject_credit = new_credit_channel(1, isl);
    auto& eject_flit = new_flit_channel(1, isl);
    auto& eject_credit = new_credit_channel(1, isl);
    routers_[static_cast<std::size_t>(r)]->connect_input(lp, &inject_flit, &inject_credit);
    routers_[static_cast<std::size_t>(r)]->connect_output(lp, &eject_flit, &eject_credit);
    nis_[static_cast<std::size_t>(id)]->connect(&inject_flit, &inject_credit, &eject_flit,
                                                &eject_credit);
  }

  // Skip-idle stepping: every tile starts awake (the first quiet cycles
  // park them) and every component reports its pushes. With skip_idle off
  // the sinks stay null and every tile is phased every cycle.
  skip_idle_ = cfg.skip_idle;
  workers_ = std::vector<StepWorker>(static_cast<std::size_t>(resolve_step_workers(cfg.step)));
  chunks_ = std::vector<StepChunk>(workers_.size());
  tiles_per_worker_ = cfg.step.tiles_per_worker;
  node_awake_.assign(static_cast<std::size_t>(num_r), skip_idle_ ? 1 : 0);
  if (skip_idle_) {
    for (auto& isl : islands_) isl.active = isl.tiles;
    for (auto& r : routers_) r->set_wake_sink(this);
    for (auto& ni : nis_) ni->set_wake_sink(this);
  }

  // Fault bring-up: the enqueue-time delivery check, plus any events due
  // before the first cycle (at-start failures).
  if (faults_) {
    reachable_fn_ = [this](NodeId src, NodeId dst) { return engine_->reachable(src, dst); };
    for (auto& ni : nis_) ni->set_reachability(&reachable_fn_);
    if (faults_->due(0)) apply_due_faults(0, 0);
    fault_pending_ = faults_->has_pending();
  }
}

Network::~Network() = default;

void Network::apply_due_faults(std::uint64_t cycle, common::Picoseconds now) {
  faults_->advance_to(cycle);
  engine_->rebuild_tables();
  if (engine_->hook_active()) {
    for (auto& r : routers_) r->set_traverse_hook(true);
  }
  fault_pending_ = faults_->has_pending();
  fault_epochs_.push_back(FaultEpochRecord{cycle, now, faults_->failed_links(),
                                           faults_->failed_routers(), engine_->rerouted_pairs(),
                                           engine_->unreachable_pairs()});
}

FlitChannel& Network::new_flit_channel(int latency, int reader_island) {
  return flit_channels_.emplace_back(FlitChannel::delay_line(
      latency, &island_cycles_[static_cast<std::size_t>(reader_island)]));
}

CreditChannel& Network::new_credit_channel(int latency, int reader_island) {
  return credit_channels_.emplace_back(CreditChannel::delay_line(
      latency, &island_cycles_[static_cast<std::size_t>(reader_island)]));
}

FlitChannel& Network::new_cdc_flit_channel(int ready_delay, int reader_island) {
  FlitChannel& ch = flit_channels_.emplace_back(FlitChannel::cdc_fifo(
      ready_delay, cfg_.num_vcs * cfg_.vc_buffer_depth + 2,
      &island_cycles_[static_cast<std::size_t>(reader_island)]));
  islands_[static_cast<std::size_t>(reader_island)].cdc_flit_in.push_back(&ch);
  return ch;
}

CreditChannel& Network::new_cdc_credit_channel(int ready_delay, int reader_island) {
  return credit_channels_.emplace_back(CreditChannel::cdc_fifo(
      ready_delay, cfg_.num_vcs * cfg_.vc_buffer_depth + 2,
      &island_cycles_[static_cast<std::size_t>(reader_island)]));
}

void Network::set_injection_observer(InjectionObserver observer) {
  injection_observer_ = std::move(observer);
  const InjectionObserver* ptr = injection_observer_ ? &injection_observer_ : nullptr;
  for (auto& ni : nis_) ni->set_injection_observer(ptr);
}

void Network::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_recorder_ = recorder;
  if (recorder != nullptr) recorder->set_router_islands(
      std::vector<std::int32_t>(router_island_.begin(), router_island_.end()));
  for (auto& r : routers_) r->set_flight_recorder(recorder);
  for (auto& ni : nis_) ni->set_flight_recorder(recorder);
}

void Network::step_island(int island, common::Picoseconds now) {
  tick_island(island);
  run_island_phases(island, now);
}

void Network::tick_island(int island) {
  Island& isl = islands_.at(static_cast<std::size_t>(island));
  // Every channel this island reads keys its delivery on this counter, so
  // advancing it is the whole clock edge for the links.
  ++island_cycles_[static_cast<std::size_t>(island)];
  if (!skip_idle_) return;
  // Skip-idle: admit tiles woken since the previous edge. Doing it here,
  // before any fired island's phases, keeps the tick-all-then-phase-all
  // order at coincident edges.
  if (!isl.newly_awake.empty()) admit_woken(isl);
  isl.idle_steps_skipped +=
      static_cast<std::uint64_t>(isl.tiles.size() - isl.active.size());
}

void Network::run_island_phases(int island, common::Picoseconds now) {
  Island& isl = islands_.at(static_cast<std::size_t>(island));
  const std::uint64_t cycle = island_cycles_[static_cast<std::size_t>(island)];
  if (flight_recorder_) flight_recorder_->set_now(static_cast<std::uint64_t>(now));
  // Fault epochs are keyed to island 0's clock; fire them before the
  // phases of the cycle they are due.
  if (fault_pending_ && island == 0 && faults_->due(cycle)) apply_due_faults(cycle, now);
  // `active` is sorted ascending, so with skip-idle on the awake tiles are
  // phased in exactly the order the tile loops would visit them — the
  // delivery order (and every float accumulation downstream of it) cannot
  // tell the two disciplines apart. The chunks are contiguous and merge in
  // chunk order, so neither can the worker count. The flight recorder's
  // clock and event log are shared, so a recorded step runs serially.
  // Otherwise each worker gets at least `tiles_per_worker_` tiles, and a
  // step that cannot give two workers that many runs serially (tested
  // first: a serial step pays no division).
  const std::vector<NodeId>& tiles = skip_idle_ ? isl.active : isl.tiles;
  const std::size_t per_worker = static_cast<std::size_t>(tiles_per_worker_);
  const int workers =
      flight_recorder_ != nullptr || workers_.size() < 2 || tiles.size() < 2 * per_worker
          ? 1
          : static_cast<int>(std::min(workers_.size(), tiles.size() / per_worker));
  step_ = Step{&isl, &tiles, now, cycle, workers};
  if (workers > 1) {
    ++parallel_steps_;
    if (!pool_) pool_ = std::make_unique<StepPool>(*this, step_workers());
    pool_->run(workers);
  } else {
    ++serial_steps_;
    for (int region = 0; region < kStepRegions; ++region) step_region(0, region);
  }
  merge_step(isl);
}

void Network::step_region(int c, int region) {
  StepChunk& me = chunks_[static_cast<std::size_t>(c)];
  const std::vector<NodeId>& tiles = *step_.tiles;
  if (region == 0) {
    const std::size_t n = tiles.size();
    const auto k = static_cast<std::size_t>(step_.workers);
    me.begin = k == 1 ? 0 : n * static_cast<std::size_t>(c) / k;
    me.end = k == 1 ? n : n * static_cast<std::size_t>(c + 1) / k;
  }
  const auto first = tiles.begin() + static_cast<std::ptrdiff_t>(me.begin);
  const auto last = tiles.begin() + static_cast<std::ptrdiff_t>(me.end);
  switch (region) {
    case 0: {  // receive: pop every input whose pending bit is set
      std::vector<PacketRecord>& delivered = c == 0 ? delivered_ : me.delivered;
      for (auto t = first; t != last; ++t) routers_[static_cast<std::size_t>(*t)]->receive_phase();
      for (auto t = first; t != last; ++t) {
        for (const NodeId nd : tile_nis_[static_cast<std::size_t>(*t)]) {
          nis_[static_cast<std::size_t>(nd)]->receive_phase(step_.now, step_.cycle, delivered);
        }
      }
      break;
    }
    case 1:  // compute: pipeline stages and injection; the only pushes to other tiles
      for (auto t = first; t != last; ++t) routers_[static_cast<std::size_t>(*t)]->compute_phase();
      for (auto t = first; t != last; ++t) {
        for (const NodeId nd : tile_nis_[static_cast<std::size_t>(*t)]) {
          nis_[static_cast<std::size_t>(nd)]->inject_phase();
        }
      }
      break;
    default: {  // park: pending bits are stable once every push is done
      // Sum the chunk's buffered flits and, with skip-idle on, drop tiles
      // that ended the cycle with no work anywhere: empty router buffers,
      // idle NIs, nothing in flight on any channel the tile reads. Kept
      // tiles move to the front of the chunk (`tiles` is then `active`).
      me.buffered = 0;
      std::size_t kept = me.begin;
      for (std::size_t i = me.begin; i < me.end; ++i) {
        const NodeId id = tiles[i];
        me.buffered +=
            static_cast<std::uint64_t>(routers_[static_cast<std::size_t>(id)]->buffered_now());
        if (!skip_idle_) continue;
        if (const auto why = awake_reason(id)) {
          ++(me.awake.*why);
          step_.isl->active[kept++] = id;
        } else {
          node_awake_[static_cast<std::size_t>(id)] = 0;
        }
      }
      me.kept = kept - me.begin;
      break;
    }
  }
}

void Network::merge_step(Island& isl) {
  const auto n = static_cast<std::size_t>(step_.workers);
  // Wake claims of the helpers, in any order: admit_woken sorts them.
  for (std::size_t w = 1; n > 1 && w < workers_.size(); ++w) {
    std::vector<NodeId>& woken = workers_[w].woken;
    for (const NodeId t : woken) {
      islands_[static_cast<std::size_t>(router_island_[static_cast<std::size_t>(t)])]
          .newly_awake.push_back(t);
    }
    woken.clear();
  }
  // Everything else in chunk order, which is tile order.
  std::uint64_t buffered = 0;
  std::size_t kept = 0;
  for (std::size_t c = 0; c < n; ++c) {
    StepChunk& me = chunks_[c];
    buffered += me.buffered;
    if (c > 0) {
      delivered_.insert(delivered_.end(), me.delivered.begin(), me.delivered.end());
      me.delivered.clear();
    }
    if (!skip_idle_) continue;
    awake_tile_steps_.buffered_flits += std::exchange(me.awake.buffered_flits, 0);
    awake_tile_steps_.router_input += std::exchange(me.awake.router_input, 0);
    awake_tile_steps_.ni_busy += std::exchange(me.awake.ni_busy, 0);
    awake_tile_steps_.ni_input += std::exchange(me.awake.ni_input, 0);
    // Concatenate the kept prefixes of the chunks, in chunk order (the
    // first chunk's prefix is already in place).
    if (me.begin != kept) {
      const auto src = isl.active.begin() + static_cast<std::ptrdiff_t>(me.begin);
      std::copy(src, src + static_cast<std::ptrdiff_t>(me.kept),
                isl.active.begin() + static_cast<std::ptrdiff_t>(kept));
    }
    kept += me.kept;
  }
  if (skip_idle_) isl.active.resize(kept);
  isl.buffered_flits = buffered;
}

void Network::wake(NodeId tile) {
  // Step workers may wake one tile concurrently: in a parallel step the
  // exchange lets exactly one of them claim it. A helper worker records
  // the claim in its own buffer (merged after the step); any other caller
  // appends directly.
  std::uint8_t& flag = node_awake_[static_cast<std::size_t>(tile)];
  if (t_parallel_step) {
    std::atomic_ref<std::uint8_t> awake(flag);
    if (awake.load(std::memory_order_relaxed) != 0 ||
        awake.exchange(1, std::memory_order_relaxed) != 0) {
      return;
    }
  } else {
    if (flag != 0) return;
    flag = 1;
  }
  if (t_woken != nullptr) {
    t_woken->push_back(tile);
    return;
  }
  islands_[static_cast<std::size_t>(router_island_[static_cast<std::size_t>(tile)])]
      .newly_awake.push_back(tile);
}

void Network::admit_woken(Island& isl) {
  std::sort(isl.newly_awake.begin(), isl.newly_awake.end());
  const auto mid = static_cast<std::ptrdiff_t>(isl.active.size());
  isl.active.insert(isl.active.end(), isl.newly_awake.begin(), isl.newly_awake.end());
  std::inplace_merge(isl.active.begin(), isl.active.begin() + mid, isl.active.end());
  isl.newly_awake.clear();
}

std::vector<obs::HostWorkerStats> Network::step_worker_stats() const {
  std::vector<obs::HostWorkerStats> stats;
  if (!pool_) return stats;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    stats.push_back(obs::HostWorkerStats{static_cast<std::int32_t>(w),
                                         workers_[w].parallel_steps, workers_[w].busy_ns});
  }
  return stats;
}

std::uint64_t AwakeTileSteps::*Network::awake_reason(NodeId tile) const {
  // Buffered flits, an NI with work, or anything in flight on a channel the
  // tile reads (the pending-input masks: arriving flits, returning credits,
  // the local inject/eject loops). A router waiting only on downstream
  // credits is parked safely: the credit push at the downstream traversal
  // wakes it (see traverse).
  const Router& router = *routers_[static_cast<std::size_t>(tile)];
  if (router.buffered_now() != 0) return &AwakeTileSteps::buffered_flits;
  if (router.inputs_pending().any()) return &AwakeTileSteps::router_input;
  const std::vector<NodeId>& nis = tile_nis_[static_cast<std::size_t>(tile)];
  for (const NodeId nd : nis) {
    if (!nis_[static_cast<std::size_t>(nd)]->idle()) return &AwakeTileSteps::ni_busy;
  }
  for (const NodeId nd : nis) {
    if (nis_[static_cast<std::size_t>(nd)]->inputs_pending() != 0) {
      return &AwakeTileSteps::ni_input;
    }
  }
  return nullptr;
}

int Network::island_active_nodes(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  return skip_idle_ ? static_cast<int>(isl.active.size())
                    : static_cast<int>(isl.tiles.size());
}

std::uint64_t Network::island_idle_steps_skipped(int island) const {
  return islands_.at(static_cast<std::size_t>(island)).idle_steps_skipped;
}

std::uint64_t Network::idle_steps_skipped() const {
  std::uint64_t n = 0;
  for (const Island& isl : islands_) n += isl.idle_steps_skipped;
  return n;
}

power::ActivityCounters Network::total_activity() const {
  power::ActivityCounters total;
  for (const auto& r : routers_) total += r->activity();
  for (const auto& ni : nis_) total += ni->activity();
  return total;
}

power::ActivityCounters Network::island_activity(int island) const {
  power::ActivityCounters total;
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  for (const NodeId id : isl.tiles) total += routers_[static_cast<std::size_t>(id)]->activity();
  for (const NodeId id : isl.members) total += nis_[static_cast<std::size_t>(id)]->activity();
  return total;
}

power::ActivityCounters Network::tile_activity(NodeId tile) const {
  const auto t = static_cast<std::size_t>(tile);
  power::ActivityCounters total = routers_.at(t)->activity();
  for (const NodeId id : tile_nis_[t]) total += nis_[static_cast<std::size_t>(id)]->activity();
  return total;
}

power::TileInventory Network::tile_inventory(NodeId tile) const {
  power::TileInventory inv;
  inv.num_routers = 1;
  inv.num_links = topol_->router_net_degree(tile);
  inv.num_local_links = 2 * static_cast<int>(tile_nis_.at(static_cast<std::size_t>(tile)).size());
  return inv;
}

power::ActivityCounters Network::node_activity(NodeId node) const {
  return tile_activity(topol_->router_of(node));
}

power::TileInventory Network::node_inventory(NodeId node) const {
  return tile_inventory(topol_->router_of(node));
}

power::NetworkInventory Network::island_inventory(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  power::NetworkInventory inv;
  inv.num_routers = static_cast<int>(isl.tiles.size());
  inv.num_links = isl.links_sourced;
  inv.num_local_links = 2 * static_cast<int>(isl.members.size());
  return inv;
}

std::uint64_t Network::total_flits_generated() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->flits_generated();
  return n;
}

std::uint64_t Network::total_flits_injected() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->flits_injected();
  return n;
}

std::uint64_t Network::total_flits_ejected() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->flits_ejected();
  return n;
}

std::uint64_t Network::total_packets_generated() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->packets_generated();
  return n;
}

std::uint64_t Network::total_packets_ejected() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->packets_ejected();
  return n;
}

std::uint64_t Network::total_source_backlog_flits() const {
  std::uint64_t n = 0;
  for (const auto& ni : nis_) n += ni->source_backlog_flits();
  return n;
}

std::uint64_t Network::total_packets_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += r->dropped_packets();
  for (const auto& ni : nis_) n += ni->dropped_packets();
  return n;
}

std::uint64_t Network::total_flits_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += r->dropped_flits();
  for (const auto& ni : nis_) n += ni->dropped_flits();
  return n;
}

std::uint64_t Network::buffered_flits_now() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += static_cast<std::uint64_t>(r->buffered_now());
  return n;
}

std::uint64_t Network::island_flits_generated(int island) const {
  std::uint64_t n = 0;
  for (const NodeId id : island_members(island)) {
    n += nis_[static_cast<std::size_t>(id)]->flits_generated();
  }
  return n;
}

std::uint64_t Network::island_flits_injected(int island) const {
  std::uint64_t n = 0;
  for (const NodeId id : island_members(island)) {
    n += nis_[static_cast<std::size_t>(id)]->flits_injected();
  }
  return n;
}

std::uint64_t Network::island_buffered_flits_now(int island) const {
  return islands_.at(static_cast<std::size_t>(island)).buffered_flits;
}

std::uint64_t Network::island_buffer_capacity_flits(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  std::uint64_t n = 0;
  for (const NodeId id : isl.tiles) {
    n += static_cast<std::uint64_t>(routers_[static_cast<std::size_t>(id)]->buffer_capacity());
  }
  return n;
}

std::uint64_t Network::flits_in_network() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) n += static_cast<std::uint64_t>(r->buffered_flits());
  for (const auto& ch : flit_channels_) n += ch.in_flight();
  return n;
}

void Network::set_stall_tracking(bool on) {
  for (auto& r : routers_) r->set_stall_tracking(on);
}

std::uint64_t Network::island_cdc_flit_occupancy(int island) const {
  const Island& isl = islands_.at(static_cast<std::size_t>(island));
  std::uint64_t n = 0;
  for (const FlitChannel* ch : isl.cdc_flit_in) n += ch->in_flight();
  return n;
}

void Network::register_telemetry(obs::TelemetryRegistry& reg, bool full) const {
  using obs::MetricScope;
  const int nr = num_routers();
  const int nn = num_nodes();
  const int ni_count = num_islands();

  // Tile scope: the router-side story. The stall columns are all zero
  // unless stall tracking is on, but registering them unconditionally
  // keeps the timeline schema independent of the mode.
  reg.register_counter("flits_forwarded", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->activity().crossbar_traversals;
  });
  reg.register_counter("flits_dropped", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->dropped_flits();
  });
  reg.register_counter("stall_route", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().route;
  });
  reg.register_counter("stall_vc_alloc", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().vc_alloc;
  });
  reg.register_counter("stall_switch", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().sw;
  });
  reg.register_counter("stall_credit", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().credit;
  });
  reg.register_counter("stall_drop", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().drop;
  });
  reg.register_counter("busy_vc_cycles", MetricScope::Tile, nr, [this](int r) {
    return routers_[static_cast<std::size_t>(r)]->stalls().busy_vc_cycles;
  });
  reg.register_gauge("buffer_occupancy", MetricScope::Tile, nr, [this](int r) {
    return static_cast<double>(routers_[static_cast<std::size_t>(r)]->buffered_now());
  });

  // Node scope: the NI-side story (distinct from tiles on concentrated
  // topologies).
  reg.register_counter("flits_generated", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->flits_generated();
  });
  reg.register_counter("flits_injected", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->flits_injected();
  });
  reg.register_counter("flits_ejected", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->flits_ejected();
  });
  reg.register_counter("refused_packets", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->dropped_packets();
  });
  reg.register_counter("refused_flits", MetricScope::Node, nn, [this](int n) {
    return nis_[static_cast<std::size_t>(n)]->dropped_flits();
  });
  reg.register_gauge("source_backlog", MetricScope::Node, nn, [this](int n) {
    return static_cast<double>(nis_[static_cast<std::size_t>(n)]->source_backlog_flits());
  });
  reg.register_gauge("peak_source_backlog", MetricScope::Node, nn, [this](int n) {
    return static_cast<double>(nis_[static_cast<std::size_t>(n)]->peak_source_backlog_flits());
  });

  // Island scope: clock-domain-crossing pressure.
  reg.register_gauge("cdc_occupancy", MetricScope::Island, ni_count,
                     [this](int i) { return static_cast<double>(island_cdc_flit_occupancy(i)); });

  if (full && !net_links_.empty()) {
    const int nl = static_cast<int>(net_links_.size());
    reg.register_counter("link_flits", MetricScope::Link, nl, [this](int l) {
      const obs::LinkInfo& link = net_links_[static_cast<std::size_t>(l)];
      return routers_[static_cast<std::size_t>(link.src_router)]->port_flits_forwarded(
          link.src_port);
    });
    reg.register_gauge("link_backlog", MetricScope::Link, nl, [this](int l) {
      const obs::LinkInfo& link = net_links_[static_cast<std::size_t>(l)];
      return static_cast<double>(
          routers_[static_cast<std::size_t>(link.src_router)]->downstream_backlog(
              link.src_port));
    });
  }
}

}  // namespace nocdvfs::noc
