#pragma once

/// \file network.hpp
/// The assembled NoC: routers, inter-router links, credit wires and
/// per-node network interfaces, partitioned into one or more clock islands.
///
/// The physical structure comes from a `topo::Topology` (mesh, torus,
/// concentrated mesh or dragonfly — see src/topo/). Terminology: a *node*
/// is a network interface (always `width × height`, row-major, exactly the
/// historical mesh ids); a *tile* is one router together with the NIs that
/// hang off its local ports, identified by the router id. On the plain
/// mesh every tile holds one NI and tile ids equal node ids, so everything
/// below degenerates to the historical behaviour bit-for-bit.
///
/// `step_island(i, now)` advances island `i` by exactly one cycle of its
/// NoC clock; the clock kernel decides *when* those cycles happen in
/// master (picosecond) time — that separation is what lets the DVFS
/// controller slow the network relative to the nodes (the paper's central
/// mechanism). With a single island (the default, and the paper's
/// configuration) that is `step_island(0, now)`.
///
/// With a voltage–frequency-island partition (`NetworkConfig::island_of`)
/// each island is stepped independently whenever *its* clock fires. Links
/// whose endpoints live in different islands become clock-domain
/// crossings: an asynchronous FIFO (`Channel::cdc_fifo`) clocked by the
/// receiving domain, charging `cdc_sync_cycles` receiver cycles of synchronizer
/// latency on top of the link pipeline — in both the flit direction and
/// the reverse credit direction. A push into such a fifo also sets the
/// receiving tile's pending-input bit from the sending island, just as
/// `wake()` writes the receiving island's wake list. All NIs of a tile
/// must share their router's island (the partition may not split a tile).
///
/// A `FaultModel` (NetworkConfig::faults) injects link/router failures at
/// construction or mid-run, keyed to island 0's clock. When an epoch
/// fires, the routing engine rebuilds its up*/down* reroute tables,
/// routers start reporting traversals, and packets without a surviving
/// route drain into drop counters (at the source NI for packets enqueued
/// after the epoch, inside routers for packets already in flight).
///
/// Parallel island step: `run_island_phases` splits the island's ascending
/// awake list into contiguous chunks, one per step worker, and runs the
/// stage loops in three regions (receive, compute, park), each starting
/// once every chunk of the one before is done. Workers claim chunks, so a
/// descheduled helper's chunk is taken by another worker. Every channel
/// has at least one cycle of latency, a receive only pops (an NI's credit
/// back to its own router stays inside the tile) and a compute only
/// pushes, so the tiles of one step are independent; the per-chunk results
/// (deliveries, kept tiles, awake-reason shares, buffered flits) merge in
/// chunk order, which is tile order, so a run is bit-identical to serial
/// for any worker count. docs/ARCHITECTURE.md ("Parallel island step") has
/// the full contract.

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "noc/channel.hpp"
#include "noc/network_interface.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "obs/telemetry.hpp"
#include "power/activity.hpp"
#include "power/power_model.hpp"
#include "topo/fault_model.hpp"
#include "topo/routing_engine.hpp"
#include "topo/topology.hpp"

namespace nocdvfs::noc {

/// Awake tiles each worker of a parallel island step gets at least: a step
/// with n awake tiles uses min(step workers, n / this) workers, and runs on
/// the calling thread alone when that is below 2. Measured with
/// `BM_NetworkStep` (docs/ARCHITECTURE.md, "Parallel island step").
inline constexpr int kStepTilesPerWorker = 32;
/// Step workers a network uses on auto at most: the counts measured so far.
inline constexpr int kDefaultStepWorkers = 4;
/// Upper bound on the step workers one network may be forced to: a step's
/// chunks are claimed through one bit each in a 32-bit mask.
inline constexpr int kMaxStepWorkers = 32;

/// The host's hardware threads (>= 1), read once per process: the query
/// reads sysfs, which would cost a 5x5 network a tenth of its construction.
int host_cpus();
/// Step workers each of `concurrent_runs` runs gets on auto: the host's
/// `cpus` divided among the runs, clamped to [1, kDefaultStepWorkers]. A
/// network on its own resolves auto as `step_worker_budget(host_cpus(), 1)`;
/// SweepRunner passes its thread count.
int step_worker_budget(int cpus, int concurrent_runs) noexcept;

/// How one island step is shared among host threads. It never changes a
/// result: the parallel step is bit-identical to the serial one.
struct StepParallelism {
  /// Threads one island step may use, the calling thread included, in
  /// [0, kMaxStepWorkers]; 0 = auto (step_worker_budget).
  int workers = 0;
  /// Awake tiles per worker a parallel step needs (>= 1); tests lower it
  /// to force small steps onto several workers.
  int tiles_per_worker = kStepTilesPerWorker;
};

struct NetworkConfig {
  int width = 5;
  int height = 5;
  int num_vcs = 8;
  int vc_buffer_depth = 4;
  RoutingAlgo routing = RoutingAlgo::XY;
  int link_latency = 1;  ///< cycles on inter-router links

  /// Physical topology; width/height always count NIs (nodes), and
  /// `concentration` NIs share one router on concentrated topologies.
  topo::TopologyKind topology = topo::TopologyKind::Mesh;
  int concentration = 1;

  /// Fault-injection spec for topo::FaultModel ("" / "off" / "none" =
  /// fault-free), e.g. "links:2@0+routers:1@5000".
  std::string faults;
  std::uint64_t fault_seed = 1;

  /// Node→island assignment in row-major node order; empty means one
  /// global island (see check_island_partition).
  std::vector<int> island_of;
  /// Synchronizer penalty on island-boundary links, in receiver-domain
  /// cycles (applies to flits and returning credits alike).
  int cdc_sync_cycles = 2;

  /// Skip router/NI phases for quiescent tiles (empty buffers, idle NIs,
  /// nothing in flight on any channel the tile reads).
  /// Bit-identical to always-stepping — the golden-metrics suite gates
  /// that — but far cheaper at low load. `false` restores the
  /// step-everything discipline (the in-tree comparison path).
  bool skip_idle = true;

  /// Step workers (see StepParallelism); tests force a count here.
  StepParallelism step;

  int num_nodes() const noexcept { return width * height; }
};

/// The one check of a node→island partition (NetworkConfig::island_of and
/// the `islands=`/`island_map=` scenario keys): one entry per node of
/// `topo`, every id in [0, nodes), ids contiguous 0..K-1 with no island
/// empty, and no island splitting a tile (a router and all its NIs share
/// one domain). Every id is bounded by the node count before anything is
/// sized. Returns K; throws std::invalid_argument naming the violation.
int check_island_partition(const std::vector<int>& island_of, const topo::Topology& topo);

/// Kept tile-steps by the reason the tile stayed awake, in the order the
/// quiescence test checks them (Network::awake_tile_steps).
struct AwakeTileSteps {
  std::uint64_t buffered_flits = 0;  ///< the router buffers flits
  std::uint64_t router_input = 0;    ///< a flit or credit is in flight to the router
  std::uint64_t ni_busy = 0;         ///< an NI is sending or has packets queued
  std::uint64_t ni_input = 0;        ///< a flit or credit is in flight to an NI
  std::uint64_t total() const noexcept {
    return buffered_flits + router_input + ni_busy + ni_input;
  }
};

/// Implements WakeSink: routers and NIs report every push towards another
/// tile's inputs, which is what keeps the per-island activity lists exact
/// without any per-cycle scan. Wake targets are *tile* (router) ids.
class Network : public WakeSink {
 public:
  explicit Network(const NetworkConfig& cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advance island `island` by one cycle of its own clock at master time
  /// `now`: tick it (below), then run the router/NI phases of its awake
  /// tiles. When several islands fire at the same instant, use the split
  /// form below instead.
  void step_island(int island, common::Picoseconds now);

  /// Split form for coincident edges: tick *every* fired island first,
  /// then run every fired island's phases. A tick advances the island's
  /// cycle counter — the clock every channel it reads (CDC fifos included)
  /// delivers by — and admits tiles woken since its previous edge; it
  /// touches no channel. Ticking before any phases guarantees a CDC
  /// fifo's reader-side edge at instant t never counts towards the
  /// synchronizer delay of an item pushed at that same instant — otherwise
  /// a crossing from an island stepped earlier in the same instant would
  /// deliver one receiver cycle early (zero link latency at
  /// cdc_sync_cycles=0).
  void tick_island(int island);
  void run_island_phases(int island, common::Picoseconds now);

  std::uint64_t cycle() const noexcept { return island_cycles_[0]; }
  const NetworkConfig& config() const noexcept { return cfg_; }
  /// The physical topology the network is wired from.
  const topo::Topology& topology_model() const noexcept { return *topol_; }
  int num_nodes() const noexcept { return topol_->num_nodes(); }
  int num_routers() const noexcept { return static_cast<int>(routers_.size()); }

  // --- island structure ---
  int num_islands() const noexcept { return static_cast<int>(islands_.size()); }
  int island_of(NodeId node) const { return island_of_.at(static_cast<std::size_t>(node)); }
  /// Ascending node (NI) ids of one island.
  const std::vector<NodeId>& island_members(int island) const {
    return islands_.at(static_cast<std::size_t>(island)).members;
  }
  /// Ascending tile (router) ids of one island.
  const std::vector<NodeId>& island_tiles(int island) const {
    return islands_.at(static_cast<std::size_t>(island)).tiles;
  }
  /// Directed inter-router links that cross an island boundary.
  int num_boundary_links() const noexcept { return num_boundary_links_; }

  // --- skip-idle stepping (see NetworkConfig::skip_idle) ---
  bool skip_idle() const noexcept { return skip_idle_; }
  /// Tiles on island `island`'s activity list right now (== its tile
  /// count when skip_idle is off).
  int island_active_nodes(int island) const;
  /// Tile step pairs elided since construction on one island / in total:
  /// each cycle an island advances, every member tile *not* on its
  /// activity list counts one skipped step. Always 0 with skip_idle off —
  /// the quiescence property tests key on this being large and exact.
  std::uint64_t island_idle_steps_skipped(int island) const;
  std::uint64_t idle_steps_skipped() const;
  /// Why tiles stayed awake: every tile kept on an activity list after a
  /// cycle's phases counts one step, under the first reason that holds.
  /// The four sum to the kept tile-steps since construction (all 0 with
  /// skip_idle off).
  const AwakeTileSteps& awake_tile_steps() const noexcept { return awake_tile_steps_; }

  // --- parallel island step (see the file comment) ---
  /// Threads an island step may use (StepParallelism::workers resolved);
  /// each step uses at most one per `tiles_per_worker` awake tiles.
  int step_workers() const noexcept { return static_cast<int>(workers_.size()); }
  /// Island steps run on the worker pool / on the calling thread alone.
  std::uint64_t parallel_steps() const noexcept { return parallel_steps_; }
  std::uint64_t serial_steps() const noexcept { return serial_steps_; }
  /// Time each worker's share of every parallel step (prof=on). Off, the
  /// step reads no clock.
  void set_step_timing(bool on) noexcept { step_timing_ = on; }
  /// One entry per step worker once the first parallel step has started
  /// the worker threads (empty before): the parallel steps it ran a chunk
  /// of and its busy time inside its chunks, both counted only with step
  /// timing on.
  std::vector<obs::HostWorkerStats> step_worker_stats() const;

  /// WakeSink: put tile `tile` on its island's activity list at that
  /// island's next clock edge (no-op while the tile is already awake).
  /// Routers/NIs call this on every push towards the tile.
  void wake(NodeId tile) override;

  NetworkInterface& ni(NodeId node) { return *nis_.at(static_cast<std::size_t>(node)); }
  const NetworkInterface& ni(NodeId node) const {
    return *nis_.at(static_cast<std::size_t>(node));
  }
  /// The router serving node `node` (its tile's router).
  const Router& router(NodeId node) const {
    return *routers_.at(static_cast<std::size_t>(topol_->router_of(node)));
  }
  /// Direct router access by router id (`0 <= r < num_routers()`).
  const Router& router_at(int r) const { return *routers_.at(static_cast<std::size_t>(r)); }

  // --- fault introspection ---
  /// Packets/flits dropped anywhere: refused at a source NI (destination
  /// unreachable at enqueue) or drained inside a router (no surviving
  /// route once in flight).
  std::uint64_t total_packets_dropped() const;
  std::uint64_t total_flits_dropped() const;
  long long unreachable_pairs() const noexcept {
    return engine_->unreachable_pairs();
  }
  long long rerouted_pairs() const noexcept { return engine_->rerouted_pairs(); }
  int failed_links() const noexcept { return faults_ ? faults_->failed_links() : 0; }
  int failed_routers() const noexcept { return faults_ ? faults_->failed_routers() : 0; }

  /// One record per fired fault epoch (including at-start failures, at
  /// t_ps 0), with the fault/reroute totals after the table rebuild —
  /// telemetry drains these into the event timeline.
  struct FaultEpochRecord {
    std::uint64_t cycle = 0;          ///< island-0 cycle the epoch fired on
    common::Picoseconds t_ps = 0;
    int failed_links = 0;
    int failed_routers = 0;
    long long rerouted_pairs = 0;
    long long unreachable_pairs = 0;
  };
  const std::vector<FaultEpochRecord>& fault_epochs() const noexcept { return fault_epochs_; }

  // --- telemetry (src/obs/) ---
  /// Enable/disable the per-router stall-cause taxonomy network-wide.
  void set_stall_tracking(bool on);
  /// Directed inter-router links in wiring order — the entity table behind
  /// every link-scoped metric.
  const std::vector<obs::LinkInfo>& link_table() const noexcept { return net_links_; }
  /// Flits queued in the boundary CDC fifos island `island` reads.
  std::uint64_t island_cdc_flit_occupancy(int island) const;
  /// Register this network's counters and gauges: tile-scoped router
  /// counters (forwarded flits, stall taxonomy, drops) and occupancy
  /// gauges, node-scoped NI counters (generation, ejection, refusals) and
  /// backlog gauges, island-scoped CDC occupancy — plus, with `full`, the
  /// per-directed-link forwarded-flit counters and backlog gauges.
  void register_telemetry(obs::TelemetryRegistry& registry, bool full) const;

  /// Packets delivered since the caller last cleared this vector.
  std::vector<PacketRecord>& delivered() noexcept { return delivered_; }

  /// Install (or clear, with an empty function) the observer invoked for
  /// every packet entering any source queue — the trace-recording hook.
  void set_injection_observer(InjectionObserver observer);

  /// Install (or clear, with nullptr) the packet flight recorder on every
  /// router and NI, and hand it the router→island map so it can synthesize
  /// clock-domain-crossing events. Same one-branch-when-off discipline as
  /// the injection observer.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  // --- aggregate measurement (whole network) ---
  power::ActivityCounters total_activity() const;
  std::uint64_t total_flits_generated() const;
  std::uint64_t total_flits_injected() const;
  std::uint64_t total_flits_ejected() const;
  std::uint64_t total_packets_generated() const;
  std::uint64_t total_packets_ejected() const;
  std::uint64_t total_source_backlog_flits() const;
  /// Flits inside router buffers and on links (conservation checks).
  std::uint64_t flits_in_network() const;
  /// O(routers) snapshot of router-buffer occupancy (excludes link
  /// pipelines); cheap enough to sample every NoC cycle.
  std::uint64_t buffered_flits_now() const;

  // --- per-tile measurement (the energy ledger's attribution scope) ---
  /// Activity of tile (router) `tile`: the router plus every NI attached
  /// to it, so each router is counted once at any concentration.
  power::ActivityCounters tile_activity(NodeId tile) const;
  /// Structures attributed to one tile: the router, the directed
  /// inter-router links it drives, and its NIs' local channels. Summed
  /// over an island's tiles this equals `island_inventory`.
  power::TileInventory tile_inventory(NodeId tile) const;
  /// The same for the tile of node `node`'s router: per node only at
  /// concentration 1, where tiles and nodes coincide.
  power::ActivityCounters node_activity(NodeId node) const;
  power::TileInventory node_inventory(NodeId node) const;

  // --- per-island measurement (same definitions, island scope) ---
  power::ActivityCounters island_activity(int island) const;
  /// Inventory attributed to one island: its routers/NIs plus the directed
  /// links *sourced* in it (so island inventories sum to the network's).
  power::NetworkInventory island_inventory(int island) const;
  std::uint64_t island_flits_generated(int island) const;
  std::uint64_t island_flits_injected(int island) const;
  /// Flits buffered in the island's routers, summed by the park region of
  /// its last step (an island's buffers change only inside its own steps).
  std::uint64_t island_buffered_flits_now(int island) const;
  std::uint64_t island_buffer_capacity_flits(int island) const;

 private:
  struct Island {
    std::vector<NodeId> members;             ///< ascending node (NI) ids
    std::vector<NodeId> tiles;               ///< ascending tile (router) ids
    std::vector<const FlitChannel*> cdc_flit_in;  ///< boundary flit fifos this island reads
    int links_sourced = 0;  ///< directed inter-router links driven by this island

    // Skip-idle state, in tile ids. `active` is kept sorted ascending so
    // the phase loops visit awake tiles in exactly the tile order — the
    // delivered-record sequence (and with it every order-sensitive float
    // accumulation in the metrics layer) is bit-identical to stepping
    // everyone. `newly_awake` absorbs wake() calls between this island's
    // edges and is merged in at the next tick; parking happens after the
    // phases of the same cycle that drained a tile. No per-cycle
    // membership scan anywhere.
    std::vector<NodeId> active;
    std::vector<NodeId> newly_awake;
    std::uint64_t idle_steps_skipped = 0;
    std::uint64_t buffered_flits = 0;  ///< router buffers after the last step
  };

  /// The island step in progress, as every step worker reads it.
  struct Step {
    Island* isl = nullptr;
    const std::vector<NodeId>* tiles = nullptr;  ///< isl->active, or isl->tiles (skip-idle off)
    common::Picoseconds now = 0;
    std::uint64_t cycle = 0;
    int workers = 1;
  };

  /// One chunk of a step's tile list and its outputs, written by whichever
  /// worker claims the chunk in each region. Cache-line aligned so chunks
  /// never share a line; the control thread merges them after the step, in
  /// chunk order.
  struct alignas(64) StepChunk {
    std::size_t begin = 0;               ///< range of the step's tile list
    std::size_t end = 0;
    std::size_t kept = 0;                ///< park: kept tiles, moved to the chunk front
    std::uint64_t buffered = 0;          ///< park: flits buffered in the chunk
    AwakeTileSteps awake;                ///< park: why the kept tiles stay awake
    std::vector<PacketRecord> delivered;  ///< receive (chunk 0 writes delivered_)
  };

  /// One step worker's private state.
  struct alignas(64) StepWorker {
    std::vector<NodeId> woken;         ///< wake() claims (worker 0 writes newly_awake)
    std::uint64_t parallel_steps = 0;  ///< step timing: parallel steps it ran a chunk of
    std::uint64_t busy_ns = 0;         ///< step timing: time inside its chunks
  };

  /// The helper threads of the parallel step (network.cpp).
  class StepPool;
  /// The three regions; in a parallel step each starts once every chunk of
  /// the one before is done.
  static constexpr int kStepRegions = 3;
  /// Region `region` of chunk `c`: 0 receive, 1 compute, 2 park.
  void step_region(int c, int region);
  /// Fold the chunks' and workers' outputs into the network.
  void merge_step(Island& isl);

  // Channel factories: each channel is bound to its reader island's clock.
  FlitChannel& new_flit_channel(int latency, int reader_island);
  CreditChannel& new_credit_channel(int latency, int reader_island);
  FlitChannel& new_cdc_flit_channel(int ready_delay, int reader_island);
  CreditChannel& new_cdc_credit_channel(int ready_delay, int reader_island);

  /// Sorted-merge `newly_awake` into `active` (amortized O(new·log new)).
  void admit_woken(Island& isl);
  /// The AwakeTileSteps counter naming the first reason `tile` must stay
  /// awake, or nullptr when it is quiescent.
  std::uint64_t AwakeTileSteps::*awake_reason(NodeId tile) const;
  /// Fire every fault event due at island-0 cycle `cycle` (master time
  /// `now`) and rebuild the reroute tables.
  void apply_due_faults(std::uint64_t cycle, common::Picoseconds now);

  NetworkConfig cfg_;
  std::unique_ptr<topo::Topology> topol_;
  std::unique_ptr<topo::RoutingEngine> engine_;
  std::unique_ptr<topo::FaultModel> faults_;
  ReachabilityFn reachable_fn_;  ///< NI enqueue-time delivery check
  bool fault_pending_ = false;   ///< unfired fault events remain

  std::vector<std::unique_ptr<Router>> routers_;  ///< by router id
  std::vector<std::unique_ptr<NetworkInterface>> nis_;  ///< by node id
  // deques: stable element addresses across push_back during wiring
  std::deque<FlitChannel> flit_channels_;  ///< same-clock links and CDC fifos
  std::deque<CreditChannel> credit_channels_;
  std::vector<PacketRecord> delivered_;
  InjectionObserver injection_observer_;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  std::uint64_t next_packet_id_ = 0;  ///< shared NI counter: globally unique ids
  std::vector<int> island_of_;  ///< resolved node→island (size num_nodes)
  std::vector<int> router_island_;  ///< tile→island (size num_routers)
  std::vector<std::vector<NodeId>> tile_nis_;  ///< tile → ascending node ids
  std::vector<Island> islands_;
  /// Per island: its cycle counter, which is also the clock every channel
  /// that island reads is bound to (sized once, so the addresses are stable).
  std::vector<std::uint64_t> island_cycles_;
  int num_boundary_links_ = 0;
  std::vector<obs::LinkInfo> net_links_;  ///< directed links in wiring order
  std::vector<FaultEpochRecord> fault_epochs_;

  bool skip_idle_ = true;
  std::vector<std::uint8_t> node_awake_;  ///< per tile: on an active/newly_awake list
  AwakeTileSteps awake_tile_steps_;

  Step step_;
  std::vector<StepWorker> workers_;  ///< one per step worker (size >= 1)
  std::vector<StepChunk> chunks_;    ///< one per step worker: a step has as many chunks
  int tiles_per_worker_ = kStepTilesPerWorker;
  std::uint64_t parallel_steps_ = 0;
  std::uint64_t serial_steps_ = 0;
  bool step_timing_ = false;
  /// Started at the first parallel step; declared last so its threads are
  /// joined before anything they touch is destroyed.
  std::unique_ptr<StepPool> pool_;
};

}  // namespace nocdvfs::noc
