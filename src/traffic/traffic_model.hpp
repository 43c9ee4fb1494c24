#pragma once

/// \file traffic_model.hpp
/// Workload drivers. A TrafficModel runs in the node clock domain: the
/// simulation kernel calls `node_tick` once per node clock edge and the
/// model enqueues packets into the network interfaces. Two implementations:
///
///  * SyntheticTraffic — per-node injection process × destination pattern
///    (the paper's Sec. V experiments);
///  * MatrixTraffic — arbitrary (src, dst) packet-rate matrix in packets
///    per second, used for the multimedia task-graph workloads (Sec. VI).
///
/// Both keep each node's next arrival in an `ArrivalCalendar`, so a node
/// tick costs per packet, not per node. Each node draws from its own
/// stream in a fixed order: its first gap at construction, then at every
/// arrival the destination and the next gap.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "noc/network.hpp"
#include "traffic/arrival_calendar.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"

namespace nocdvfs::traffic {

class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  /// Called once per node clock edge, before any NoC cycle at that instant.
  virtual void node_tick(common::Picoseconds now, std::uint64_t noc_cycle,
                         noc::Network& net) = 0;

  /// Notification for every packet the network delivers (called by the
  /// simulation kernel as records drain). Closed-loop workloads — e.g.
  /// request–reply — use it to generate dependent traffic; the default is
  /// a no-op for open-loop models.
  virtual void on_packet_delivered(const noc::PacketRecord& record,
                                   common::Picoseconds now) {
    (void)record;
    (void)now;
  }

  /// Nominal offered load in flits per node cycle per node.
  virtual double offered_flits_per_node_cycle() const noexcept = 0;

  virtual const char* name() const noexcept = 0;
};

struct SyntheticTrafficParams {
  double lambda = 0.1;               ///< offered flits per node cycle per node
  int packet_size = 20;              ///< flits per packet
  std::string pattern = "uniform";
  std::string process = "bernoulli";
  std::uint64_t seed = 1;
  double hotspot_fraction = 0.2;     ///< only for pattern == "hotspot"
};

class SyntheticTraffic final : public TrafficModel {
 public:
  SyntheticTraffic(const noc::MeshTopology& topo, const SyntheticTrafficParams& params);

  void node_tick(common::Picoseconds now, std::uint64_t noc_cycle, noc::Network& net) override;
  double offered_flits_per_node_cycle() const noexcept override {
    return params_.lambda;
  }
  const char* name() const noexcept override { return "synthetic"; }

  const SyntheticTrafficParams& params() const noexcept { return params_; }

 private:
  /// One per node: its private stream and its arrival process.
  struct Source {
    common::Rng rng;
    InjectionProcess process;
  };

  SyntheticTrafficParams params_;
  std::unique_ptr<TrafficPattern> pattern_;
  std::vector<Source> sources_;  ///< by node id
  ArrivalCalendar calendar_;
};

/// Packet-rate matrix traffic: rates_pps[src][dst] in packets per second.
/// Each source's arrivals are Bernoulli with per-node-cycle probability
/// rate_total(src) / f_node; the destination is drawn from the per-source
/// discrete distribution.
class MatrixTraffic final : public TrafficModel {
 public:
  MatrixTraffic(std::vector<std::vector<double>> rates_pps, int packet_size,
                common::Hertz f_node, std::uint64_t seed);

  void node_tick(common::Picoseconds now, std::uint64_t noc_cycle, noc::Network& net) override;
  double offered_flits_per_node_cycle() const noexcept override { return mean_lambda_; }
  const char* name() const noexcept override { return "matrix"; }

  int packet_size() const noexcept { return packet_size_; }

 private:
  struct Source {
    explicit Source(common::Rng stream) noexcept : rng(stream) {}
    common::Rng rng;
    InjectionProcess process = InjectionProcess::bernoulli(0.0);
    std::vector<double> cumulative;  ///< cumulative dst probabilities
    std::vector<noc::NodeId> destinations;
  };

  int packet_size_;
  double mean_lambda_ = 0.0;
  std::vector<Source> sources_;  ///< by node id
  ArrivalCalendar calendar_;
};

}  // namespace nocdvfs::traffic
