#pragma once

/// \file request_reply.hpp
/// Closed-loop request–reply workload — the traffic the paper names when
/// arguing that RMSD is "an inefficient choice" whenever delay matters
/// (Sec. III): every network traversal sits on an application's critical
/// path twice.
///
/// Each node issues requests (Bernoulli arrivals kept in an
/// `ArrivalCalendar`, destination pattern, traffic class 0). When a request
/// is delivered, the destination "serves" it for a fixed number of node
/// cycles and then issues a reply (traffic class 1) back to the requester.
/// The reply is stamped with the *request's* creation time, so the reply's
/// measured delay at the original node is the full round-trip time (request
/// queueing + both network traversals + service) — the number an
/// application would feel.

#include <deque>
#include <memory>
#include <vector>

#include "traffic/traffic_model.hpp"

namespace nocdvfs::traffic {

struct RequestReplyParams {
  double request_rate = 0.005;  ///< requests per node cycle per node
  int request_size = 4;         ///< flits (short read-request class)
  int reply_size = 16;          ///< flits (data-bearing reply class)
  int service_node_cycles = 20; ///< server-side think time
  common::Picoseconds node_period_ps = 1000;  ///< node clock period (1 GHz default)
  std::string pattern = "uniform";
  std::uint64_t seed = 1;
  double hotspot_fraction = 0.2;
};

inline constexpr std::uint8_t kRequestClass = 0;
inline constexpr std::uint8_t kReplyClass = 1;

class RequestReplyTraffic final : public TrafficModel {
 public:
  RequestReplyTraffic(const noc::MeshTopology& topo, const RequestReplyParams& params);

  void node_tick(common::Picoseconds now, std::uint64_t noc_cycle, noc::Network& net) override;
  void on_packet_delivered(const noc::PacketRecord& record, common::Picoseconds now) override;

  /// Requests plus (steady-state) replies per node cycle per node.
  double offered_flits_per_node_cycle() const noexcept override {
    return params_.request_rate *
           static_cast<double>(params_.request_size + params_.reply_size);
  }
  const char* name() const noexcept override { return "request-reply"; }

  const RequestReplyParams& params() const noexcept { return params_; }
  std::uint64_t requests_issued() const noexcept { return requests_issued_; }
  std::uint64_t replies_issued() const noexcept { return replies_issued_; }

 private:
  struct PendingReply {
    noc::NodeId requester = -1;
    common::Picoseconds ready_ps = 0;             ///< service completes here
    common::Picoseconds request_create_ps = 0;    ///< stamps the reply
    std::uint64_t request_create_cycle = 0;
  };

  RequestReplyParams params_;
  std::unique_ptr<TrafficPattern> pattern_;
  /// Request arrivals: Bernoulli, so one value serves every node.
  InjectionProcess request_process_ = InjectionProcess::bernoulli(0.0);
  std::vector<common::Rng> rngs_;  ///< by node id
  ArrivalCalendar calendar_;       ///< each node's next request
  std::vector<std::deque<PendingReply>> server_queues_;  ///< per destination node
  std::uint64_t requests_issued_ = 0;
  std::uint64_t replies_issued_ = 0;
};

}  // namespace nocdvfs::traffic
