#include "traffic/request_reply.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace nocdvfs::traffic {

using noc::NodeId;

RequestReplyTraffic::RequestReplyTraffic(const noc::MeshTopology& topo,
                                         const RequestReplyParams& params)
    : params_(params) {
  if (params.request_rate < 0.0 || params.request_rate > 1.0) {
    throw std::invalid_argument("RequestReplyTraffic: request_rate must be in [0, 1]");
  }
  if (params.request_size < 1 || params.reply_size < 1) {
    throw std::invalid_argument("RequestReplyTraffic: packet sizes must be positive");
  }
  if (params.service_node_cycles < 0) {
    throw std::invalid_argument("RequestReplyTraffic: negative service time");
  }
  pattern_ = TrafficPattern::create(params.pattern, topo, params.seed,
                                    params.hotspot_fraction);
  request_process_ = InjectionProcess::bernoulli(params.request_rate);
  const int n = topo.num_nodes();
  rngs_.reserve(static_cast<std::size_t>(n));
  for (NodeId node = 0; node < n; ++node) {
    common::Rng& rng =
        rngs_.emplace_back(common::Rng::for_stream(params.seed, static_cast<std::uint64_t>(node)));
    calendar_.schedule(node, request_process_.next_gap(rng));
  }
  server_queues_.resize(static_cast<std::size_t>(n));
}

void RequestReplyTraffic::node_tick(common::Picoseconds now, std::uint64_t noc_cycle,
                                    noc::Network& net) {
  for (const NodeId node : calendar_.pop_due()) {
    common::Rng& rng = rngs_[static_cast<std::size_t>(node)];
    const NodeId dst = pattern_->pick(node, rng);
    net.ni(node).enqueue_packet(dst, params_.request_size, now, noc_cycle, kRequestClass);
    ++requests_issued_;
    calendar_.schedule(node, request_process_.next_gap(rng));
  }
  // Serve completed requests: replies whose service interval elapsed. A
  // node's request goes out before its replies of the same cycle.
  const int n = static_cast<int>(server_queues_.size());
  for (NodeId node = 0; node < n; ++node) {
    auto& queue = server_queues_[static_cast<std::size_t>(node)];
    while (!queue.empty() && queue.front().ready_ps <= now) {
      const PendingReply& r = queue.front();
      // Reply inherits the request's creation stamp: its delivery delay is
      // the application-visible round trip.
      net.ni(node).enqueue_packet(r.requester, params_.reply_size, r.request_create_ps,
                                  r.request_create_cycle, kReplyClass);
      ++replies_issued_;
      queue.pop_front();
    }
  }
}

void RequestReplyTraffic::on_packet_delivered(const noc::PacketRecord& record,
                                              common::Picoseconds now) {
  if (record.traffic_class != kRequestClass) return;  // replies terminate here
  NOCDVFS_ASSERT(record.dst >= 0 &&
                     static_cast<std::size_t>(record.dst) < server_queues_.size(),
                 "delivered record with destination outside the mesh");
  PendingReply r;
  r.requester = record.src;
  r.ready_ps = now + static_cast<common::Picoseconds>(params_.service_node_cycles) *
                         params_.node_period_ps;
  r.request_create_ps = record.create_time_ps;
  r.request_create_cycle = record.create_noc_cycle;
  server_queues_[static_cast<std::size_t>(record.dst)].push_back(r);
}

}  // namespace nocdvfs::traffic
