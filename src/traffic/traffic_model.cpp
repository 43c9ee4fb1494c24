#include "traffic/traffic_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"

namespace nocdvfs::traffic {

using noc::NodeId;

SyntheticTraffic::SyntheticTraffic(const noc::MeshTopology& topo,
                                   const SyntheticTrafficParams& params)
    : params_(params) {
  if (params.packet_size < 1) {
    throw std::invalid_argument("SyntheticTraffic: packet_size must be positive");
  }
  if (params.lambda < 0.0) {
    throw std::invalid_argument("SyntheticTraffic: lambda must be non-negative");
  }
  const double packet_rate = params.lambda / static_cast<double>(params.packet_size);
  if (packet_rate > 1.0) {
    throw std::invalid_argument(
        "SyntheticTraffic: lambda/packet_size exceeds one packet per cycle");
  }
  pattern_ = TrafficPattern::create(params.pattern, topo, params.seed, params.hotspot_fraction);
  const InjectionProcess process = InjectionProcess::create(params.process, packet_rate);
  const int n = topo.num_nodes();
  sources_.reserve(static_cast<std::size_t>(n));
  for (NodeId node = 0; node < n; ++node) {
    Source& src = sources_.emplace_back(
        Source{common::Rng::for_stream(params.seed, static_cast<std::uint64_t>(node)), process});
    calendar_.schedule(node, src.process.next_gap(src.rng));
  }
}

void SyntheticTraffic::node_tick(common::Picoseconds now, std::uint64_t noc_cycle,
                                 noc::Network& net) {
  for (const NodeId node : calendar_.pop_due()) {
    Source& src = sources_[static_cast<std::size_t>(node)];
    const NodeId dst = pattern_->pick(node, src.rng);
    net.ni(node).enqueue_packet(dst, params_.packet_size, now, noc_cycle);
    calendar_.schedule(node, src.process.next_gap(src.rng));
  }
}

MatrixTraffic::MatrixTraffic(std::vector<std::vector<double>> rates_pps, int packet_size,
                             common::Hertz f_node, std::uint64_t seed)
    : packet_size_(packet_size) {
  if (packet_size < 1) throw std::invalid_argument("MatrixTraffic: packet_size must be positive");
  if (!(f_node > 0.0)) throw std::invalid_argument("MatrixTraffic: node frequency must be positive");
  const auto n = rates_pps.size();
  if (n == 0) throw std::invalid_argument("MatrixTraffic: empty rate matrix");

  sources_.reserve(n);
  double total_packet_rate = 0.0;  // packets per node cycle, all sources
  for (std::size_t s = 0; s < n; ++s) {
    if (rates_pps[s].size() != n) {
      throw std::invalid_argument("MatrixTraffic: rate matrix must be square");
    }
    double row_pps = 0.0;
    Source& src = sources_.emplace_back(common::Rng::for_stream(seed, s));
    for (std::size_t d = 0; d < n; ++d) {
      const double r = rates_pps[s][d];
      if (r < 0.0) throw std::invalid_argument("MatrixTraffic: negative rate");
      if (r == 0.0) continue;
      row_pps += r;
      src.cumulative.push_back(row_pps);
      src.destinations.push_back(static_cast<NodeId>(d));
    }
    // Normalize the cumulative distribution to [0, 1].
    for (double& c : src.cumulative) c /= row_pps > 0.0 ? row_pps : 1.0;
    const double packet_rate = row_pps / f_node;  // packets per node cycle
    if (packet_rate > 1.0) {
      throw std::invalid_argument(
          "MatrixTraffic: a source exceeds one packet per node cycle; lower the speed");
    }
    total_packet_rate += packet_rate;
    src.process = InjectionProcess::bernoulli(packet_rate);
    calendar_.schedule(static_cast<NodeId>(s), src.process.next_gap(src.rng));
  }
  mean_lambda_ = total_packet_rate * packet_size / static_cast<double>(n);
}

void MatrixTraffic::node_tick(common::Picoseconds now, std::uint64_t noc_cycle,
                              noc::Network& net) {
  for (const NodeId node : calendar_.pop_due()) {
    Source& src = sources_[static_cast<std::size_t>(node)];
    const double u = src.rng.uniform01();
    const auto it = std::lower_bound(src.cumulative.begin(), src.cumulative.end(), u);
    const auto idx = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - src.cumulative.begin(),
                                 static_cast<std::ptrdiff_t>(src.destinations.size()) - 1));
    net.ni(node).enqueue_packet(src.destinations[idx], packet_size_, now, noc_cycle);
    calendar_.schedule(node, src.process.next_gap(src.rng));
  }
}

}  // namespace nocdvfs::traffic
