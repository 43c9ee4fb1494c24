#include "topo/fault_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strings.hpp"

namespace nocdvfs::topo {

namespace {

/// Parse one "name:K[@CYCLE]" token into `ev`; returns "" or the problem.
std::string parse_event(const std::string& token, FaultEvent& ev) {
  const auto colon = token.find(':');
  if (colon == std::string::npos) {
    return "fault event '" + token + "' is missing ':' (expected links:K[@CYCLE] or routers:K[@CYCLE])";
  }
  const std::string name = common::to_lower(token.substr(0, colon));
  std::string rest = token.substr(colon + 1);
  const auto at = rest.find('@');
  std::string count_str = rest.substr(0, at);
  std::string cycle_str = at == std::string::npos ? "" : rest.substr(at + 1);
  int count = 0;
  try {
    std::size_t used = 0;
    count = std::stoi(count_str, &used);
    if (used != count_str.size()) throw std::invalid_argument(count_str);
  } catch (const std::exception&) {
    return "fault event '" + token + "': count '" + count_str + "' is not an integer";
  }
  if (count <= 0) return "fault event '" + token + "': count must be positive";
  std::uint64_t cycle = 0;
  if (at != std::string::npos) {
    try {
      std::size_t used = 0;
      cycle = std::stoull(cycle_str, &used);
      if (used != cycle_str.size()) throw std::invalid_argument(cycle_str);
    } catch (const std::exception&) {
      return "fault event '" + token + "': cycle '" + cycle_str + "' is not a non-negative integer";
    }
  }
  ev.cycle = cycle;
  if (name == "links" || name == "link") {
    ev.links = count;
  } else if (name == "routers" || name == "router") {
    ev.routers = count;
  } else {
    return "fault event '" + token + "': unknown element '" + name + "' (valid: links routers)";
  }
  return "";
}

std::string parse_spec(const std::string& spec, std::vector<FaultEvent>& events) {
  events.clear();
  if (FaultModel::spec_is_off(spec)) return "";
  for (const std::string& token : common::split_csv(spec, '+')) {
    FaultEvent ev;
    const std::string problem = parse_event(token, ev);
    if (!problem.empty()) return problem;
    events.push_back(ev);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.cycle < b.cycle; });
  return "";
}

}  // namespace

bool FaultModel::spec_is_off(const std::string& spec) {
  const std::string lower = common::to_lower(spec);
  return lower.empty() || lower == "off" || lower == "none";
}

std::string FaultModel::spec_problem(const std::string& spec) {
  std::vector<FaultEvent> events;
  return parse_spec(spec, events);
}

FaultModel::FaultModel(const Topology& topo, const std::string& spec, std::uint64_t seed)
    : topo_(&topo),
      router_failed_(static_cast<size_t>(topo.num_routers()), 0),
      rng_(common::Rng::for_stream(seed, 0xFA17ULL)) {
  const std::string problem = parse_spec(spec, events_);
  if (!problem.empty()) throw std::invalid_argument("FaultModel: " + problem);
  link_failed_.resize(static_cast<size_t>(topo.num_routers()));
  for (int r = 0; r < topo.num_routers(); ++r) {
    link_failed_[static_cast<size_t>(r)].assign(
        static_cast<size_t>(topo.num_net_ports(r)), 0);
  }
}

bool FaultModel::advance_to(std::uint64_t cycle) {
  bool changed = false;
  while (due(cycle)) {
    const FaultEvent& ev = events_[next_event_++];
    if (ev.links > 0) fail_random_links(ev.links);
    if (ev.routers > 0) fail_random_routers(ev.routers);
    changed = true;
  }
  return changed;
}

void FaultModel::fail_random_links(int count) {
  for (int k = 0; k < count; ++k) {
    // Canonical (lower-endpoint) directed representative of each live
    // undirected link whose endpoints are both alive.
    std::vector<std::pair<int, int>> candidates;
    for (int r = 0; r < topo_->num_routers(); ++r) {
      if (router_failed(r)) continue;
      const int net = topo_->num_net_ports(r);
      for (int p = 0; p < net; ++p) {
        if (link_failed(r, p)) continue;
        const PortPeer far = topo_->peer(r, p);
        if (!far.valid() || router_failed(far.router)) continue;
        if (far.router < r || (far.router == r && far.port < p)) continue;
        candidates.emplace_back(r, p);
      }
    }
    if (candidates.empty()) return;
    const auto [r, p] = candidates[rng_.uniform_below(candidates.size())];
    const PortPeer far = topo_->peer(r, p);
    link_failed_[static_cast<size_t>(r)][static_cast<size_t>(p)] = 1;
    link_failed_[static_cast<size_t>(far.router)][static_cast<size_t>(far.port)] = 1;
    ++failed_links_;
  }
}

void FaultModel::fail_random_routers(int count) {
  for (int k = 0; k < count; ++k) {
    std::vector<int> live;
    for (int r = 0; r < topo_->num_routers(); ++r) {
      if (!router_failed(r)) live.push_back(r);
    }
    if (live.size() <= 1) return;  // never kill the last live router
    const int victim = live[rng_.uniform_below(live.size())];
    router_failed_[static_cast<size_t>(victim)] = 1;
    ++failed_routers_;
  }
}

}  // namespace nocdvfs::topo
