#include "noc/routing.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>
#include <string>

namespace nocdvfs::noc {

namespace {
constexpr RoutingAlgo kAllAlgos[] = {RoutingAlgo::XY, RoutingAlgo::YX, RoutingAlgo::Adaptive,
                                     RoutingAlgo::Ugal};
}  // namespace

RoutingAlgo routing_algo_from_string(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  for (const RoutingAlgo algo : kAllAlgos) {
    if (lower == to_string(algo)) return algo;
  }
  std::ostringstream msg;
  msg << "routing_algo_from_string: unknown algorithm '" << name << "' (valid:";
  for (const RoutingAlgo algo : kAllAlgos) msg << ' ' << to_string(algo);
  msg << ")";
  throw std::invalid_argument(msg.str());
}

const char* to_string(RoutingAlgo algo) noexcept {
  switch (algo) {
    case RoutingAlgo::XY: return "xy";
    case RoutingAlgo::YX: return "yx";
    case RoutingAlgo::Adaptive: return "adaptive";
    case RoutingAlgo::Ugal: return "ugal";
  }
  return "?";
}

}  // namespace nocdvfs::noc
