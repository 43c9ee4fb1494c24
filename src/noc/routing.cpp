#include "noc/routing.hpp"

#include "common/strings.hpp"

namespace nocdvfs::noc {

namespace {
constexpr RoutingAlgo kAllAlgos[] = {RoutingAlgo::XY, RoutingAlgo::YX, RoutingAlgo::Adaptive,
                                     RoutingAlgo::Ugal};
}  // namespace

RoutingAlgo routing_algo_from_string(const std::string& name) {
  return common::from_name(name, kAllAlgos, "unknown routing");
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
