#pragma once

/// \file step_load.hpp
/// Time-varying synthetic workload: offered load steps from one value to
/// another at a configurable instant. Used to study controller transients
/// (how many control windows DMSD's PI loop needs to re-acquire its delay
/// target after a load change, and how the open-loop RMSD law reacts
/// instantaneously) — the "reactivity" half of the paper's
/// stability/reactivity compromise.

#include <memory>

#include "traffic/traffic_model.hpp"

namespace nocdvfs::traffic {

class StepLoadTraffic final : public TrafficModel {
 public:
  /// `before` applies while now < step_at_ps, `after` from then on. The
  /// two phases keep independent per-node RNG streams (same seed usage as
  /// two SyntheticTraffic instances back to back).
  StepLoadTraffic(const noc::MeshTopology& topo, const SyntheticTrafficParams& before,
                  const SyntheticTrafficParams& after, common::Picoseconds step_at_ps);

  void node_tick(common::Picoseconds now, std::uint64_t noc_cycle, noc::Network& net) override;

  /// Nominal offered load of the *post-step* phase (the steady state an
  /// adaptive-warmup measurement converges to).
  double offered_flits_per_node_cycle() const noexcept override {
    return after_->offered_flits_per_node_cycle();
  }
  const char* name() const noexcept override { return "step-load"; }

  bool stepped() const noexcept { return stepped_; }

 private:
  std::unique_ptr<SyntheticTraffic> before_;
  std::unique_ptr<SyntheticTraffic> after_;
  common::Picoseconds step_at_ps_;
  bool stepped_ = false;
};

}  // namespace nocdvfs::traffic
