#include "power/energy_model.hpp"

#include <cmath>
#include <stdexcept>

namespace nocdvfs::power {

namespace {
constexpr double kPicojoule = 1e-12;
constexpr double kMilliwatt = 1e-3;
}  // namespace

EnergyModel::EnergyModel(RouterGeometry geometry, EnergyParams params) : params_(params) {
  if (geometry.num_ports < 2 || geometry.num_vcs < 1 || geometry.buffer_depth < 1 ||
      geometry.flit_bits < 1) {
    throw std::invalid_argument("EnergyModel: degenerate router geometry");
  }
  if (!(params.v_nominal > 0.0)) {
    throw std::invalid_argument("EnergyModel: nominal voltage must be positive");
  }

  const RouterGeometry ref = reference_geometry();
  const double width_ratio = static_cast<double>(geometry.flit_bits) / ref.flit_bits;
  const double port_ratio = static_cast<double>(geometry.num_ports) / ref.num_ports;
  const double vc_ratio = static_cast<double>(geometry.num_vcs) / ref.num_vcs;
  const double depth_ratio = static_cast<double>(geometry.buffer_depth) / ref.buffer_depth;
  const double storage_ratio = geometry.storage_bits() / ref.storage_bits();
  // Crossbar area grows with ports² × datapath width.
  const double xbar_ratio = port_ratio * port_ratio * width_ratio;

  // FIFO access energy: dominated by the datapath width; weak growth with
  // depth (longer bit-lines / mux trees).
  const double fifo_scale = width_ratio * (0.85 + 0.15 * depth_ratio);
  e_buf_wr_ = params.e_buffer_write_pj * kPicojoule * fifo_scale;
  e_buf_rd_ = params.e_buffer_read_pj * kPicojoule * fifo_scale;
  // Switch traversal: wire length grows with radix.
  e_xbar_ = params.e_crossbar_pj * kPicojoule * width_ratio * (0.5 + 0.5 * port_ratio);
  e_link_ = params.e_link_pj * kPicojoule * width_ratio;
  e_local_ = params.e_local_link_pj * kPicojoule * width_ratio;
  // Allocator energy grows with the arbiter sizes (ports × VCs).
  const double alloc_scale = 0.5 + 0.5 * port_ratio * vc_ratio;
  e_grant_ = params.e_alloc_grant_pj * kPicojoule * alloc_scale;
  e_request_ = params.e_alloc_request_pj * kPicojoule * alloc_scale;
  // Clock tree: a fixed pipeline/control part plus the registered storage.
  e_clock_ = params.e_clock_per_cycle_pj * kPicojoule * (0.35 + 0.65 * storage_ratio);
  // Leakage: storage-dominated with a fixed logic floor.
  p_leak_router_w_ =
      params.p_leak_router_mw * kMilliwatt * (0.30 + 0.55 * storage_ratio + 0.15 * xbar_ratio);
  p_leak_link_w_ = params.p_leak_link_mw * kMilliwatt * width_ratio;
}

double EnergyModel::dynamic_scale(double vdd) const noexcept {
  return std::pow(vdd / params_.v_nominal, params_.dynamic_exponent);
}

double EnergyModel::leakage_scale(double vdd) const noexcept {
  return std::pow(vdd / params_.v_nominal, params_.leakage_exponent);
}

double EnergyModel::event_energy_j(const ActivityCounters& ev,
                                   const VoltageScale& s) const noexcept {
  const double nominal =
      static_cast<double>(ev.buffer_writes) * e_buf_wr_ +
      static_cast<double>(ev.buffer_reads) * e_buf_rd_ +
      static_cast<double>(ev.crossbar_traversals) * e_xbar_ +
      static_cast<double>(ev.link_flit_hops) * e_link_ +
      static_cast<double>(ev.local_flit_hops) * e_local_ +
      static_cast<double>(ev.vc_alloc_grants + ev.sw_alloc_grants) * e_grant_ +
      static_cast<double>(ev.alloc_requests) * e_request_;
  return nominal * s.dynamic;
}

}  // namespace nocdvfs::power
