#include "thermal/thermal_model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace nocdvfs::thermal {

namespace {

void check_positive(double v, const char* name) {
  if (!(v > 0.0)) {
    throw std::invalid_argument(std::string("ThermalModel: ") + name + " must be positive");
  }
}

/// Worst-case conductance sum seen by any single node (Gershgorin row sum).
double max_g_over_c(int width, int height, const ThermalParams& p) {
  // Interior tiles have 4 lateral neighbours; a 1×1 mesh has none.
  const int max_neighbors = std::min(4, (width > 1 ? 2 : 0) + (height > 1 ? 2 : 0));
  const double g_tile = 1.0 / p.rc_vertical_k_per_w +
                        static_cast<double>(max_neighbors) / p.rc_lateral_k_per_w;
  const double g_spreader = static_cast<double>(width * height) / p.rc_vertical_k_per_w +
                            1.0 / p.r_spreader_k_per_w;
  return std::max(g_tile / p.c_tile_j_per_k, g_spreader / p.c_spreader_j_per_k);
}

}  // namespace

double ThermalModel::stability_bound_s(int width, int height, const ThermalParams& params) {
  return 1.0 / max_g_over_c(width, height, params);
}

ThermalModel::ThermalModel(int width, int height, const ThermalParams& params,
                           common::Picoseconds step_ps)
    : width_(width), height_(height), params_(params), step_ps_(step_ps) {
  if (width < 1 || height < 1) {
    throw std::invalid_argument("ThermalModel: mesh must be at least 1x1");
  }
  check_positive(params.rc_vertical_k_per_w, "rc_vertical_k_per_w");
  check_positive(params.rc_lateral_k_per_w, "rc_lateral_k_per_w");
  check_positive(params.r_spreader_k_per_w, "r_spreader_k_per_w");
  check_positive(params.c_tile_j_per_k, "c_tile_j_per_k");
  check_positive(params.c_spreader_j_per_k, "c_spreader_j_per_k");
  if (params.leak_temp_coeff_per_k < 0.0) {
    throw std::invalid_argument("ThermalModel: leak_temp_coeff_per_k must be >= 0");
  }
  if (step_ps == 0) throw std::invalid_argument("ThermalModel: step_ps must be positive");
  const double bound_s = stability_bound_s(width, height, params);
  const double step_s = static_cast<double>(step_ps) / common::kPicosPerSecond;
  if (step_s > bound_s) {
    std::ostringstream os;
    os << "ThermalModel: step of " << step_s * 1e9
       << " ns exceeds the explicit-Euler stability bound of " << bound_s * 1e9
       << " ns for this mesh (min C/sum-G over nodes; lower thermal_step_ns or raise "
          "the RC constants)";
    throw std::invalid_argument(os.str());
  }

  const std::size_t n = static_cast<std::size_t>(num_tiles());
  temps_c_.assign(n, params.ambient_c);
  scratch_c_.assign(n, params.ambient_c);
  spreader_c_ = params.ambient_c;
  tile_peak_c_.assign(n, params.ambient_c);
  leak_j_.assign(n, 0.0);
  leak_ref_j_.assign(n, 0.0);
}

void ThermalModel::euler_step(double dt_s, const std::vector<double>& dynamic_w,
                              const std::vector<double>& leakage_nominal_w) {
  const double g_vert = 1.0 / params_.rc_vertical_k_per_w;
  const double g_lat = 1.0 / params_.rc_lateral_k_per_w;
  const double k = params_.leak_temp_coeff_per_k;
  const double t_ref = params_.temp_ref_c;

  double into_spreader_w = 0.0;
  double mean_c = 0.0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const std::size_t i = static_cast<std::size_t>(y * width_ + x);
      const double t = temps_c_[i];
      // Temperature-resolved leakage: the one bounded-Arrhenius law, so a
      // regenerative runaway stays finite at the ceiling.
      const double leak_w = leakage_nominal_w[i] * power::bounded_arrhenius(k, t - t_ref);
      leak_j_[i] += leak_w * dt_s;
      leak_ref_j_[i] += leakage_nominal_w[i] * dt_s;

      double flow_out_w = g_vert * (t - spreader_c_);
      if (x > 0) flow_out_w += g_lat * (t - temps_c_[i - 1]);
      if (x + 1 < width_) flow_out_w += g_lat * (t - temps_c_[i + 1]);
      if (y > 0) flow_out_w += g_lat * (t - temps_c_[i - static_cast<std::size_t>(width_)]);
      if (y + 1 < height_) {
        flow_out_w += g_lat * (t - temps_c_[i + static_cast<std::size_t>(width_)]);
      }
      into_spreader_w += g_vert * (t - spreader_c_);

      const double t_next =
          t + dt_s / params_.c_tile_j_per_k * (dynamic_w[i] + leak_w - flow_out_w);
      scratch_c_[i] = t_next;
      tile_peak_c_[i] = std::max(tile_peak_c_[i], t_next);
      mean_c += t_next;
    }
  }
  temps_c_.swap(scratch_c_);
  spreader_c_ += dt_s / params_.c_spreader_j_per_k *
                 (into_spreader_w - (spreader_c_ - params_.ambient_c) /
                                        params_.r_spreader_k_per_w);
  mean_dt_sum_ += mean_c / static_cast<double>(num_tiles()) * dt_s;
  dt_sum_ += dt_s;
}

void ThermalModel::advance(common::Picoseconds until, const std::vector<double>& dynamic_w,
                           const std::vector<double>& leakage_nominal_w) {
  if (until < now_) throw std::invalid_argument("ThermalModel::advance: time went backwards");
  const std::size_t n = static_cast<std::size_t>(num_tiles());
  if (dynamic_w.size() != n || leakage_nominal_w.size() != n) {
    throw std::invalid_argument("ThermalModel::advance: drive vectors must have one entry per tile");
  }
  while (now_ < until) {
    const common::Picoseconds piece = std::min<common::Picoseconds>(step_ps_, until - now_);
    euler_step(static_cast<double>(piece) / common::kPicosPerSecond, dynamic_w,
               leakage_nominal_w);
    now_ += piece;
  }
}

double ThermalModel::peak_temp_c() const noexcept {
  return *std::max_element(temps_c_.begin(), temps_c_.end());
}

double ThermalModel::mean_temp_c() const noexcept {
  double sum = 0.0;
  for (const double t : temps_c_) sum += t;
  return sum / static_cast<double>(num_tiles());
}

double ThermalModel::window_peak_c() const noexcept {
  return *std::max_element(tile_peak_c_.begin(), tile_peak_c_.end());
}

double ThermalModel::window_mean_c() const noexcept {
  return dt_sum_ > 0.0 ? mean_dt_sum_ / dt_sum_ : mean_temp_c();
}

void ThermalModel::reset_stats() {
  tile_peak_c_ = temps_c_;
  mean_dt_sum_ = 0.0;
  dt_sum_ = 0.0;
}

}  // namespace nocdvfs::thermal
