#include "obs/telemetry.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace nocdvfs::obs {

const char* to_string(TelemetryMode mode) noexcept {
  switch (mode) {
    case TelemetryMode::Off: return "off";
    case TelemetryMode::Windows: return "windows";
    case TelemetryMode::Full: return "full";
  }
  return "?";
}

TelemetryMode telemetry_mode_from_string(const std::string& name) {
  constexpr TelemetryMode kAll[] = {TelemetryMode::Off, TelemetryMode::Windows,
                                    TelemetryMode::Full};
  return common::from_name(name, kAll, "unknown telemetry mode");
}

const char* to_string(MetricScope scope) noexcept {
  switch (scope) {
    case MetricScope::Tile: return "tile";
    case MetricScope::Node: return "node";
    case MetricScope::Link: return "link";
    case MetricScope::Island: return "island";
  }
  return "?";
}

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::DvfsActuation: return "dvfs_actuation";
    case EventKind::ThrottleEngage: return "throttle_engage";
    case EventKind::ThrottleRelease: return "throttle_release";
    case EventKind::FaultEpoch: return "fault_epoch";
    case EventKind::Reroute: return "reroute";
    case EventKind::MeasureStart: return "measure_start";
    case EventKind::MeasureEnd: return "measure_end";
    case EventKind::Settled: return "settled";
  }
  return "?";
}

void TelemetryRegistry::check_new(const std::string& name, int entities) const {
  if (name.empty()) throw std::invalid_argument("telemetry metric name must be non-empty");
  if (entities <= 0) {
    throw std::invalid_argument("telemetry metric '" + name + "': entities must be positive");
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      throw std::invalid_argument("telemetry metric '" + name + "' registered twice");
    }
  }
}

void TelemetryRegistry::register_counter(std::string name, MetricScope scope, int entities,
                                         CounterFn read) {
  check_new(name, entities);
  Metric m;
  m.name = std::move(name);
  m.scope = scope;
  m.kind = MetricKind::Counter;
  m.entities = entities;
  m.counter = std::move(read);
  metrics_.push_back(std::move(m));
}

void TelemetryRegistry::register_gauge(std::string name, MetricScope scope, int entities,
                                       GaugeFn read) {
  check_new(name, entities);
  Metric m;
  m.name = std::move(name);
  m.scope = scope;
  m.kind = MetricKind::Gauge;
  m.entities = entities;
  m.gauge = std::move(read);
  metrics_.push_back(std::move(m));
}

std::uint64_t MetricSeries::entity_total(int entity) const {
  std::uint64_t sum = 0;
  for (std::size_t i = static_cast<std::size_t>(entity); i < counts.size();
       i += static_cast<std::size_t>(entities)) {
    sum += counts[i];
  }
  return sum;
}

const MetricSeries* Timeline::find_series(const std::string& name) const noexcept {
  for (const MetricSeries& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t Timeline::host_worker_span_ns() const noexcept {
  std::uint64_t span = 0;
  for (const HostWorkerSpan& sp : host_spans) span = std::max(span, sp.t1_ns);
  if (!host_spans.empty()) return span;
  for (const PhaseStats& p : host_phases) {
    if (p.depth == 0) span += p.inclusive_ns;
  }
  return span;
}

TelemetrySampler::TelemetrySampler(const TelemetryRegistry& registry) : registry_(registry) {
  series_.reserve(registry.size());
  std::size_t counter_slots = 0;
  for (const TelemetryRegistry::Metric& m : registry.metrics()) {
    MetricSeries s;
    s.name = m.name;
    s.scope = m.scope;
    s.kind = m.kind;
    s.entities = m.entities;
    series_.push_back(std::move(s));
    if (m.kind == MetricKind::Counter) counter_slots += static_cast<std::size_t>(m.entities);
  }
  // Baseline: the first sample's deltas cover everything since here.
  prev_counts_.resize(counter_slots, 0);
  std::size_t slot = 0;
  for (const TelemetryRegistry::Metric& m : registry.metrics()) {
    if (m.kind != MetricKind::Counter) continue;
    for (int e = 0; e < m.entities; ++e) prev_counts_[slot++] = m.counter(e);
  }
}

void TelemetrySampler::sample() {
  std::size_t slot = 0;
  const auto& metrics = registry_.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const TelemetryRegistry::Metric& m = metrics[i];
    MetricSeries& s = series_[i];
    if (m.kind == MetricKind::Counter) {
      for (int e = 0; e < m.entities; ++e) {
        const std::uint64_t now = m.counter(e);
        NOCDVFS_ASSERT(now >= prev_counts_[slot], "telemetry counter went backwards");
        s.counts.push_back(now - prev_counts_[slot]);
        prev_counts_[slot++] = now;
      }
    } else {
      for (int e = 0; e < m.entities; ++e) s.gauges.push_back(m.gauge(e));
    }
  }
}

void TelemetrySampler::finish(Timeline& timeline) { timeline.series = std::move(series_); }

}  // namespace nocdvfs::obs
