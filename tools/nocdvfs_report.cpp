/// \file nocdvfs_report.cpp
/// Run-report CLI for `.nocobs` telemetry timelines (written by runs with
/// `telemetry=windows|full telemetry_out=<base>`):
///
///   nocdvfs_report summary <file.nocobs>            header, stall breakdown,
///                                                   hot tiles/links, islands
///   nocdvfs_report heatmap <file.nocobs> [metric]   ASCII per-tile heatmap
///                                                   (default flits_forwarded)
///   nocdvfs_report links   <file.nocobs> [n]        top congested links
///                                                   (needs telemetry=full)
///   nocdvfs_report islands <file.nocobs>            per-island actuation
///   nocdvfs_report events  <file.nocobs> [n]        the event timeline
///   nocdvfs_report percentiles <file.nocobs>        latency-distribution
///                                                   tables
///   nocdvfs_report profile <file.nocobs>            host phase profile, top
///                                                   exclusive costs, worker
///                                                   utilization, awake
///                                                   reasons, manifest
///                                                   (prof=on runs / sweep
///                                                   host timelines)
///   nocdvfs_report diff <a.csv> <b.csv> [group_a [group_b]] [skip=col,...]
///                                                   compare two sweep CSVs by
///                                                   column name (exit 1 on a
///                                                   mismatch, 2 on bad input)
///
/// Everything renders from the binary timeline alone — no simulator state
/// — so reports work on artifacts copied off CI.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/latency_hist.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "sim/result_diff.hpp"

namespace {

using nocdvfs::obs::EventKind;
using nocdvfs::obs::MetricSeries;
using nocdvfs::obs::Timeline;

int usage() {
  std::cerr
      << "usage: nocdvfs_report <summary|heatmap|links|islands|events|percentiles|"
         "profile> <file.nocobs> [metric|count]\n"
         "       nocdvfs_report diff <a.csv> <b.csv> [group_a [group_b]] [skip=col,...]\n"
         "  summary     header, stall-cause breakdown, hot tiles/links, island recap\n"
         "  heatmap     ASCII per-tile heatmap of a tile metric (default "
         "flits_forwarded;\n"
         "              try stall_credit, busy_vc_cycles, flits_dropped, ...)\n"
         "  links       top [count] congested links by forwarded flits "
         "(telemetry=full runs)\n"
         "  islands     per-island actuation summary (policy, f stats, events)\n"
         "  events      the run's event timeline (first [count] events; default all)\n"
         "  percentiles latency-distribution tables: p50..p99.9 per scope "
         "(.nocobs v4+)\n"
         "  profile     host phase profile + top exclusive costs, sweep-worker\n"
         "              utilization, why skip-idle kept tiles awake, and the\n"
         "              run-provenance manifest (prof=on runs)\n"
         "  diff        compare two sweep CSVs row by row (paired by index) on every\n"
         "              config and metric column, by name and exactly; names each\n"
         "              mismatch; exit 0 equal, 1 mismatch, 2 bad input\n";
  return 2;
}

/// Tile grid shape: routers match the NI grid at concentration 1;
/// concentrated/irregular topologies fall back to a single row.
std::pair<int, int> tile_grid(const Timeline& tl) {
  if (tl.num_routers == tl.width * tl.height) return {tl.width, tl.height};
  return {tl.num_routers, 1};
}

void print_header(const Timeline& tl, const std::string& path) {
  std::cout << "file:       " << path << "\n"
            << "format:     nocobs v" << tl.version << "\n"
            << "mesh:       " << tl.width << "x" << tl.height << " nodes, "
            << tl.num_routers << " routers (concentration " << tl.concentration
            << ")\n"
            << "islands:    " << tl.num_islands << "\n"
            << "node clock: " << tl.f_node_hz * 1e-9 << " GHz, control period "
            << tl.control_period_node_cycles << " node cycles\n"
            << "windows:    " << tl.windows();
  if (!tl.window_t_ps.empty()) {
    std::cout << " (span " << static_cast<double>(tl.window_t_ps.back()) * 1e-6
              << " us)";
  }
  std::cout << "\n";
}

std::vector<std::uint64_t> tile_totals(const Timeline& tl, const MetricSeries& series) {
  std::vector<std::uint64_t> totals(static_cast<std::size_t>(series.entities), 0);
  for (int e = 0; e < series.entities; ++e) totals[static_cast<std::size_t>(e)] = series.entity_total(e);
  (void)tl;
  return totals;
}

int cmd_heatmap(const Timeline& tl, const std::string& metric) {
  const MetricSeries* series = tl.find_series(metric);
  if (series == nullptr) {
    std::cerr << "error: no series named '" << metric << "' in this timeline; have:";
    for (const MetricSeries& s : tl.series) std::cerr << ' ' << s.name;
    std::cerr << "\n";
    return 1;
  }
  if (series->kind != nocdvfs::obs::MetricKind::Counter) {
    std::cerr << "error: '" << metric << "' is a gauge; the heatmap renders counters\n";
    return 1;
  }
  const std::vector<std::uint64_t> totals = tile_totals(tl, *series);
  const std::uint64_t peak = totals.empty() ? 0 : *std::max_element(totals.begin(), totals.end());

  // 10-step density ramp; '@' is the peak tile.
  static const char kRamp[] = " .:-=+*#%@";
  const auto [gw, gh] = series->scope == nocdvfs::obs::MetricScope::Tile
                            ? tile_grid(tl)
                            : std::pair<int, int>{tl.width, tl.height};
  if (gw * gh != series->entities) {
    std::cerr << "error: series '" << metric << "' has " << series->entities
              << " entities; cannot lay out a " << gw << "x" << gh << " grid\n";
    return 1;
  }
  std::cout << metric << " per tile (peak " << peak << "):\n";
  for (int y = gh - 1; y >= 0; --y) {
    std::cout << "  ";
    for (int x = 0; x < gw; ++x) {
      const std::uint64_t v = totals[static_cast<std::size_t>(y * gw + x)];
      const int step =
          peak == 0 ? 0
                    : static_cast<int>((v * 9 + peak - 1) / peak);  // ceil to 0..9
      std::cout << kRamp[step] << ' ';
    }
    std::cout << "\n";
  }
  std::cout << "scale: ' '=0";
  for (int s = 1; s <= 9; ++s) {
    std::cout << "  '" << kRamp[s] << "'<=" << (peak * static_cast<std::uint64_t>(s) + 8) / 9;
  }
  std::cout << "\n";
  // The numeric row-major dump plotting scripts consume.
  std::cout << "totals:";
  for (const std::uint64_t v : totals) std::cout << ' ' << v;
  std::cout << "\n";
  return 0;
}

int cmd_links(const Timeline& tl, int count) {
  const MetricSeries* series = tl.find_series("link_flits");
  if (series == nullptr || tl.links.empty()) {
    std::cerr << "error: no per-link series in this timeline (links are recorded "
                 "with telemetry=full)\n";
    return 1;
  }
  struct Row {
    int idx;
    std::uint64_t flits;
  };
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>(series->entities));
  for (int e = 0; e < series->entities; ++e) rows.push_back({e, series->entity_total(e)});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.flits != b.flits ? a.flits > b.flits : a.idx < b.idx;
  });
  const int n = std::min<int>(count, static_cast<int>(rows.size()));
  std::cout << "top " << n << " links by forwarded flits:\n"
            << "  link           flits\n";
  for (int i = 0; i < n; ++i) {
    const nocdvfs::obs::LinkInfo& li = tl.links[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)].idx)];
    std::cout << "  r" << std::setw(3) << std::left << li.src_router << " -> r"
              << std::setw(3) << std::left << li.dst_router << std::right << "  "
              << std::setw(10) << rows[static_cast<std::size_t>(i)].flits << "\n";
  }
  return 0;
}

int cmd_islands(const Timeline& tl) {
  std::vector<std::uint64_t> actuations(static_cast<std::size_t>(tl.num_islands), 0);
  std::vector<std::uint64_t> throttles(static_cast<std::size_t>(tl.num_islands), 0);
  for (const nocdvfs::obs::TimelineEvent& ev : tl.events) {
    if (ev.island < 0 || ev.island >= tl.num_islands) continue;
    if (ev.kind == EventKind::DvfsActuation) ++actuations[static_cast<std::size_t>(ev.island)];
    if (ev.kind == EventKind::ThrottleEngage) ++throttles[static_cast<std::size_t>(ev.island)];
  }
  // The island column grows with the id's digit count so the table stays
  // aligned past 10 (or 100) islands.
  const int iw = std::max<int>(
      8, static_cast<int>(std::to_string(std::max(tl.num_islands - 1, 0)).size()) + 2);
  std::cout << std::left << std::setw(iw) << "island" << std::setw(14) << "policy"
            << std::setw(7) << "nodes" << std::right << std::setw(11) << "f_mean(GHz)"
            << std::setw(8) << "f_min" << std::setw(8) << "f_max" << std::setw(9)
            << "f_final" << std::setw(14) << "avg_delay(ns)" << std::setw(12)
            << "actuations" << std::setw(11) << "throttles" << std::setw(19)
            << "throttled_windows" << "\n";
  for (int i = 0; i < tl.num_islands; ++i) {
    double f_min = 0.0, f_max = 0.0, f_sum = 0.0, f_final = 0.0;
    double delay_sum = 0.0;
    std::uint64_t throttled_windows = 0;
    for (int w = 0; w < tl.windows(); ++w) {
      const nocdvfs::obs::IslandWindowRow& row = tl.island_row(w, i);
      if (w == 0) {
        f_min = f_max = row.f_hz;
      } else {
        f_min = std::min(f_min, row.f_hz);
        f_max = std::max(f_max, row.f_hz);
      }
      f_sum += row.f_hz;
      delay_sum += row.avg_delay_ns;
      if (row.throttled != 0) ++throttled_windows;
      f_final = row.f_hz;
    }
    const double f_mean = tl.windows() > 0 ? f_sum / tl.windows() : 0.0;
    const double delay_mean = tl.windows() > 0 ? delay_sum / tl.windows() : 0.0;
    std::cout << std::left << std::setw(iw) << i << std::setw(14)
              << (i < static_cast<int>(tl.island_policy.size()) ? tl.island_policy[static_cast<std::size_t>(i)]
                                                                : "?")
              << std::setw(7)
              << (i < static_cast<int>(tl.island_nodes.size()) ? tl.island_nodes[static_cast<std::size_t>(i)] : 0)
              << std::right << std::fixed << std::setprecision(3) << std::setw(11)
              << f_mean * 1e-9 << std::setw(8) << f_min * 1e-9 << std::setw(8)
              << f_max * 1e-9 << std::setw(9) << f_final * 1e-9 << std::setprecision(1)
              << std::setw(14) << delay_mean << std::defaultfloat
              << std::setw(12) << actuations[static_cast<std::size_t>(i)] << std::setw(11)
              << throttles[static_cast<std::size_t>(i)] << std::setw(19) << throttled_windows << "\n";
  }
  return 0;
}

int cmd_percentiles(const Timeline& tl, const std::string& path) {
  if (tl.version < 4) {
    std::cerr << "error: '" << path << "' is a .nocobs v" << tl.version
              << " file, which predates v4: its latency histograms use an older "
                 "bucket scheme and are not read (re-run to export v4)\n";
    return 1;
  }
  if (tl.histograms.empty()) {
    std::cerr << "error: no latency histograms in this timeline (a run exports "
                 "them with telemetry=windows|full telemetry_out=<base>; sweep "
                 "host timelines carry none)\n";
    return 1;
  }
  std::cout << "latency percentiles (streaming histograms, 8 sub-buckets per "
               "octave; each quantile\nlies in the bucket of the exact order "
               "statistic, at most 1/8 of it wide):\n"
            << std::left << std::setw(22) << "scope" << std::setw(8) << "unit"
            << std::right << std::setw(10) << "count" << std::setw(11) << "min"
            << std::setw(11) << "p50" << std::setw(11) << "p90" << std::setw(11)
            << "p95" << std::setw(11) << "p99" << std::setw(11) << "p99.9"
            << std::setw(11) << "max" << "\n";
  for (const nocdvfs::obs::HistogramSnapshot& h : tl.histograms) {
    // Picosecond-valued scopes render in ns; everything else is raw cycles.
    const bool ps =
        h.label.size() > 3 && h.label.compare(h.label.size() - 3, 3, "_ps") == 0;
    const double scale = ps ? 1e-3 : 1.0;
    const std::string scope = ps ? h.label.substr(0, h.label.size() - 3) : h.label;
    const auto q = [&](double p) {
      return static_cast<double>(nocdvfs::obs::snapshot_quantile(h, p)) * scale;
    };
    std::cout << std::left << std::setw(22) << scope << std::setw(8)
              << (ps ? "ns" : "cycles") << std::right << std::setw(10) << h.count
              << std::fixed << std::setprecision(1) << std::setw(11)
              << static_cast<double>(h.min) * scale << std::setw(11) << q(0.5)
              << std::setw(11) << q(0.9) << std::setw(11) << q(0.95) << std::setw(11)
              << q(0.99) << std::setw(11) << q(0.999) << std::setw(11)
              << static_cast<double>(h.max) * scale << std::defaultfloat << "\n";
  }
  return 0;
}

int cmd_events(const Timeline& tl, int count) {
  const int n = count > 0 ? std::min<int>(count, static_cast<int>(tl.events.size()))
                          : static_cast<int>(tl.events.size());
  std::cout << "t_us        island  kind             a             b\n";
  for (int i = 0; i < n; ++i) {
    const nocdvfs::obs::TimelineEvent& ev = tl.events[static_cast<std::size_t>(i)];
    std::cout << std::fixed << std::setprecision(3) << std::setw(10)
              << static_cast<double>(ev.t_ps) * 1e-6 << std::defaultfloat << "  "
              << std::setw(6) << (ev.island < 0 ? std::string("net") : std::to_string(ev.island))
              << "  " << std::left << std::setw(15) << to_string(ev.kind) << std::right
              << "  " << std::setw(12) << ev.a << "  " << std::setw(12) << ev.b << "\n";
  }
  if (n < static_cast<int>(tl.events.size())) {
    std::cout << "... (" << tl.events.size() - static_cast<std::size_t>(n) << " more)\n";
  }
  return 0;
}

int cmd_profile(const Timeline& tl, const std::string& path) {
  using nocdvfs::obs::PhaseStats;
  if (tl.host_phases.empty() && tl.host_workers.empty() && tl.manifest.empty()) {
    std::cerr << "error: no host-observability sections in this timeline (record "
                 "them with prof=on telemetry=windows|full telemetry_out=<base>, "
                 "or export a sweep host timeline)\n";
    return 1;
  }
  std::cout << "file:   " << path << "\n"
            << "format: nocobs v" << tl.version << "\n";

  if (!tl.host_phases.empty()) {
    const std::uint64_t root_ns = tl.host_phases.front().inclusive_ns;
    std::cout << "\nhost phase profile (inclusive tree, preorder):\n"
              << std::left << std::setw(34) << "  phase" << std::right << std::setw(10)
              << "calls" << std::setw(13) << "incl(ms)" << std::setw(13) << "excl(ms)"
              << std::setw(9) << "incl%" << "\n";
    for (const PhaseStats& p : tl.host_phases) {
      std::string name(static_cast<std::size_t>(p.depth) * 2, ' ');
      name += p.name;
      if (name.size() > 32) name = name.substr(0, 29) + "...";
      const double pct = root_ns > 0 ? 100.0 * static_cast<double>(p.inclusive_ns) /
                                           static_cast<double>(root_ns)
                                     : 0.0;
      std::cout << "  " << std::left << std::setw(32) << name << std::right
                << std::setw(10) << p.calls << std::fixed << std::setprecision(3)
                << std::setw(13) << static_cast<double>(p.inclusive_ns) * 1e-6
                << std::setw(13) << static_cast<double>(p.exclusive_ns) * 1e-6
                << std::setprecision(1) << std::setw(8) << pct << "%"
                << std::defaultfloat << "\n";
    }

    std::vector<const PhaseStats*> by_excl;
    for (const PhaseStats& p : tl.host_phases) by_excl.push_back(&p);
    std::sort(by_excl.begin(), by_excl.end(), [](const PhaseStats* a, const PhaseStats* b) {
      return a->exclusive_ns != b->exclusive_ns ? a->exclusive_ns > b->exclusive_ns
                                                : a->name < b->name;
    });
    std::cout << "\ntop exclusive costs (where the wall time actually went):\n";
    for (std::size_t i = 0; i < by_excl.size() && i < 8; ++i) {
      const PhaseStats& p = *by_excl[i];
      const double pct = root_ns > 0 ? 100.0 * static_cast<double>(p.exclusive_ns) /
                                           static_cast<double>(root_ns)
                                     : 0.0;
      std::cout << "  " << std::left << std::setw(26) << p.name << std::right
                << std::fixed << std::setprecision(3) << std::setw(13)
                << static_cast<double>(p.exclusive_ns) * 1e-6 << " ms"
                << std::setprecision(1) << std::setw(7) << pct << "%"
                << std::defaultfloat << "\n";
    }
  }

  if (!tl.host_workers.empty()) {
    // A sweep export's workers ran points; a run's island-step workers ran
    // parallel steps, and their utilization is relative to the run.
    const bool sweep = !tl.host_spans.empty();
    const std::uint64_t span_ns = tl.host_worker_span_ns();
    std::cout << (sweep ? "\nsweep workers (" : "\nisland-step workers (")
              << tl.host_workers.size() << (sweep ? ", sweep span " : ", run ")
              << std::fixed << std::setprecision(3) << static_cast<double>(span_ns) * 1e-9
              << " s):\n"
              << std::defaultfloat << std::left << std::setw(10) << "  worker"
              << std::right << std::setw(8) << (sweep ? "points" : "steps") << std::setw(12)
              << "busy(s)" << std::setw(8) << "util" << "\n";
    for (const nocdvfs::obs::HostWorkerStats& w : tl.host_workers) {
      const double util = span_ns > 0 ? 100.0 * static_cast<double>(w.busy_ns) /
                                             static_cast<double>(span_ns)
                                       : 0.0;
      std::cout << "  " << std::left << std::setw(8) << w.worker << std::right
                << std::setw(8) << w.points << std::fixed << std::setprecision(3)
                << std::setw(12) << static_cast<double>(w.busy_ns) * 1e-9
                << std::setprecision(1) << std::setw(7) << util << "%"
                << std::defaultfloat << "\n";
    }
  }

  // A manifest entry read as a count, when present and well formed.
  const auto manifest_count = [&tl](const std::string& key) -> std::optional<std::uint64_t> {
    for (const auto& [k, value] : tl.manifest) {
      std::uint64_t n = 0;
      const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), n);
      if (k == key && ec == std::errc{} && end == value.data() + value.size()) return n;
    }
    return std::nullopt;
  };

  // Skip-idle: why awake tiles were kept, as shares of the kept tile-steps
  // (the four noc.awake.* manifest counts, in the order they are tested).
  static constexpr const char* kAwakeReasons[] = {"buffered_flits", "router_input", "ni_busy",
                                                  "ni_input"};
  std::vector<std::pair<const char*, std::uint64_t>> awake;
  std::uint64_t kept = 0;
  for (const char* reason : kAwakeReasons) {
    if (const auto steps = manifest_count(std::string("noc.awake.") + reason)) {
      awake.emplace_back(reason, *steps);
      kept += *steps;
    }
  }
  if (!awake.empty()) {
    std::cout << "\nwhy tiles stayed awake (" << kept << " kept tile-steps):\n";
    for (const auto& [reason, steps] : awake) {
      const double pct =
          kept > 0 ? 100.0 * static_cast<double>(steps) / static_cast<double>(kept) : 0.0;
      std::cout << "  " << std::left << std::setw(26) << reason << std::right
                << std::setw(14) << steps << std::fixed << std::setprecision(1)
                << std::setw(8) << pct << "%" << std::defaultfloat << "\n";
    }
  }

  // How the run's island steps were shared among host threads.
  const auto step_workers = manifest_count("noc.step_workers");
  const auto parallel = manifest_count("noc.parallel_steps");
  const auto serial = manifest_count("noc.serial_steps");
  if (step_workers && parallel && serial) {
    std::cout << "\nisland steps: " << *parallel << " parallel on up to " << *step_workers
              << " step workers, " << *serial << " serial\n";
  }

  if (!tl.manifest.empty()) {
    std::cout << "\nrun manifest (" << tl.manifest.size() << " entries):\n";
    for (const auto& [key, value] : tl.manifest) {
      std::cout << "  " << std::left << std::setw(32) << key << std::right << "  "
                << value << "\n";
    }
  }
  return 0;
}

int cmd_summary(const Timeline& tl, const std::string& path) {
  print_header(tl, path);

  // Stall-cause breakdown: each series sums (over windows and tiles) to the
  // routers' whole-run counters; busy_vc_cycles is the denominator.
  const char* kStalls[] = {"stall_route", "stall_vc_alloc", "stall_switch",
                           "stall_credit", "stall_drop"};
  std::uint64_t busy = 0;
  if (const MetricSeries* s = tl.find_series("busy_vc_cycles")) {
    for (int e = 0; e < s->entities; ++e) busy += s->entity_total(e);
  }
  std::cout << "\nstall breakdown (VC-cycles, % of " << busy << " busy):\n";
  std::uint64_t stall_sum = 0;
  for (const char* name : kStalls) {
    const MetricSeries* s = tl.find_series(name);
    if (s == nullptr) continue;
    std::uint64_t total = 0;
    for (int e = 0; e < s->entities; ++e) total += s->entity_total(e);
    stall_sum += total;
    std::cout << "  " << std::left << std::setw(15) << name << std::right
              << std::setw(12) << total << "  ";
    if (busy > 0) {
      std::cout << std::fixed << std::setprecision(1)
                << 100.0 * static_cast<double>(total) / static_cast<double>(busy)
                << std::defaultfloat << "%";
    }
    std::cout << "\n";
  }
  if (const MetricSeries* s = tl.find_series("flits_forwarded")) {
    std::uint64_t fw = 0;
    for (int e = 0; e < s->entities; ++e) fw += s->entity_total(e);
    std::cout << "  " << std::left << std::setw(15) << "forwarding" << std::right
              << std::setw(12) << (busy - std::min(busy, stall_sum)) << "  ("
              << fw << " flits forwarded)\n";
  }

  // Top-5 hot tiles.
  if (const MetricSeries* s = tl.find_series("flits_forwarded")) {
    std::vector<std::pair<std::uint64_t, int>> hot;
    for (int e = 0; e < s->entities; ++e) hot.push_back({s->entity_total(e), e});
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::cout << "\nhot tiles (router: flits forwarded):";
    for (std::size_t i = 0; i < hot.size() && i < 5; ++i) {
      std::cout << "  r" << hot[i].second << ": " << hot[i].first;
    }
    std::cout << "\n";
  }
  std::cout << "\n";
  if (tl.find_series("link_flits") != nullptr) {
    cmd_links(tl, 5);
  } else {
    std::cout << "(no per-link series; run with telemetry=full for link stats)\n";
  }
  std::cout << "\n";
  cmd_islands(tl);
  if (!tl.histograms.empty()) {
    std::cout << "\n";
    cmd_percentiles(tl, path);
  }
  std::cout << "\nevents: " << tl.events.size() << " (nocdvfs_report events " << path
            << " to list)\n";
  std::cout << "\n";
  return cmd_heatmap(tl, "flits_forwarded");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "diff") {
    return nocdvfs::sim::result_diff_main({argv + 2, argv + argc}, std::cout, std::cerr);
  }
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  try {
    const Timeline tl = nocdvfs::obs::read_timeline_binary(path);
    if (cmd == "summary") return cmd_summary(tl, path);
    if (cmd == "heatmap") {
      const std::string metric = argc > 3 ? argv[3] : "flits_forwarded";
      return cmd_heatmap(tl, metric);
    }
    if (cmd == "links") {
      const int count = argc > 3 ? std::stoi(argv[3]) : 10;
      return cmd_links(tl, count);
    }
    if (cmd == "islands") return cmd_islands(tl);
    if (cmd == "percentiles") return cmd_percentiles(tl, path);
    if (cmd == "profile") return cmd_profile(tl, path);
    if (cmd == "events") {
      const int count = argc > 3 ? std::stoi(argv[3]) : 0;
      return cmd_events(tl, count);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
