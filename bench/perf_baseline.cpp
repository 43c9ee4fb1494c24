/// \file perf_baseline.cpp
/// The tracked performance baseline: runs a fixed sweep of end-to-end
/// `Simulator::run` scenarios under wall-clock timing and emits
/// `BENCH_core.json` — simulated cycles/sec, packets/sec and ns/cycle per
/// scenario plus host metadata — in a line-oriented JSON dialect (one
/// scenario object per line) so the built-in compare mode needs no JSON
/// library.
///
///   perf_baseline out=BENCH_core.json            # (re)generate a baseline
///   perf_baseline compare=BENCH_core.json        # run fresh, diff, exit 1
///                                                #   on >15% regression
///   perf_baseline compare=... tolerance=0.20     # custom gate
///   perf_baseline fast=1 ...                     # CI-sized phases
///
/// Cross-machine comparisons are normalized by `calib_mops`, a short
/// integer-ALU spin loop measured at startup on both the baseline host
/// (recorded in the file) and the comparing host: the gate tests the
/// *calibration-relative* throughput ratio, so a slower CI runner does not
/// read as a simulator regression. The sweep deliberately includes
/// always-step twins (`network.skip_idle = false`, no Scenario key) of the
/// idle/low 32×32 scenarios — the speedup column they imply is the number
/// the skip-idle hot path is accountable for (ROADMAP acceptance: ≥2× on
/// idle/low-load 32×32).

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/strings.hpp"
#include "obs/manifest.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace nocdvfs;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Host speed yardstick: xorshift64 steps per microsecond over ~0.2 s.
/// Pure integer ALU + registers — stable across runs, roughly proportional
/// to single-core speed, which is what the simulator is bound by. The
/// measurement itself lives in obs/manifest.cpp so run manifests record
/// the same `host.calib_mops` the compare gate normalizes by.
double calibrate_mops() { return obs::host_calib_mops(); }

struct PerfScenario {
  std::string name;
  sim::Scenario s;
};

/// The fixed sweep. Fast mode shrinks the phases (same scenarios, same
/// names) so CI stays under a minute; a fast-mode file and a full-mode
/// file are still comparable because the gate is throughput, not runtime.
std::vector<PerfScenario> perf_sweep(bool fast) {
  const std::uint64_t warmup = fast ? 500 : 2000;
  const std::uint64_t measure = fast ? 5000 : 20000;
  auto base = [&](int k, double lambda) {
    sim::Scenario s;
    s.network.width = k;
    s.network.height = k;
    s.lambda = lambda;
    s.packet_size = 20;
    s.seed = 1;
    s.control_period = 5000;
    s.phases.warmup_node_cycles = warmup;
    s.phases.measure_node_cycles = measure;
    s.phases.adaptive_warmup = false;
    return s;
  };

  std::vector<PerfScenario> out;
  out.push_back({"idle_32x32", base(32, 0.0)});
  out.push_back({"low_32x32", base(32, 0.01)});
  {
    PerfScenario p{"idle_32x32_alwaysstep", base(32, 0.0)};
    p.s.network.skip_idle = false;
    out.push_back(p);
  }
  {
    PerfScenario p{"low_32x32_alwaysstep", base(32, 0.01)};
    p.s.network.skip_idle = false;
    out.push_back(p);
  }
  out.push_back({"sat_16x16", base(16, 0.5)});
  {
    PerfScenario p{"low_16x16_quadrants", base(16, 0.01)};
    p.s.islands = "quadrants";
    p.s.policy.policy = sim::Policy::Rmsd;
    out.push_back(p);
  }
  {
    PerfScenario p{"mid_8x8_quadrants_thermal", base(8, 0.15)};
    p.s.islands = "quadrants";
    p.s.thermal = true;
    p.s.policy.policy = sim::Policy::Rmsd;
    out.push_back(p);
  }
  {
    PerfScenario p{"paper_5x5_rmsd", base(5, 0.15)};
    p.s.policy.policy = sim::Policy::Rmsd;
    out.push_back(p);
  }
  return out;
}

struct Measurement {
  std::string name;
  std::uint64_t node_cycles = 0;
  std::uint64_t packets = 0;
  double wall_s = 0.0;

  double cycles_per_sec() const { return static_cast<double>(node_cycles) / wall_s; }
  double packets_per_sec() const { return static_cast<double>(packets) / wall_s; }
  double ns_per_cycle() const { return wall_s * 1e9 / static_cast<double>(node_cycles); }
};

Measurement measure_scenario(const PerfScenario& p, int repeats) {
  Measurement m;
  m.name = p.name;
  m.node_cycles = p.s.phases.warmup_node_cycles + p.s.phases.measure_node_cycles;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const sim::RunResult r = sim::run(p.s);
    const double wall = seconds_since(t0);
    if (rep == 0 || wall < m.wall_s) m.wall_s = wall;  // best-of: least noise
    m.packets = r.packets_delivered;
  }
  return m;
}

/// One scenario's host phase profile for the v2 "profile" block.
struct ProfileRow {
  std::string name;
  obs::Profile profile;
};

void write_json(std::ostream& os, const std::vector<Measurement>& rows, bool fast,
                double calib_mops, const std::vector<ProfileRow>& profiles) {
  os << "{\n";
  // v2 appends the per-scenario "profile" block; the compare parser keys on
  // per-line "name"/"cycles_per_sec" pairs, so v1 files stay comparable
  // (phase lines deliberately use "phase", not "name").
  os << "  \"schema\": \"nocdvfs-bench-core-v2\",\n";
  os << "  \"mode\": \"" << (fast ? "fast" : "full") << "\",\n";
  os << "  \"host\": { \"calib_mops\": " << std::fixed << std::setprecision(1) << calib_mops
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \""
#if defined(__clang__)
     << "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
     << "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
     << "unknown"
#endif
     << "\", \"asserts\": "
#if defined(NOCDVFS_ENABLE_ASSERTS)
     << 1
#else
     << 0
#endif
     << " },\n";
  os << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    os << "    { \"name\": " << common::json_quote(m.name) << ", \"node_cycles\": "
       << m.node_cycles << ", \"packets\": " << m.packets << ", \"wall_s\": "
       << std::setprecision(4) << m.wall_s << ", \"cycles_per_sec\": " << std::setprecision(1)
       << m.cycles_per_sec() << ", \"packets_per_sec\": " << m.packets_per_sec()
       << ", \"ns_per_cycle\": " << std::setprecision(2) << m.ns_per_cycle() << " }"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (!profiles.empty()) {
    os << ",\n  \"profile\": [\n";
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const ProfileRow& pr = profiles[i];
      os << "    { \"scenario\": " << common::json_quote(pr.name) << ", \"phases\": [\n";
      const auto& phases = pr.profile.phases;
      for (std::size_t p = 0; p < phases.size(); ++p) {
        os << "      { \"phase\": " << common::json_quote(phases[p].name)
           << ", \"depth\": " << phases[p].depth << ", \"calls\": " << phases[p].calls
           << ", \"incl_ms\": " << std::setprecision(3)
           << static_cast<double>(phases[p].inclusive_ns) * 1e-6
           << ", \"excl_ms\": " << static_cast<double>(phases[p].exclusive_ns) * 1e-6
           << " }" << (p + 1 < phases.size() ? "," : "") << "\n";
      }
      os << "    ] }" << (i + 1 < profiles.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
  } else {
    os << "\n";
  }
  os << "}\n";
}

/// Minimal extraction from the line-oriented dialect this tool writes: the
/// value following `"key": ` on a line (number or quoted string).
std::string extract(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",} \n", begin);
  }
  return line.substr(begin, end - begin);
}

struct Baseline {
  double calib_mops = 0.0;
  std::map<std::string, double> cycles_per_sec;
};

bool load_baseline(const std::string& path, Baseline& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  try {
    while (std::getline(in, line)) {
      if (line.find("\"calib_mops\"") != std::string::npos) {
        out.calib_mops = std::stod(extract(line, "calib_mops"));
      }
      const std::string name = extract(line, "name");
      if (!name.empty()) {
        out.cycles_per_sec[name] = std::stod(extract(line, "cycles_per_sec"));
      }
    }
  } catch (const std::logic_error&) {  // std::stod: not a number, or out of range
    return false;
  }
  return !out.cycles_per_sec.empty() && out.calib_mops > 0.0;
}

void print_table(const std::vector<Measurement>& rows) {
  std::cout << std::left << std::setw(28) << "scenario" << std::right << std::setw(12)
            << "wall [s]" << std::setw(16) << "cycles/sec" << std::setw(14) << "ns/cycle"
            << std::setw(14) << "packets/s" << "\n";
  for (const Measurement& m : rows) {
    std::cout << std::left << std::setw(28) << m.name << std::right << std::fixed
              << std::setw(12) << std::setprecision(3) << m.wall_s << std::setw(16)
              << std::setprecision(0) << m.cycles_per_sec() << std::setw(14)
              << std::setprecision(1) << m.ns_per_cycle() << std::setw(14)
              << std::setprecision(0) << m.packets_per_sec() << "\n";
  }
  // The number the skip-idle hot path is accountable for.
  auto find = [&](const std::string& n) -> const Measurement* {
    for (const Measurement& m : rows) {
      if (m.name == n) return &m;
    }
    return nullptr;
  };
  for (const auto& [opt, ref] :
       {std::pair{"idle_32x32", "idle_32x32_alwaysstep"},
        {"low_32x32", "low_32x32_alwaysstep"}}) {
    const Measurement* a = find(opt);
    const Measurement* b = find(ref);
    if (a && b) {
      std::cout << "skip-idle speedup (" << opt << "): " << std::setprecision(2)
                << b->wall_s / a->wall_s << "x\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::Config cfg;
  cfg.declare("out", "", "write the fresh BENCH_core.json to this path");
  cfg.declare("compare", "",
              "baseline BENCH_core.json to diff against (exit 1 on regression)");
  cfg.declare_double("tolerance", 0.15,
                     "allowed relative throughput loss before the compare gate fails");
  cfg.declare_int("repeats", 3, "timed repetitions per scenario (best-of)");
  cfg.declare_bool("fast", false, "CI-sized phases (~4x faster)");
  return common::run_main(cfg, argc, argv, [&] {
    const bool fast = cfg.get_bool("fast");
    const int repeats = static_cast<int>(cfg.get_int("repeats"));
    // Reject an unwritable out= and load the compare= baseline before the
    // sweep, so out= may name the baseline it is compared against. Append
    // mode leaves the file as it is.
    const std::string out_path = cfg.get_string("out");
    if (!out_path.empty() && !std::ofstream(out_path, std::ios::app)) {
      throw std::runtime_error("cannot open output file '" + out_path + "' for writing");
    }
    const std::string compare_path = cfg.get_string("compare");
    Baseline base;
    if (!compare_path.empty() && !load_baseline(compare_path, base)) {
      throw std::runtime_error("cannot parse baseline " + compare_path +
                               " (regenerate with out=" + compare_path + ")");
    }
    std::cout << "perf_baseline: " << (fast ? "fast" : "full") << " sweep, best of "
              << repeats << "\n";
    const double calib = calibrate_mops();
    std::cout << "host calibration: " << std::fixed << std::setprecision(1) << calib
              << " Mops (xorshift64)\n\n";

    std::vector<Measurement> rows;
    for (const PerfScenario& p : perf_sweep(fast)) {
      rows.push_back(measure_scenario(p, repeats));
    }
    print_table(rows);

    if (!out_path.empty()) {
      // One extra profiled pass per scenario (prof=on, 1 rep) feeds the v2
      // phase-breakdown block. Kept out of the timed repeats so the profiler
      // can never contaminate the gated numbers.
      std::vector<ProfileRow> profiles;
      for (const PerfScenario& p : perf_sweep(fast)) {
        sim::Scenario s = p.s;
        s.prof = "on";
        const sim::RunResult r = sim::run(s);
        profiles.push_back({p.name, r.host.profile});
      }
      std::ofstream out(out_path);
      if (!out) throw std::runtime_error("cannot open output file '" + out_path + "' for writing");
      write_json(out, rows, fast, calib, profiles);
      std::cout << "\nwrote " << out_path << "\n";
    }

    if (compare_path.empty()) return 0;

    const double tolerance = cfg.get_double("tolerance");
    std::cout << "\ncompare vs " << compare_path << " (baseline host " << std::fixed
              << std::setprecision(1) << base.calib_mops << " Mops, tolerance "
              << static_cast<int>(tolerance * 100) << "%)\n";
    // Full normalized-ratio table, printed on success and failure alike:
    // base/fresh are calibration-relative throughputs (cycles/sec per Mop),
    // ratio > 1 means faster than baseline, headroom is the distance to the
    // gate (negative = regression).
    std::cout << "  " << std::left << std::setw(28) << "scenario" << std::right
              << std::setw(13) << "base(c/Mop)" << std::setw(14) << "fresh(c/Mop)"
              << std::setw(9) << "ratio" << std::setw(11) << "headroom" << "\n";
    bool regressed = false;
    for (const Measurement& m : rows) {
      const auto it = base.cycles_per_sec.find(m.name);
      if (it == base.cycles_per_sec.end()) {
        std::cerr << "  " << m.name << ": MISSING from baseline — regenerate it\n";
        regressed = true;
        continue;
      }
      // Calibration-relative throughput ratio: >1 = faster than baseline.
      const double base_norm = it->second / base.calib_mops;
      const double fresh_norm = m.cycles_per_sec() / calib;
      const double ratio = fresh_norm / base_norm;
      const double headroom = ratio - (1.0 - tolerance);
      const bool fail = headroom < 0.0;
      std::cout << "  " << std::left << std::setw(28) << m.name << std::right << std::fixed
                << std::setprecision(0) << std::setw(13) << base_norm << std::setw(14)
                << fresh_norm << std::setprecision(2) << std::setw(8) << ratio << "x"
                << std::showpos << std::setw(10) << headroom << std::noshowpos
                << (fail ? "  REGRESSION" : "") << "\n";
      regressed = regressed || fail;
    }
    if (regressed) {
      std::cerr << "\nFAIL: throughput regression beyond " << static_cast<int>(tolerance * 100)
                << "% — if intentional, regenerate BENCH_core.json\n";
      return 1;
    }
    std::cout << "\nOK: no scenario regressed beyond the tolerance (max allowed loss "
              << static_cast<int>(tolerance * 100) << "%)\n";
    return 0;
  });
}
