#include "obs/timeline.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace nocdvfs::obs {

namespace {

constexpr std::uint32_t kMagic = 0x4F434F4E;  // 'N' 'O' 'C' 'O' little-endian
/// Bucket count of the histograms in v2/v3 files (read only to be checked
/// and dropped).
constexpr std::size_t kBucketsBeforeV4 = 128;

// ---- binary primitives ----------------------------------------------------

template <typename T>
void put(std::ostream& os, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void put_str(std::ostream& os, const std::string& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

template <typename T>
T get(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("timeline: truncated file");
  return value;
}

std::string get_str(std::istream& is) {
  const auto n = get<std::uint32_t>(is);
  if (n > (1u << 20)) throw std::runtime_error("timeline: implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("timeline: truncated file");
  return s;
}

/// One histogram section, rejected unless snapshot_quantile can walk it:
/// at most `num_buckets` buckets (checked before anything is sized from
/// the count), indices strictly ascending and below `num_buckets`, counts
/// summing to `count`, and min <= max.
HistogramSnapshot get_histogram(std::istream& is, const std::string& path,
                                std::size_t num_buckets) {
  HistogramSnapshot snap;
  snap.label = get_str(is);
  const auto bad = [&](const std::string& why) {
    return std::runtime_error("timeline: '" + path + "' histogram '" + snap.label + "': " + why);
  };
  snap.count = get<std::uint64_t>(is);
  snap.min = get<std::uint64_t>(is);
  snap.max = get<std::uint64_t>(is);
  const auto buckets = get<std::uint32_t>(is);
  if (buckets > num_buckets) {
    throw bad(std::to_string(buckets) + " buckets (at most " + std::to_string(num_buckets) +
              ")");
  }
  snap.bucket_index.reserve(buckets);
  snap.bucket_count.reserve(buckets);
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    const auto index = get<std::uint32_t>(is);
    const auto count = get<std::uint64_t>(is);
    if (index >= num_buckets) {
      throw bad("bucket index " + std::to_string(index) + " out of range");
    }
    if (b > 0 && index <= snap.bucket_index.back()) {
      throw bad("bucket indices not strictly ascending at " + std::to_string(index));
    }
    if (count > ~total) throw bad("bucket counts overflow");
    total += count;
    snap.bucket_index.push_back(index);
    snap.bucket_count.push_back(count);
  }
  if (total != snap.count) {
    throw bad("bucket counts sum to " + std::to_string(total) + ", not count " +
              std::to_string(snap.count));
  }
  if (snap.min > snap.max) throw bad("min exceeds max");
  return snap;
}

// ---- JSON helpers ---------------------------------------------------------

double to_us(std::uint64_t t_ps) { return static_cast<double>(t_ps) * 1e-6; }

void json_str(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xF] << hex[ch & 0xF];
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

/// Emits one trace event object; `first` tracks the array comma.
class EventArray {
 public:
  explicit EventArray(std::ostream& os) : os_(os) { os_ << "[\n"; }
  std::ostream& next() {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << "  ";
    return os_;
  }
  void close() { os_ << "\n]"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

void write_timeline_binary(const Timeline& tl, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("timeline: cannot open '" + path + "' for writing");

  put<std::uint32_t>(os, kMagic);
  put<std::uint32_t>(os, Timeline::kVersion);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.width));
  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.height));
  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.num_routers));
  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.num_islands));
  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.concentration));
  put<double>(os, tl.f_node_hz);
  put<std::uint64_t>(os, tl.control_period_node_cycles);

  for (int i = 0; i < tl.num_islands; ++i) {
    put_str(os, i < static_cast<int>(tl.island_policy.size()) ? tl.island_policy[i] : "");
    put<std::uint32_t>(os, static_cast<std::uint32_t>(
                               i < static_cast<int>(tl.island_nodes.size()) ? tl.island_nodes[i] : 0));
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.window_t_ps.size()));
  for (const std::uint64_t t : tl.window_t_ps) put<std::uint64_t>(os, t);

  for (const IslandWindowRow& row : tl.island_rows) {
    put<double>(os, row.f_hz);
    put<double>(os, row.vdd);
    put<double>(os, row.avg_delay_ns);
    put<double>(os, row.lambda_offered);
    put<double>(os, row.occupancy);
    put<double>(os, row.ctrl_error);
    put<std::uint8_t>(os, row.throttled);
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.links.size()));
  for (const LinkInfo& link : tl.links) {
    put<std::uint32_t>(os, static_cast<std::uint32_t>(link.src_router));
    put<std::uint32_t>(os, static_cast<std::uint32_t>(link.src_port));
    put<std::uint32_t>(os, static_cast<std::uint32_t>(link.dst_router));
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.series.size()));
  for (const MetricSeries& s : tl.series) {
    put_str(os, s.name);
    put<std::uint8_t>(os, static_cast<std::uint8_t>(s.scope));
    put<std::uint8_t>(os, static_cast<std::uint8_t>(s.kind));
    put<std::uint32_t>(os, static_cast<std::uint32_t>(s.entities));
    if (s.kind == MetricKind::Counter) {
      for (const std::uint64_t v : s.counts) put<std::uint64_t>(os, v);
    } else {
      for (const double v : s.gauges) put<double>(os, v);
    }
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.events.size()));
  for (const TimelineEvent& e : tl.events) {
    put<std::uint8_t>(os, static_cast<std::uint8_t>(e.kind));
    put<std::int32_t>(os, e.island);
    put<std::uint64_t>(os, e.t_ps);
    put<double>(os, e.a);
    put<double>(os, e.b);
  }

  // --- v2 sections ---
  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.flights.size()));
  for (const FlightRecord& f : tl.flights) {
    put<std::uint64_t>(os, f.packet_id);
    put<std::int32_t>(os, f.src);
    put<std::int32_t>(os, f.dst);
    put<std::int32_t>(os, f.size_flits);
    put<std::uint8_t>(os, f.traffic_class);
    put<std::uint64_t>(os, f.create_t_ps);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(f.events.size()));
    for (const FlightEvent& ev : f.events) {
      put<std::uint64_t>(os, ev.t_ps);
      put<std::int32_t>(os, ev.router);
      put<std::int32_t>(os, ev.arg);
      put<std::uint8_t>(os, static_cast<std::uint8_t>(ev.stage));
    }
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.histograms.size()));
  for (const HistogramSnapshot& h : tl.histograms) {
    put_str(os, h.label);
    put<std::uint64_t>(os, h.count);
    put<std::uint64_t>(os, h.min);
    put<std::uint64_t>(os, h.max);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(h.bucket_index.size()));
    for (std::size_t b = 0; b < h.bucket_index.size(); ++b) {
      put<std::uint32_t>(os, h.bucket_index[b]);
      put<std::uint64_t>(os, h.bucket_count[b]);
    }
  }

  // --- v3 sections ---
  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.manifest.size()));
  for (const auto& [key, value] : tl.manifest) {
    put_str(os, key);
    put_str(os, value);
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.host_phases.size()));
  for (const PhaseStats& p : tl.host_phases) {
    put_str(os, p.name);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(p.depth));
    put<std::uint64_t>(os, p.calls);
    put<std::uint64_t>(os, p.inclusive_ns);
    put<std::uint64_t>(os, p.exclusive_ns);
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.host_spans.size()));
  for (const HostWorkerSpan& sp : tl.host_spans) {
    put<std::int32_t>(os, sp.worker);
    put<std::uint64_t>(os, sp.point);
    put<std::uint64_t>(os, sp.t0_ns);
    put<std::uint64_t>(os, sp.t1_ns);
  }

  put<std::uint32_t>(os, static_cast<std::uint32_t>(tl.host_workers.size()));
  for (const HostWorkerStats& w : tl.host_workers) {
    put<std::int32_t>(os, w.worker);
    put<std::uint64_t>(os, w.points);
    put<std::uint64_t>(os, w.busy_ns);
  }

  os.flush();
  if (!os) throw std::runtime_error("timeline: write to '" + path + "' failed");
}

Timeline read_timeline_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("timeline: cannot open '" + path + "'");
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  const auto bad = [&](const char* field, const std::string& why) {
    return std::runtime_error("timeline: '" + path + "' " + field + ": " + why);
  };
  // Length fields are checked before anything is sized from them: a count
  // stored as int must fit one, and `n` entries of at least `min_bytes`
  // each must fit in the bytes left in the file.
  const auto as_int = [&](std::uint32_t v, const char* field) {
    if (v > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
      throw bad(field, std::to_string(v) + " exceeds INT_MAX");
    }
    return static_cast<int>(v);
  };
  const auto count = [&](std::uint64_t n, std::uint64_t min_bytes, const char* field) {
    const std::uint64_t left = file_size - static_cast<std::uint64_t>(is.tellg());
    if (n > left / min_bytes) {
      throw bad(field, std::to_string(n) + " entries of at least " + std::to_string(min_bytes) +
                           " bytes each, but " + std::to_string(left) + " bytes are left");
    }
    return static_cast<std::size_t>(n);
  };

  char magic_bytes[4] = {};
  is.read(magic_bytes, sizeof magic_bytes);
  if (!is) throw std::runtime_error("timeline: truncated file");
  std::uint32_t magic = 0;
  std::memcpy(&magic, magic_bytes, sizeof magic);
  if (magic != kMagic) {
    // The most common mix-up: handing a .noctrace packet trace to this
    // reader. Name both magics and point at the right tool.
    if (std::memcmp(magic_bytes, "NOCT", 4) == 0) {
      throw std::runtime_error(
          "timeline: '" + path +
          "' starts with magic \"NOCT\" — this is a .noctrace packet trace, not a "
          ".nocobs telemetry timeline (expected magic \"NOCO\"); inspect it with "
          "nocdvfs_trace instead");
    }
    std::string found(magic_bytes, 4);
    for (char& ch : found) {
      if (static_cast<unsigned char>(ch) < 0x20 || static_cast<unsigned char>(ch) > 0x7E) {
        ch = '.';
      }
    }
    throw std::runtime_error("timeline: '" + path +
                             "' is not a .nocobs file (found magic bytes \"" + found +
                             "\", expected \"NOCO\")");
  }
  const auto version = get<std::uint32_t>(is);
  if (version < 1 || version > Timeline::kVersion) {
    throw std::runtime_error("timeline: unsupported version " + std::to_string(version));
  }

  Timeline tl;
  tl.version = version;
  tl.width = as_int(get<std::uint32_t>(is), "width");
  tl.height = as_int(get<std::uint32_t>(is), "height");
  tl.num_routers = as_int(get<std::uint32_t>(is), "num_routers");
  tl.num_islands = as_int(get<std::uint32_t>(is), "num_islands");
  tl.concentration = as_int(get<std::uint32_t>(is), "concentration");
  tl.f_node_hz = get<double>(is);
  tl.control_period_node_cycles = get<std::uint64_t>(is);

  count(static_cast<std::uint64_t>(tl.num_islands), 8, "num_islands");
  for (int i = 0; i < tl.num_islands; ++i) {
    tl.island_policy.push_back(get_str(is));
    tl.island_nodes.push_back(as_int(get<std::uint32_t>(is), "island_nodes"));
  }

  const std::uint32_t windows = get<std::uint32_t>(is);
  tl.window_t_ps.reserve(count(windows, 8, "num_windows"));
  for (std::uint32_t w = 0; w < windows; ++w) tl.window_t_ps.push_back(get<std::uint64_t>(is));

  const std::size_t rows = count(
      std::uint64_t{windows} * static_cast<std::uint64_t>(tl.num_islands), 49, "island_rows");
  tl.island_rows.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    IslandWindowRow row;
    row.f_hz = get<double>(is);
    row.vdd = get<double>(is);
    row.avg_delay_ns = get<double>(is);
    row.lambda_offered = get<double>(is);
    row.occupancy = get<double>(is);
    row.ctrl_error = get<double>(is);
    row.throttled = get<std::uint8_t>(is);
    tl.island_rows.push_back(row);
  }

  const auto num_links = get<std::uint32_t>(is);
  tl.links.reserve(count(num_links, 12, "num_links"));
  for (std::uint32_t l = 0; l < num_links; ++l) {
    LinkInfo link;
    link.src_router = as_int(get<std::uint32_t>(is), "link src_router");
    link.src_port = as_int(get<std::uint32_t>(is), "link src_port");
    link.dst_router = as_int(get<std::uint32_t>(is), "link dst_router");
    tl.links.push_back(link);
  }

  const auto num_series = get<std::uint32_t>(is);
  tl.series.reserve(count(num_series, 10, "num_series"));
  for (std::uint32_t si = 0; si < num_series; ++si) {
    MetricSeries s;
    s.name = get_str(is);
    s.scope = static_cast<MetricScope>(get<std::uint8_t>(is));
    s.kind = static_cast<MetricKind>(get<std::uint8_t>(is));
    s.entities = as_int(get<std::uint32_t>(is), "series entities");
    const std::size_t n =
        count(std::uint64_t{windows} * static_cast<std::uint64_t>(s.entities), 8, "series values");
    if (s.kind == MetricKind::Counter) {
      s.counts.reserve(n);
      for (std::size_t i = 0; i < n; ++i) s.counts.push_back(get<std::uint64_t>(is));
    } else {
      s.gauges.reserve(n);
      for (std::size_t i = 0; i < n; ++i) s.gauges.push_back(get<double>(is));
    }
    tl.series.push_back(std::move(s));
  }

  const auto num_events = get<std::uint32_t>(is);
  tl.events.reserve(count(num_events, 29, "num_events"));
  for (std::uint32_t e = 0; e < num_events; ++e) {
    TimelineEvent ev;
    ev.kind = static_cast<EventKind>(get<std::uint8_t>(is));
    ev.island = get<std::int32_t>(is);
    ev.t_ps = get<std::uint64_t>(is);
    ev.a = get<double>(is);
    ev.b = get<double>(is);
    tl.events.push_back(ev);
  }

  if (version >= 2) {
    const auto num_flights = get<std::uint32_t>(is);
    tl.flights.reserve(count(num_flights, 33, "num_flights"));
    for (std::uint32_t f = 0; f < num_flights; ++f) {
      FlightRecord rec;
      rec.packet_id = get<std::uint64_t>(is);
      rec.src = get<std::int32_t>(is);
      rec.dst = get<std::int32_t>(is);
      rec.size_flits = get<std::int32_t>(is);
      rec.traffic_class = get<std::uint8_t>(is);
      rec.create_t_ps = get<std::uint64_t>(is);
      const auto num_fe = get<std::uint32_t>(is);
      rec.events.reserve(count(num_fe, 17, "flight events"));
      for (std::uint32_t e = 0; e < num_fe; ++e) {
        FlightEvent ev;
        ev.t_ps = get<std::uint64_t>(is);
        ev.router = get<std::int32_t>(is);
        ev.arg = get<std::int32_t>(is);
        ev.stage = static_cast<FlightStage>(get<std::uint8_t>(is));
        rec.events.push_back(ev);
      }
      tl.flights.push_back(std::move(rec));
    }

    const auto num_hists = get<std::uint32_t>(is);
    const std::size_t num_buckets =
        version >= 4 ? LatencyHistogram::kNumBuckets : kBucketsBeforeV4;
    count(num_hists, 32, "num_histograms");
    for (std::uint32_t h = 0; h < num_hists; ++h) {
      HistogramSnapshot snap = get_histogram(is, path, num_buckets);
      // Before v4 the buckets had another meaning; no reader of them is kept.
      if (version >= 4) tl.histograms.push_back(std::move(snap));
    }
  }

  if (version >= 3) {
    const auto num_manifest = get<std::uint32_t>(is);
    tl.manifest.reserve(count(num_manifest, 8, "num_manifest"));
    for (std::uint32_t m = 0; m < num_manifest; ++m) {
      std::string key = get_str(is);
      std::string value = get_str(is);
      tl.manifest.emplace_back(std::move(key), std::move(value));
    }

    const auto num_phases = get<std::uint32_t>(is);
    tl.host_phases.reserve(count(num_phases, 32, "num_phases"));
    for (std::uint32_t p = 0; p < num_phases; ++p) {
      PhaseStats ps;
      ps.name = get_str(is);
      ps.depth = as_int(get<std::uint32_t>(is), "phase depth");
      ps.calls = get<std::uint64_t>(is);
      ps.inclusive_ns = get<std::uint64_t>(is);
      ps.exclusive_ns = get<std::uint64_t>(is);
      tl.host_phases.push_back(std::move(ps));
    }

    const auto num_spans = get<std::uint32_t>(is);
    tl.host_spans.reserve(count(num_spans, 28, "num_spans"));
    for (std::uint32_t sp = 0; sp < num_spans; ++sp) {
      HostWorkerSpan span;
      span.worker = get<std::int32_t>(is);
      span.point = get<std::uint64_t>(is);
      span.t0_ns = get<std::uint64_t>(is);
      span.t1_ns = get<std::uint64_t>(is);
      tl.host_spans.push_back(span);
    }

    const auto num_workers = get<std::uint32_t>(is);
    tl.host_workers.reserve(count(num_workers, 20, "num_workers"));
    for (std::uint32_t w = 0; w < num_workers; ++w) {
      HostWorkerStats stats;
      stats.worker = get<std::int32_t>(is);
      stats.points = get<std::uint64_t>(is);
      stats.busy_ns = get<std::uint64_t>(is);
      tl.host_workers.push_back(stats);
    }
  }
  return tl;
}

void write_timeline_perfetto(const Timeline& tl, std::ostream& os) {
  // µs timestamps need the full double mantissa or adjacent windows can
  // round to the same value and break monotonicity checks.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"traceEvents\": ";
  EventArray arr(os);

  // Process metadata: pid 0 is the network, pid i+1 is island i.
  {
    auto& o = arr.next();
    o << R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"network"}})";
  }
  for (int i = 0; i < tl.num_islands; ++i) {
    const std::string policy =
        i < static_cast<int>(tl.island_policy.size()) ? tl.island_policy[i] : "?";
    auto& o = arr.next();
    o << R"({"name":"process_name","ph":"M","pid":)" << (i + 1)
      << R"(,"tid":0,"args":{"name":)";
    json_str(o, "island " + std::to_string(i) + " (" + policy + ")");
    o << "}}";
  }

  // Control-window spans + frequency counter track, in window order so
  // every per-track timestamp sequence is non-decreasing.
  for (int w = 0; w < tl.windows(); ++w) {
    const std::uint64_t start_ps = w == 0 ? 0 : tl.window_t_ps[static_cast<std::size_t>(w) - 1];
    const std::uint64_t end_ps = tl.window_t_ps[static_cast<std::size_t>(w)];
    for (int i = 0; i < tl.num_islands; ++i) {
      const IslandWindowRow& row = tl.island_row(w, i);
      {
        auto& o = arr.next();
        o << R"({"name":"control window","cat":"control","ph":"X","pid":)" << (i + 1)
          << R"(,"tid":1,"ts":)" << to_us(start_ps) << R"(,"dur":)"
          << to_us(end_ps - start_ps) << R"(,"args":{"f_ghz":)" << row.f_hz * 1e-9
          << R"(,"vdd":)" << row.vdd << R"(,"avg_delay_ns":)" << row.avg_delay_ns
          << R"(,"lambda_offered":)" << row.lambda_offered << R"(,"occupancy":)"
          << row.occupancy << R"(,"ctrl_error":)" << row.ctrl_error << R"(,"throttled":)"
          << static_cast<int>(row.throttled) << "}}";
      }
      {
        auto& o = arr.next();
        o << R"({"name":"f_ghz","ph":"C","pid":)" << (i + 1) << R"(,"tid":0,"ts":)"
          << to_us(end_ps) << R"(,"args":{"f_ghz":)" << row.f_hz * 1e-9 << "}}";
      }
    }
  }

  // Instants. Events are recorded in time order already.
  for (const TimelineEvent& e : tl.events) {
    const int pid = e.island >= 0 ? e.island + 1 : 0;
    auto& o = arr.next();
    o << R"({"name":)";
    json_str(o, to_string(e.kind));
    o << R"(,"cat":"event","ph":"i","s":"p","pid":)" << pid << R"(,"tid":0,"ts":)"
      << to_us(e.t_ps) << R"(,"args":{"a":)" << e.a << R"(,"b":)" << e.b << "}}";
  }

  // Sampled packet flights: one process, one track per flight. Each router
  // visit becomes an "X" hop span (ts = head arrival, dur = arrival →
  // switch traversal — never zero, the pipeline takes >= 2 router cycles)
  // whose args attribute the per-hop stage waits, and the journey is
  // stitched with "s"/"t"/"f" flow events keyed on the packet id.
  if (!tl.flights.empty()) {
    const int fpid = tl.num_islands + 1;
    {
      auto& o = arr.next();
      o << R"({"name":"process_name","ph":"M","pid":)" << fpid
        << R"(,"tid":0,"args":{"name":"packet flights"}})";
    }
    int tid = 0;
    for (const FlightRecord& f : tl.flights) {
      ++tid;
      std::uint64_t inject_ps = 0, eject_ps = 0;
      bool has_inject = false, has_eject = false;
      for (const FlightEvent& ev : f.events) {
        if (ev.stage == FlightStage::Inject) { inject_ps = ev.t_ps; has_inject = true; }
        if (ev.stage == FlightStage::Eject) { eject_ps = ev.t_ps; has_eject = true; }
      }
      // Source-queue wait before injection (skipped when zero-width).
      if (has_inject && inject_ps > f.create_t_ps) {
        auto& o = arr.next();
        o << R"({"name":"src queue","cat":"flight","ph":"X","pid":)" << fpid
          << R"(,"tid":)" << tid << R"(,"ts":)" << to_us(f.create_t_ps) << R"(,"dur":)"
          << to_us(inject_ps - f.create_t_ps) << R"(,"args":{"packet_id":)" << f.packet_id
          << R"(,"src":)" << f.src << R"(,"dst":)" << f.dst << "}}";
      }
      // Hop spans: walk the per-router milestones in order.
      std::uint64_t arrive_ps = 0, route_ps = 0, grant_ps = 0;
      bool in_hop = false;
      for (const FlightEvent& ev : f.events) {
        switch (ev.stage) {
          case FlightStage::RouterArrive:
            arrive_ps = ev.t_ps;
            route_ps = grant_ps = 0;
            in_hop = true;
            break;
          case FlightStage::RouteComputed: route_ps = ev.t_ps; break;
          case FlightStage::VcGranted: grant_ps = ev.t_ps; break;
          case FlightStage::RouterDepart:
            if (in_hop && ev.t_ps > arrive_ps) {
              auto& o = arr.next();
              o << R"({"name":)";
              json_str(o, "hop r" + std::to_string(ev.router));
              o << R"(,"cat":"flight","ph":"X","pid":)" << fpid << R"(,"tid":)" << tid
                << R"(,"ts":)" << to_us(arrive_ps) << R"(,"dur":)"
                << to_us(ev.t_ps - arrive_ps) << R"(,"args":{"packet_id":)" << f.packet_id
                << R"(,"router":)" << ev.router << R"(,"out_port":)" << ev.arg
                << R"(,"route_wait_ns":)" << (route_ps > arrive_ps ? (route_ps - arrive_ps) : 0) * 1e-3
                << R"(,"va_wait_ns":)"
                << (grant_ps > 0 && route_ps > 0 && grant_ps > route_ps ? (grant_ps - route_ps) : 0) * 1e-3
                << R"(,"st_wait_ns":)"
                << (grant_ps > 0 && ev.t_ps > grant_ps ? (ev.t_ps - grant_ps) : 0) * 1e-3 << "}}";
            }
            in_hop = false;
            break;
          default: break;
        }
      }
      // Flow events (only for completed inject → eject journeys).
      if (has_inject && has_eject) {
        {
          auto& o = arr.next();
          o << R"({"name":"flight","cat":"flight","ph":"s","id":)" << f.packet_id
            << R"(,"pid":)" << fpid << R"(,"tid":)" << tid << R"(,"ts":)"
            << to_us(inject_ps) << "}";
        }
        for (const FlightEvent& ev : f.events) {
          if (ev.stage != FlightStage::RouterDepart || ev.t_ps >= eject_ps) continue;
          auto& o = arr.next();
          o << R"({"name":"flight","cat":"flight","ph":"t","id":)" << f.packet_id
            << R"(,"pid":)" << fpid << R"(,"tid":)" << tid << R"(,"ts":)"
            << to_us(ev.t_ps) << "}";
        }
        {
          auto& o = arr.next();
          o << R"({"name":"flight","cat":"flight","ph":"f","bp":"e","id":)" << f.packet_id
            << R"(,"pid":)" << fpid << R"(,"tid":)" << tid << R"(,"ts":)"
            << to_us(eject_ps) << "}";
        }
      }
    }
  }

  // Host process (pid = num_islands + 2): the simulator's own phase
  // profile and, for sweep exports, one track per SweepRunner worker.
  if (!tl.host_phases.empty() || !tl.host_spans.empty()) {
    const int hpid = tl.num_islands + 2;
    const auto ns_to_us = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; };
    {
      auto& o = arr.next();
      o << R"({"name":"process_name","ph":"M","pid":)" << hpid
        << R"(,"tid":0,"args":{"name":"host"}})";
    }
    if (!tl.host_phases.empty()) {
      {
        auto& o = arr.next();
        o << R"({"name":"thread_name","ph":"M","pid":)" << hpid
          << R"(,"tid":0,"args":{"name":"phases"}})";
      }
      // The profile stores aggregates (per-phase totals), not raw events,
      // so the flame view is a reconstruction: siblings are laid side by
      // side inside their parent's inclusive span, preorder. A per-depth
      // cursor tracks where the next span at that depth starts.
      std::vector<std::uint64_t> cursor(1, 0);
      for (const PhaseStats& p : tl.host_phases) {
        const std::size_t d = static_cast<std::size_t>(p.depth);
        if (d >= cursor.size()) cursor.resize(d + 1, 0);
        const std::uint64_t start = cursor[d];
        auto& o = arr.next();
        o << R"({"name":)";
        json_str(o, p.name);
        o << R"(,"cat":"host","ph":"X","pid":)" << hpid << R"(,"tid":0,"ts":)"
          << ns_to_us(start) << R"(,"dur":)" << ns_to_us(p.inclusive_ns)
          << R"(,"args":{"calls":)" << p.calls << R"(,"inclusive_ms":)"
          << static_cast<double>(p.inclusive_ns) * 1e-6 << R"(,"exclusive_ms":)"
          << static_cast<double>(p.exclusive_ns) * 1e-6 << "}}";
        cursor[d] = start + p.inclusive_ns;
        if (d + 1 >= cursor.size()) cursor.resize(d + 2, 0);
        cursor[d + 1] = start;  // children start at this phase's origin
      }
    }
    if (!tl.host_spans.empty()) {
      std::uint64_t sweep_end_ns = 0;
      for (const HostWorkerSpan& sp : tl.host_spans) {
        if (sp.t1_ns > sweep_end_ns) sweep_end_ns = sp.t1_ns;
      }
      for (const HostWorkerStats& w : tl.host_workers) {
        const double util =
            sweep_end_ns > 0 ? static_cast<double>(w.busy_ns) /
                                   static_cast<double>(sweep_end_ns) * 100.0
                             : 0.0;
        char util_buf[48];
        std::snprintf(util_buf, sizeof util_buf, "%.0f%% busy", util);
        auto& o = arr.next();
        o << R"({"name":"thread_name","ph":"M","pid":)" << hpid << R"(,"tid":)"
          << (w.worker + 1) << R"(,"args":{"name":)";
        json_str(o, "worker " + std::to_string(w.worker) + " (" +
                        std::to_string(w.points) + " pts, " + util_buf + ")");
        o << "}}";
      }
      for (const HostWorkerSpan& sp : tl.host_spans) {
        auto& o = arr.next();
        o << R"({"name":)";
        json_str(o, "point #" + std::to_string(sp.point));
        o << R"(,"cat":"host","ph":"X","pid":)" << hpid << R"(,"tid":)"
          << (sp.worker + 1) << R"(,"ts":)" << ns_to_us(sp.t0_ns) << R"(,"dur":)"
          << ns_to_us(sp.t1_ns - sp.t0_ns) << R"(,"args":{"point":)" << sp.point
          << R"(,"worker":)" << sp.worker << "}}";
      }
    }
  }

  arr.close();
  os << ",\n\"displayTimeUnit\": \"ns\"\n}\n";
}

void write_timeline_perfetto(const Timeline& tl, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("timeline: cannot open '" + path + "' for writing");
  write_timeline_perfetto(tl, os);
  os.flush();
  if (!os) throw std::runtime_error("timeline: write to '" + path + "' failed");
}

}  // namespace nocdvfs::obs
