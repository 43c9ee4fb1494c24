#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/binary_io.hpp"
#include "common/strings.hpp"

namespace nocdvfs::obs {

namespace {

constexpr std::uint32_t kMagic = 0x4F434F4E;  // 'N' 'O' 'C' 'O' little-endian
/// Bucket count of the histograms in v2/v3 files (read only to be checked
/// and dropped).
constexpr std::size_t kBucketsBeforeV4 = 128;
/// Longest string the reader accepts.
constexpr std::uint32_t kMaxStringBytes = 1u << 20;

static_assert(sizeof(int) == 4, ".nocobs stores int fields in 4 bytes");

// ---- the .nocobs codec ------------------------------------------------------
//
// `walk` is the format: it names every field once, in file order. Three Io
// types run it. Writer encodes a Timeline. Reader decodes one and checks
// every length before anything is sized from it. Sizer counts the bytes of
// one entry at its smallest (every string and nested list empty), which is
// how many bytes the reader requires per entry when it bounds a count by
// the bytes left in the file.

/// A field's wire type: an enum travels as its underlying integer.
template <class T>
struct Wire {
  using type = T;
};
template <class T>
  requires std::is_enum_v<T>
struct Wire<T> {
  using type = std::underlying_type_t<T>;
};
template <class T>
using wire_t = typename Wire<T>::type;

class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::ostream& os) : os_(os) {}

  std::uint32_t preamble() {
    (*this)(kMagic, Timeline::kVersion);
    return Timeline::kVersion;
  }
  template <class... Ts>
  void operator()(const Ts&... values) {
    (put(values), ...);
  }
  void as_u32(int value, const char*) { put(static_cast<std::uint32_t>(value)); }
  void str(const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    os_.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  std::size_t count(std::uint64_t n, std::uint64_t, const char*) {
    return static_cast<std::size_t>(n);
  }

 private:
  template <class T>
  void put(const T& value) {
    unsigned char bytes[sizeof(wire_t<T>)];
    common::put_le(bytes, static_cast<wire_t<T>>(value));
    os_.write(reinterpret_cast<const char*>(bytes), sizeof bytes);
  }

  std::ostream& os_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  Reader(std::istream& is, std::uint64_t size, const std::string& path)
      : is_(is), size_(size), path_(path) {}

  /// The magic (naming the right tool for a .noctrace) and a version this
  /// reader knows.
  std::uint32_t preamble() {
    unsigned char magic[4];
    read(magic, sizeof magic);
    if (common::get_le<std::uint32_t>(magic) != kMagic) {
      if (std::memcmp(magic, "NOCT", 4) == 0) {
        throw std::runtime_error(
            "timeline: '" + path_ +
            "' starts with magic \"NOCT\" — this is a .noctrace packet trace, not a "
            ".nocobs telemetry timeline (expected magic \"NOCO\"); inspect it with "
            "nocdvfs_trace instead");
      }
      std::string found(reinterpret_cast<const char*>(magic), 4);
      for (char& ch : found) {
        if (static_cast<unsigned char>(ch) < 0x20 || static_cast<unsigned char>(ch) > 0x7E) {
          ch = '.';
        }
      }
      throw std::runtime_error("timeline: '" + path_ +
                               "' is not a .nocobs file (found magic bytes \"" + found +
                               "\", expected \"NOCO\")");
    }
    std::uint32_t version = 0;
    get(version);
    if (version < 1 || version > Timeline::kVersion) {
      throw bad("version", "unsupported version " + std::to_string(version));
    }
    return version;
  }
  template <class... Ts>
  void operator()(Ts&... values) {
    (get(values), ...);
  }
  /// A count or size stored as int must fit one.
  void as_u32(int& value, const char* field) {
    std::uint32_t raw = 0;
    get(raw);
    if (raw > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
      throw bad(field, std::to_string(raw) + " exceeds INT_MAX");
    }
    value = static_cast<int>(raw);
  }
  void str(std::string& s) {
    std::uint32_t n = 0;
    get(n);
    if (n > kMaxStringBytes) throw bad("string", "implausible length " + std::to_string(n));
    need(n);
    s.resize(n);
    read(s.data(), n);
  }
  /// `n` entries of at least `min_bytes` each must fit in the bytes left.
  std::size_t count(std::uint64_t n, std::uint64_t min_bytes, const char* field) {
    const std::uint64_t left = size_ - pos_;
    if (n > left / min_bytes) {
      throw bad(field, std::to_string(n) + " entries of at least " + std::to_string(min_bytes) +
                           " bytes each, but " + std::to_string(left) + " bytes are left");
    }
    return static_cast<std::size_t>(n);
  }
  /// The last section must end the file.
  void finish() const {
    if (pos_ != size_) {
      throw bad("file", std::to_string(size_ - pos_) + " trailing bytes after the last section");
    }
  }
  std::runtime_error bad(const std::string& field, const std::string& why) const {
    return std::runtime_error("timeline: '" + path_ + "' " + field + ": " + why);
  }

 private:
  template <class T>
  void get(T& value) {
    unsigned char bytes[sizeof(wire_t<T>)];
    read(bytes, sizeof bytes);
    value = static_cast<T>(common::get_le<wire_t<T>>(bytes));
  }
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) {
      throw bad("file", "truncated: " + std::to_string(n) + " bytes needed at byte " +
                            std::to_string(pos_) + " of " + std::to_string(size_));
    }
  }
  void read(void* dst, std::uint64_t n) {
    need(n);
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is_) throw bad("file", "read failed at byte " + std::to_string(pos_));
    pos_ += n;
  }

  std::istream& is_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
  std::string path_;
};

class Sizer {
 public:
  static constexpr bool kReading = false;

  template <class... Ts>
  void operator()(const Ts&...) {
    bytes += (sizeof(wire_t<Ts>) + ... + 0);
  }
  void as_u32(int, const char*) { bytes += sizeof(std::uint32_t); }
  void str(const std::string&) { bytes += sizeof(std::uint32_t); }
  std::size_t count(std::uint64_t, std::uint64_t, const char*) { return 0; }

  std::uint64_t bytes = 0;
};

/// Entry `i` of `v`. The reader has sized `v` already. The writer takes a
/// missing entry as a default one, so it writes exactly the entries the
/// reader will read.
template <class T>
T& at(std::vector<T>& v, std::size_t i) {
  return v[i];
}
template <class T>
const T& at(const std::vector<T>& v, std::size_t i) {
  static const T blank{};
  return i < v.size() ? v[i] : blank;
}

/// The smallest encoding of one `entry`: its bytes over default values.
template <class... Ts, class Entry>
std::uint64_t min_bytes(const Entry& entry) {
  Sizer sizer;
  std::tuple<Ts...> blank;
  std::apply([&](Ts&... values) { entry(sizer, values...); }, blank);
  return sizer.bytes;
}

/// `n` entries; entry i is `entry` over element i of each of the parallel
/// vectors `vs`.
template <class Io, class... Vs, class Entry>
void entries(Io& io, std::uint64_t n, const char* field, std::tuple<Vs&...> vs,
             const Entry& entry) {
  const std::size_t size = io.count(n, min_bytes<typename Vs::value_type...>(entry), field);
  std::apply(
      [&](Vs&... v) {
        if constexpr (Io::kReading) (v.resize(size), ...);
        for (std::size_t i = 0; i < size; ++i) entry(io, at(v, i)...);
      },
      vs);
}

/// A u32 count, then that many entries.
template <class Io, class... Vs, class Entry>
void list(Io& io, const char* field, std::tuple<Vs&...> vs, const Entry& entry) {
  auto n = static_cast<std::uint32_t>(std::get<0>(vs).size());
  io(n);
  entries(io, n, field, vs, entry);
}

/// A histogram is rejected unless snapshot_quantile can walk it: at most
/// `num_buckets` buckets, indices strictly ascending and below
/// `num_buckets`, counts summing to `count`, and min <= max.
void check_histogram(const HistogramSnapshot& h, const Reader& io, std::size_t num_buckets) {
  const std::string field = "histogram '" + h.label + "'";
  const std::size_t buckets = h.bucket_index.size();
  if (buckets > num_buckets) {
    throw io.bad(field, std::to_string(buckets) + " buckets (at most " +
                            std::to_string(num_buckets) + ")");
  }
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint32_t index = h.bucket_index[b];
    if (index >= num_buckets) {
      throw io.bad(field, "bucket index " + std::to_string(index) + " out of range");
    }
    if (b > 0 && index <= h.bucket_index[b - 1]) {
      throw io.bad(field, "bucket indices not strictly ascending at " + std::to_string(index));
    }
    if (h.bucket_count[b] > ~total) throw io.bad(field, "bucket counts overflow");
    total += h.bucket_count[b];
  }
  if (total != h.count) {
    throw io.bad(field, "bucket counts sum to " + std::to_string(total) + ", not count " +
                            std::to_string(h.count));
  }
  if (h.min > h.max) throw io.bad(field, "min exceeds max");
}

/// The .nocobs layout, every field in file order. `TL` is `const Timeline`
/// when writing and `Timeline` when reading.
template <class Io, class TL>
void walk(Io& io, TL& tl) {
  const std::uint32_t version = io.preamble();
  if constexpr (Io::kReading) tl.version = version;
  io.as_u32(tl.width, "width");
  io.as_u32(tl.height, "height");
  io.as_u32(tl.num_routers, "num_routers");
  io.as_u32(tl.num_islands, "num_islands");
  io.as_u32(tl.concentration, "concentration");
  io(tl.f_node_hz, tl.control_period_node_cycles);

  const auto islands = static_cast<std::uint64_t>(std::max(tl.num_islands, 0));
  entries(io, islands, "num_islands", std::tie(tl.island_policy, tl.island_nodes),
          [](auto& io, auto& policy, auto& nodes) {
            io.str(policy);
            io.as_u32(nodes, "island_nodes");
          });
  const auto value = [](auto& io, auto& v) { io(v); };
  list(io, "num_windows", std::tie(tl.window_t_ps), value);
  const std::uint64_t windows = tl.window_t_ps.size();
  entries(io, windows * islands, "island_rows", std::tie(tl.island_rows), [](auto& io, auto& r) {
    io(r.f_hz, r.vdd, r.avg_delay_ns, r.lambda_offered, r.occupancy, r.ctrl_error, r.throttled);
  });
  list(io, "num_links", std::tie(tl.links), [](auto& io, auto& link) {
    io.as_u32(link.src_router, "link src_router");
    io.as_u32(link.src_port, "link src_port");
    io.as_u32(link.dst_router, "link dst_router");
  });
  // windows × entities values: u64 deltas for a counter, f64 for a gauge.
  list(io, "num_series", std::tie(tl.series), [&](auto& io, auto& s) {
    io.str(s.name);
    io(s.scope, s.kind);
    io.as_u32(s.entities, "series entities");
    const std::uint64_t n = windows * static_cast<std::uint64_t>(std::max(s.entities, 0));
    if (s.kind == MetricKind::Counter) {
      entries(io, n, "series values", std::tie(s.counts), value);
    } else {
      entries(io, n, "series values", std::tie(s.gauges), value);
    }
  });
  list(io, "num_events", std::tie(tl.events),
       [](auto& io, auto& e) { io(e.kind, e.island, e.t_ps, e.a, e.b); });

  if (version < 2) return;
  list(io, "num_flights", std::tie(tl.flights), [](auto& io, auto& f) {
    io(f.packet_id, f.src, f.dst, f.size_flits, f.traffic_class, f.create_t_ps);
    list(io, "flight events", std::tie(f.events),
         [](auto& io, auto& ev) { io(ev.t_ps, ev.router, ev.arg, ev.stage); });
  });
  const std::size_t num_buckets = version >= 4 ? LatencyHistogram::kNumBuckets : kBucketsBeforeV4;
  list(io, "num_histograms", std::tie(tl.histograms), [&](auto& io, auto& h) {
    io.str(h.label);
    io(h.count, h.min, h.max);
    list(io, "histogram buckets", std::tie(h.bucket_index, h.bucket_count),
         [](auto& io, auto& index, auto& count) { io(index, count); });
    if constexpr (std::remove_cvref_t<decltype(io)>::kReading) check_histogram(h, io, num_buckets);
  });
  // Before v4 the buckets had another meaning; no reader of them is kept.
  if constexpr (Io::kReading) {
    if (version < 4) tl.histograms.clear();
  }

  if (version < 3) return;
  list(io, "num_manifest", std::tie(tl.manifest), [](auto& io, auto& entry) {
    io.str(entry.first);
    io.str(entry.second);
  });
  list(io, "num_phases", std::tie(tl.host_phases), [](auto& io, auto& p) {
    io.str(p.name);
    io.as_u32(p.depth, "phase depth");
    io(p.calls, p.inclusive_ns, p.exclusive_ns);
  });
  list(io, "num_spans", std::tie(tl.host_spans),
       [](auto& io, auto& span) { io(span.worker, span.point, span.t0_ns, span.t1_ns); });
  list(io, "num_workers", std::tie(tl.host_workers),
       [](auto& io, auto& w) { io(w.worker, w.points, w.busy_ns); });
}

// ---- JSON helpers ---------------------------------------------------------

double to_us(std::uint64_t t_ps) { return static_cast<double>(t_ps) * 1e-6; }

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
  Writer writer(os);
  walk(writer, tl);
  os.flush();
  if (!os) throw std::runtime_error("timeline: write to '" + path + "' failed");
}

Timeline read_timeline_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is ? static_cast<std::streamoff>(is.tellg()) : -1;
  if (size < 0) throw std::runtime_error("timeline: cannot open '" + path + "'");
  is.seekg(0);
  Reader reader(is, static_cast<std::uint64_t>(size), path);
  Timeline tl;
  walk(reader, tl);
  reader.finish();
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
    o << common::json_quote("island " + std::to_string(i) + " (" + policy + ")");
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
    o << common::json_quote(to_string(e.kind));
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
              o << common::json_quote("hop r" + std::to_string(ev.router));
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
  // profile and one track per host worker (SweepRunner workers for a
  // sweep export, island-step workers for a run).
  if (!tl.host_phases.empty() || !tl.host_workers.empty()) {
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
        o << common::json_quote(p.name);
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
    if (!tl.host_workers.empty()) {
      // A sweep's workers run points; a run's step workers run island steps.
      const std::uint64_t span_ns = tl.host_worker_span_ns();
      const char* unit = tl.host_spans.empty() ? " steps, " : " pts, ";
      for (const HostWorkerStats& w : tl.host_workers) {
        const double util =
            span_ns > 0 ? static_cast<double>(w.busy_ns) / static_cast<double>(span_ns) * 100.0
                        : 0.0;
        char util_buf[48];
        std::snprintf(util_buf, sizeof util_buf, "%.0f%% busy", util);
        auto& o = arr.next();
        o << R"({"name":"thread_name","ph":"M","pid":)" << hpid << R"(,"tid":)"
          << (w.worker + 1) << R"(,"args":{"name":)";
        o << common::json_quote("worker " + std::to_string(w.worker) + " (" +
                        std::to_string(w.points) + unit + util_buf + ")");
        o << "}}";
      }
      for (const HostWorkerSpan& sp : tl.host_spans) {
        auto& o = arr.next();
        o << R"({"name":)";
        o << common::json_quote("point #" + std::to_string(sp.point));
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
