#include "trace/trace.hpp"

#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "common/binary_io.hpp"

namespace nocdvfs::trace {

namespace {

using common::get_le;
using common::put_le;

void encode_header(unsigned char (&buf)[kTraceHeaderBytes], const TraceHeader& h) {
  std::memcpy(buf, kTraceMagic, sizeof(kTraceMagic));
  put_le(buf + 8, kTraceVersion);
  put_le(buf + 10, kTraceHeaderBytes);
  put_le(buf + 12, h.width);
  put_le(buf + 14, h.height);
  put_le(buf + 16, h.flit_bits);
  put_le(buf + 20, std::uint32_t{0});  // reserved
  put_le(buf + 24, h.f_node_hz);
  put_le(buf + 32, h.packet_count);
}

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw std::runtime_error("noctrace '" + path + "': " + why);
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceHeader& header)
    : path_(path), header_(header) {
  if (header.width < 1 || header.height < 1) {
    throw std::invalid_argument("TraceWriter: trace mesh must be at least 1x1");
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("TraceWriter: cannot open '" + path + "' for writing");
  header_.packet_count = 0;
  unsigned char buf[kTraceHeaderBytes];
  encode_header(buf, header_);
  out_.write(reinterpret_cast<const char*>(buf), sizeof(buf));
  open_ = true;
}

TraceWriter::~TraceWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; a failed close leaves a file the reader
    // will reject (size mismatch), which is the safe failure mode.
  }
}

void TraceWriter::append(const TracePacket& p) {
  if (!open_) throw std::logic_error("TraceWriter: append after close");
  if (p.inject_node_cycle < last_cycle_) {
    throw std::invalid_argument("TraceWriter: inject cycles must be non-decreasing");
  }
  const std::uint64_t delta = p.inject_node_cycle - last_cycle_;
  if (delta > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("TraceWriter: > 2^32 idle node cycles between packets");
  }
  const int n = header_.num_nodes();
  if (p.src >= n || p.dst >= n) {
    throw std::invalid_argument("TraceWriter: src/dst outside the recorded mesh");
  }
  if (p.flits < 1) throw std::invalid_argument("TraceWriter: packet must have >= 1 flit");

  unsigned char buf[kTraceRecordBytes];
  put_le(buf, static_cast<std::uint32_t>(delta));
  put_le(buf + 4, p.src);
  put_le(buf + 6, p.dst);
  put_le(buf + 8, p.flits);
  buf[10] = p.traffic_class;
  buf[11] = 0;
  out_.write(reinterpret_cast<const char*>(buf), sizeof(buf));
  last_cycle_ = p.inject_node_cycle;
  ++count_;
}

void TraceWriter::close() {
  if (!open_) return;
  open_ = false;
  unsigned char buf[8];
  put_le(buf, count_);
  out_.seekp(32);
  out_.write(reinterpret_cast<const char*>(buf), sizeof(buf));
  out_.flush();
  if (!out_) throw std::runtime_error("TraceWriter: write failed on '" + path_ + "'");
  out_.close();
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_) corrupt(path, "cannot open for reading");

  unsigned char buf[kTraceHeaderBytes];
  in_.read(reinterpret_cast<char*>(buf), sizeof(buf));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(buf))) {
    corrupt(path, "truncated header");
  }
  if (std::memcmp(buf, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    // The most common mix-up: handing a .nocobs telemetry timeline to this
    // reader. Name both magics and point at the right tool.
    if (std::memcmp(buf, "NOCO", 4) == 0) {
      corrupt(path,
              "starts with magic \"NOCO\" — this is a .nocobs telemetry timeline, not a "
              ".noctrace packet trace (expected magic \"NOCTRACE\"); inspect it with "
              "nocdvfs_report instead");
    }
    std::string found(reinterpret_cast<const char*>(buf), 8);
    for (char& ch : found) {
      if (static_cast<unsigned char>(ch) < 0x20 || static_cast<unsigned char>(ch) > 0x7E) {
        ch = '.';
      }
    }
    corrupt(path, "bad magic (found bytes \"" + found +
                      "\", expected \"NOCTRACE\" — not a .noctrace file)");
  }
  const auto version = get_le<std::uint16_t>(buf + 8);
  if (version != kTraceVersion) {
    corrupt(path, "unsupported version " + std::to_string(version));
  }
  const auto header_bytes = get_le<std::uint16_t>(buf + 10);
  if (header_bytes < kTraceHeaderBytes) corrupt(path, "implausible header size");
  header_.width = get_le<std::uint16_t>(buf + 12);
  header_.height = get_le<std::uint16_t>(buf + 14);
  header_.flit_bits = get_le<std::uint32_t>(buf + 16);
  header_.f_node_hz = get_le<double>(buf + 24);
  header_.packet_count = get_le<std::uint64_t>(buf + 32);
  if (header_.width < 1 || header_.height < 1) corrupt(path, "degenerate mesh dimensions");

  // Exact-size check: catches truncation, trailing garbage, and a writer
  // that died before backpatching the count. The count is compared against
  // the records the file can hold, never multiplied: a hostile count would
  // wrap the product and slip past the check.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size < header_bytes || (size - header_bytes) % kTraceRecordBytes != 0 ||
      header_.packet_count != (size - header_bytes) / kTraceRecordBytes) {
    corrupt(path, "truncated or corrupt (packet_count " + std::to_string(header_.packet_count) +
                      " does not match the file size)");
  }
  in_.seekg(header_bytes);
}

std::optional<TracePacket> TraceReader::next() {
  if (read_ >= header_.packet_count) return std::nullopt;
  unsigned char buf[kTraceRecordBytes];
  in_.read(reinterpret_cast<char*>(buf), sizeof(buf));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(buf))) {
    corrupt(path_, "truncated record");
  }
  TracePacket p;
  prev_cycle_ += get_le<std::uint32_t>(buf);
  p.inject_node_cycle = prev_cycle_;
  p.src = get_le<std::uint16_t>(buf + 4);
  p.dst = get_le<std::uint16_t>(buf + 6);
  p.flits = get_le<std::uint16_t>(buf + 8);
  p.traffic_class = buf[10];
  const int n = header_.num_nodes();
  if (p.src >= n || p.dst >= n) corrupt(path_, "record src/dst outside the trace mesh");
  if (p.flits < 1) corrupt(path_, "zero-flit record");
  ++read_;
  return p;
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

Trace Trace::load(const std::string& path) {
  TraceReader reader(path);
  Trace t;
  t.header = reader.header();
  t.packets.reserve(static_cast<std::size_t>(t.header.packet_count));
  while (auto p = reader.next()) t.packets.push_back(*p);
  return t;
}

std::uint64_t Trace::total_flits() const noexcept {
  std::uint64_t flits = 0;
  for (const TracePacket& p : packets) flits += p.flits;
  return flits;
}

std::uint64_t Trace::span_cycles() const noexcept {
  return packets.empty() ? 0 : packets.back().inject_node_cycle + 1;
}

double Trace::mean_lambda(int num_nodes) const noexcept {
  const std::uint64_t span = span_cycles();
  const int nodes = num_nodes > 0 ? num_nodes : header.num_nodes();
  if (span == 0 || nodes == 0) return 0.0;
  return static_cast<double>(total_flits()) /
         (static_cast<double>(span) * static_cast<double>(nodes));
}

}  // namespace nocdvfs::trace
