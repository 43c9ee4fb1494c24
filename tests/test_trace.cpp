// Trace subsystem tests: .noctrace golden bytes, corrupt/truncated-file
// rejection, replay transforms (rate scale, node remap, loop), and the
// headline determinism contract — recording a run and replaying the trace
// under the same policy reproduces the RunResult bit-identically, and one
// trace replayed under RMSD vs DMSD presents the identical packet
// sequence.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/saturation.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "trace/trace.hpp"
#include "trace/trace_traffic.hpp"
#include "traffic/request_reply.hpp"

namespace nocdvfs {
namespace {

namespace fs = std::filesystem;

std::string temp_trace(const std::string& name) {
  return (fs::temp_directory_path() / ("nocdvfs_test_" + name + ".noctrace")).string();
}

trace::TraceHeader small_header(int w = 2, int h = 2) {
  trace::TraceHeader header;
  header.width = static_cast<std::uint16_t>(w);
  header.height = static_cast<std::uint16_t>(h);
  header.flit_bits = 128;
  header.f_node_hz = 1e9;
  return header;
}

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

TEST(TraceFormat, GoldenBytesAndRoundTrip) {
  const std::string path = temp_trace("golden");
  {
    trace::TraceWriter writer(path, small_header());
    writer.append({0, 0, 3, 4, 0});
    writer.append({5, 1, 2, 20, 1});
    writer.append({5, 2, 0, 1, 0});
    writer.close();
  }

  const std::vector<unsigned char> bytes = file_bytes(path);
  ASSERT_EQ(bytes.size(), 40u + 3u * 12u);
  const unsigned char golden[] = {
      // header
      'N', 'O', 'C', 'T', 'R', 'A', 'C', 'E',  // magic
      1, 0,                                    // version
      40, 0,                                   // header_bytes
      2, 0, 2, 0,                              // width, height
      128, 0, 0, 0,                            // flit_bits
      0, 0, 0, 0,                              // reserved
      0, 0, 0, 0, 0x65, 0xcd, 0xcd, 0x41,      // 1e9 as LE double
      3, 0, 0, 0, 0, 0, 0, 0,                  // packet_count
      // record 0: delta 0, src 0, dst 3, 4 flits, class 0
      0, 0, 0, 0, 0, 0, 3, 0, 4, 0, 0, 0,
      // record 1: delta 5, src 1, dst 2, 20 flits, class 1
      5, 0, 0, 0, 1, 0, 2, 0, 20, 0, 1, 0,
      // record 2: delta 0 (same cycle), src 2, dst 0, 1 flit, class 0
      0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0};
  ASSERT_EQ(bytes.size(), sizeof(golden));
  for (std::size_t i = 0; i < sizeof(golden); ++i) {
    EXPECT_EQ(bytes[i], golden[i]) << "byte " << i;
  }

  const trace::Trace t = trace::Trace::load(path);
  EXPECT_EQ(t.header.width, 2);
  EXPECT_EQ(t.header.height, 2);
  EXPECT_EQ(t.header.flit_bits, 128u);
  EXPECT_DOUBLE_EQ(t.header.f_node_hz, 1e9);
  ASSERT_EQ(t.packets.size(), 3u);
  EXPECT_EQ(t.packets[0], (trace::TracePacket{0, 0, 3, 4, 0}));
  EXPECT_EQ(t.packets[1], (trace::TracePacket{5, 1, 2, 20, 1}));
  EXPECT_EQ(t.packets[2], (trace::TracePacket{5, 2, 0, 1, 0}));
  EXPECT_EQ(t.total_flits(), 25u);
  EXPECT_EQ(t.span_cycles(), 6u);
  // 25 flits / (6 cycles × 4 nodes)
  EXPECT_DOUBLE_EQ(t.mean_lambda(), 25.0 / 24.0);
  fs::remove(path);
}

TEST(TraceFormat, EmptyTraceRoundTrips) {
  const std::string path = temp_trace("empty");
  { trace::TraceWriter writer(path, small_header()); }
  const trace::Trace t = trace::Trace::load(path);
  EXPECT_TRUE(t.packets.empty());
  EXPECT_EQ(t.span_cycles(), 0u);
  EXPECT_DOUBLE_EQ(t.mean_lambda(), 0.0);

  // Replaying an empty trace is a valid silent workload.
  trace::TraceTraffic model(t);
  EXPECT_DOUBLE_EQ(model.offered_flits_per_node_cycle(), 0.0);
  noc::NetworkConfig ncfg;
  ncfg.width = 2;
  ncfg.height = 2;
  noc::Network net(ncfg);
  for (std::uint64_t i = 0; i < 100; ++i) model.node_tick(i * 1000, 0, net);
  EXPECT_EQ(net.total_flits_generated(), 0u);
  fs::remove(path);
}

TEST(TraceFormat, WriterValidatesRecords) {
  const std::string path = temp_trace("writer_validation");
  trace::TraceWriter writer(path, small_header());
  writer.append({10, 0, 1, 4, 0});
  // Cycles must be non-decreasing.
  EXPECT_THROW(writer.append({9, 0, 1, 4, 0}), std::invalid_argument);
  // Nodes must fit the recorded mesh; packets carry at least one flit.
  EXPECT_THROW(writer.append({10, 4, 1, 4, 0}), std::invalid_argument);
  EXPECT_THROW(writer.append({10, 0, 4, 4, 0}), std::invalid_argument);
  EXPECT_THROW(writer.append({10, 0, 1, 0, 0}), std::invalid_argument);
  writer.close();
  fs::remove(path);
}

TEST(TraceFormat, RejectsCorruptAndTruncatedFiles) {
  const std::string path = temp_trace("corrupt");
  {
    trace::TraceWriter writer(path, small_header());
    writer.append({0, 0, 1, 4, 0});
    writer.append({3, 1, 0, 4, 0});
    writer.close();
  }
  const std::vector<unsigned char> good = file_bytes(path);

  auto write_bytes = [&](const std::vector<unsigned char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };

  // Bad magic.
  auto bad = good;
  bad[0] = 'X';
  write_bytes(bad);
  EXPECT_THROW(trace::TraceReader{path}, std::runtime_error);

  // Unsupported version.
  bad = good;
  bad[8] = 99;
  write_bytes(bad);
  EXPECT_THROW(trace::TraceReader{path}, std::runtime_error);

  // Truncated mid-record.
  bad = good;
  bad.resize(bad.size() - 5);
  write_bytes(bad);
  EXPECT_THROW(trace::TraceReader{path}, std::runtime_error);

  // Trailing garbage.
  bad = good;
  bad.push_back(0);
  write_bytes(bad);
  EXPECT_THROW(trace::TraceReader{path}, std::runtime_error);

  // Header shorter than the format's minimum.
  bad.assign(good.begin(), good.begin() + 20);
  write_bytes(bad);
  EXPECT_THROW(trace::TraceReader{path}, std::runtime_error);

  // Record pointing outside the mesh (corrupt dst on the 2x2 header).
  bad = good;
  bad[40 + 6] = 9;
  write_bytes(bad);
  trace::TraceReader reader(path);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      std::runtime_error);
  fs::remove(path);
}

/// Length fields are checked before anything is sized from them: every
/// prefix of a valid trace, every single-bit flip of its 40-byte header,
/// and a packet_count whose record bytes wrap to the file's real size must
/// read back or throw std::runtime_error — never std::length_error from
/// sizing the packet vector.
TEST(TraceFormat, RejectsHostileLengthFields) {
  const std::string path = temp_trace("hostile");
  {
    trace::TraceWriter writer(path, small_header());
    writer.append({0, 0, 1, 4, 0});
    writer.append({3, 1, 0, 4, 0});
    writer.append({7, 2, 3, 2, 1});
    writer.close();
  }
  const std::vector<unsigned char> valid = file_bytes(path);
  constexpr std::size_t kHeaderBytes = 40;
  constexpr std::size_t kPacketCountAt = 32;
  ASSERT_EQ(valid.size(), kHeaderBytes + 3 * trace::kTraceRecordBytes);

  auto write_bytes = [&](const std::vector<unsigned char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  auto expect_load_or_runtime_error = [&](const std::vector<unsigned char>& bytes,
                                          const std::string& what) {
    write_bytes(bytes);
    try {
      (void)trace::Trace::load(path);
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": escaped as a non-runtime_error: " << e.what();
    }
  };

  // 40 bytes, packet_count = 2^62: 12 · 2^62 wraps to 0, the exact record
  // bytes of a header-only file.
  std::vector<unsigned char> wrap(valid.begin(), valid.begin() + kHeaderBytes);
  const std::uint64_t lie = std::uint64_t{1} << 62;
  for (std::size_t i = 0; i < 8; ++i) {
    wrap[kPacketCountAt + i] = static_cast<unsigned char>(lie >> (8 * i));
  }
  write_bytes(wrap);
  try {
    (void)trace::Trace::load(path);
    ADD_FAILURE() << "packet_count 2^62 was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("packet_count"), std::string::npos) << msg;
  }

  for (std::size_t n = 0; n < valid.size(); ++n) {
    expect_load_or_runtime_error({valid.begin(), valid.begin() + static_cast<long>(n)},
                                 "prefix " + std::to_string(n));
  }
  for (std::size_t at = 0; at < kHeaderBytes; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> flipped = valid;
      flipped[at] = static_cast<unsigned char>(flipped[at] ^ (1u << bit));
      expect_load_or_runtime_error(
          flipped, "byte " + std::to_string(at) + " bit " + std::to_string(bit));
    }
  }
  fs::remove(path);
}

/// Drive a TraceTraffic tick by tick and capture the injections (via the
/// same observer hook the recorder uses).
struct Injection {
  std::uint64_t tick;
  noc::NodeId src;
  noc::NodeId dst;
  int flits;
};

std::vector<Injection> drive(trace::TraceTraffic& model, int mesh_w, int mesh_h,
                             std::uint64_t ticks) {
  noc::NetworkConfig ncfg;
  ncfg.width = mesh_w;
  ncfg.height = mesh_h;
  noc::Network net(ncfg);
  std::vector<Injection> out;
  std::uint64_t tick = 0;
  net.set_injection_observer(
      [&](noc::PacketId, noc::NodeId src, noc::NodeId dst, int flits, std::uint8_t) {
        out.push_back({tick, src, dst, flits});
      });
  for (; tick < ticks; ++tick) model.node_tick(tick * 1000, 0, net);
  return out;
}

TEST(TraceTraffic, RateScaleCompressesTheTimeline) {
  trace::Trace t;
  t.header = small_header();
  t.packets = {{0, 0, 1, 4, 0}, {10, 1, 2, 4, 0}, {20, 2, 3, 4, 0}};

  trace::TraceReplayOptions opt;
  opt.scale = 2.0;  // half the span → injections at cycles 0, 5, 10
  trace::TraceTraffic model(t, opt);
  const auto injections = drive(model, 2, 2, 30);
  ASSERT_EQ(injections.size(), 3u);
  EXPECT_EQ(injections[0].tick, 0u);
  EXPECT_EQ(injections[1].tick, 5u);
  EXPECT_EQ(injections[2].tick, 10u);
  // Twice the offered load of the unscaled replay.
  trace::TraceTraffic plain(t);
  EXPECT_NEAR(model.offered_flits_per_node_cycle(),
              2.0 * plain.offered_flits_per_node_cycle(), 0.1);

  trace::TraceReplayOptions slow;
  slow.scale = 0.5;  // twice the span → injections at cycles 0, 20, 40
  trace::TraceTraffic slow_model(t, slow);
  const auto slow_injections = drive(slow_model, 2, 2, 60);
  ASSERT_EQ(slow_injections.size(), 3u);
  EXPECT_EQ(slow_injections[1].tick, 20u);
  EXPECT_EQ(slow_injections[2].tick, 40u);
}

TEST(TraceTraffic, RemapsOntoADifferentMesh) {
  trace::Trace t;
  t.header = small_header(4, 4);
  // src 12 = (0,3), dst 7 = (3,1) on the recorded 4x4 mesh.
  t.packets = {{0, 12, 7, 4, 0}};

  trace::TraceReplayOptions opt;
  opt.mesh_width = 2;
  opt.mesh_height = 2;
  trace::TraceTraffic model(t, opt);
  const auto injections = drive(model, 2, 2, 5);
  ASSERT_EQ(injections.size(), 1u);
  // Coordinate folding: (0,3) → (0,1) = node 2; (3,1) → (1,1) = node 3.
  EXPECT_EQ(injections[0].src, 2);
  EXPECT_EQ(injections[0].dst, 3);
}

TEST(TraceTraffic, LoopRestartsTheStream) {
  trace::Trace t;
  t.header = small_header();
  t.packets = {{0, 0, 1, 4, 0}, {4, 1, 0, 4, 0}};  // span = 5 cycles

  trace::TraceReplayOptions opt;
  opt.loop = true;
  trace::TraceTraffic model(t, opt);
  const auto injections = drive(model, 2, 2, 15);  // three laps
  ASSERT_EQ(injections.size(), 6u);
  EXPECT_EQ(injections[2].tick, 5u);   // lap 1 starts after the span
  EXPECT_EQ(injections[3].tick, 9u);
  EXPECT_EQ(injections[4].tick, 10u);  // lap 2
  EXPECT_EQ(injections[5].tick, 14u);
}

TEST(TraceTraffic, OptionValidation) {
  trace::Trace t;
  t.header = small_header();
  trace::TraceReplayOptions opt;
  opt.scale = 0.0;
  EXPECT_THROW(trace::TraceTraffic(t, opt), std::invalid_argument);
  opt = {};
  opt.mesh_width = 3;  // height missing
  EXPECT_THROW(trace::TraceTraffic(t, opt), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Record → replay determinism
// ---------------------------------------------------------------------------

sim::RunPhases short_phases() {
  sim::RunPhases phases;
  phases.warmup_node_cycles = 8000;
  phases.measure_node_cycles = 12000;
  phases.adaptive_warmup = false;
  return phases;
}

sim::Scenario base_scenario() {
  sim::Scenario s;
  s.network.width = 3;
  s.network.height = 3;
  s.packet_size = 4;
  s.lambda = 0.12;
  s.control_period = 2000;
  s.phases = short_phases();
  s.policy.policy = sim::Policy::Rmsd;
  s.policy.lambda_max = 0.4;
  return s;
}

void expect_identical_headlines(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_DOUBLE_EQ(a.measured_offered_lambda, b.measured_offered_lambda);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_DOUBLE_EQ(a.avg_delay_ns, b.avg_delay_ns);
  EXPECT_DOUBLE_EQ(a.p99_delay_ns, b.p99_delay_ns);
  EXPECT_DOUBLE_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  EXPECT_DOUBLE_EQ(a.avg_frequency_hz, b.avg_frequency_hz);
  EXPECT_DOUBLE_EQ(a.power.total_j(), b.power.total_j());
  EXPECT_DOUBLE_EQ(a.delivered_flits_per_node_cycle, b.delivered_flits_per_node_cycle);
  EXPECT_DOUBLE_EQ(a.energy_per_bit_pj, b.energy_per_bit_pj);
  EXPECT_EQ(a.window_trace.size(), b.window_trace.size());
}

/// Replay scenario for a trace recorded by `recorded`: same platform and
/// policy, same mesh, trace workload.
sim::Scenario replay_of(const sim::Scenario& recorded, const std::string& path) {
  sim::Scenario s = recorded;
  s.workload = sim::Scenario::Workload::Trace;
  s.trace_path = path;
  s.record_path.clear();
  s.traffic_factory = nullptr;
  return s;
}

TEST(RecordReplay, SyntheticRoundTripIsBitIdentical) {
  const std::string path = temp_trace("rt_synthetic");
  sim::Scenario rec = base_scenario();
  rec.record_path = path;
  const sim::RunResult original = sim::run(rec);

  rec.record_path.clear();
  const sim::RunResult replayed = sim::run(replay_of(rec, path));
  expect_identical_headlines(original, replayed);
  fs::remove(path);
}

TEST(RecordReplay, AppRoundTripIsBitIdentical) {
  const std::string path = temp_trace("rt_app");
  sim::Scenario rec;
  rec.workload = sim::Scenario::Workload::App;
  rec.app = "h264";
  rec.speed = 0.5;
  rec.packet_size = 8;
  rec.traffic_scale = 0.1 / sim::mean_lambda(rec);
  rec.control_period = 2000;
  rec.phases = short_phases();
  rec.policy.policy = sim::Policy::Dmsd;
  rec.policy.target_delay_ns = 120.0;
  rec.record_path = path;
  const sim::RunResult original = sim::run(rec);

  sim::Scenario rep = replay_of(rec, path);
  // The h264 task graph pinned the recorded mesh to 4x4; the replay
  // scenario must name it explicitly.
  rep.network.width = 4;
  rep.network.height = 4;
  const sim::RunResult replayed = sim::run(rep);
  expect_identical_headlines(original, replayed);
  fs::remove(path);
}

TEST(RecordReplay, RequestReplyRoundTripIsDeterministic) {
  // Closed-loop workloads record faithfully (replies become open-loop
  // packets at their recorded cycles), so the flit streams — and hence
  // throughput — match the original exactly. Delay statistics are NOT
  // compared: the live run stamps replies with the request's creation time
  // (round-trip semantics) while the replay stamps injection time.
  const std::string path = temp_trace("rt_reqrep");
  sim::Scenario rec = base_scenario();
  rec.workload = sim::Scenario::Workload::Custom;
  rec.traffic_factory = [](const sim::Scenario& sc) -> std::unique_ptr<traffic::TrafficModel> {
    noc::MeshTopology topo(sc.network.width, sc.network.height);
    traffic::RequestReplyParams rr;
    rr.request_rate = 0.01;
    rr.seed = sc.seed;
    return std::make_unique<traffic::RequestReplyTraffic>(topo, rr);
  };
  rec.record_path = path;
  const sim::RunResult original = sim::run(rec);
  ASSERT_GT(original.class1_packets, 0u);

  const sim::Scenario rep = replay_of(rec, path);
  const sim::RunResult replay_a = sim::run(rep);
  const sim::RunResult replay_b = sim::run(rep);
  // Same injected stream as the original…
  EXPECT_DOUBLE_EQ(replay_a.measured_offered_lambda, original.measured_offered_lambda);
  EXPECT_EQ(replay_a.packets_delivered, original.packets_delivered);
  EXPECT_DOUBLE_EQ(replay_a.delivered_flits_per_node_cycle,
                   original.delivered_flits_per_node_cycle);
  EXPECT_EQ(replay_a.class1_packets, original.class1_packets);
  // …and the replay itself is bit-identical run to run.
  expect_identical_headlines(replay_a, replay_b);
  fs::remove(path);
}

TEST(RecordReplay, TraceThatEndsBeforeTheWindowFailsTheRun) {
  // A 4 000-cycle capture replayed unlooped under an 8 000-cycle warmup:
  // the measurement window sees no traffic at all. Reporting its 0 ns
  // delay as a result would be wrong, so the run fails and says why.
  const std::string path = temp_trace("ends_early");
  sim::Scenario rec = base_scenario();
  rec.phases.warmup_node_cycles = 2000;
  rec.phases.measure_node_cycles = 2000;
  rec.record_path = path;
  (void)sim::run(rec);

  rec.record_path.clear();
  sim::Scenario replay = replay_of(rec, path);
  replay.phases = short_phases();
  try {
    (void)sim::run(replay);
    FAIL() << "an empty measurement window was reported as a result";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("generated and delivered no packets"), std::string::npos) << what;
    EXPECT_NE(what.find("'trace'"), std::string::npos) << what;
    EXPECT_NE(what.find("unlooped trace"), std::string::npos) << what;
  }
  // Looped, the same capture feeds the window.
  replay.trace_loop = true;
  EXPECT_GT(sim::run(replay).packets_delivered, 0u);
  fs::remove(path);

  // An idle workload (offered load 0) may still measure an empty window.
  sim::Scenario idle = base_scenario();
  idle.lambda = 0.0;
  const sim::RunResult r = sim::run(idle);
  EXPECT_EQ(r.packets_delivered, 0u);
  EXPECT_FALSE(r.saturated);
}

TEST(RecordReplay, RmsdAndDmsdSeeTheIdenticalPacketSequence) {
  const std::string path = temp_trace("rt_policies");
  sim::Scenario rec = base_scenario();
  rec.policy.policy = sim::Policy::NoDvfs;
  rec.record_path = path;
  sim::run(rec);

  sim::Scenario rep = replay_of(rec, path);
  rep.policy.policy = sim::Policy::Rmsd;
  const sim::RunResult rmsd = sim::run(rep);
  rep.policy.policy = sim::Policy::Dmsd;
  rep.policy.target_delay_ns = 100.0;
  const sim::RunResult dmsd = sim::run(rep);

  // The controllers saw the bit-identical offered stream…
  EXPECT_DOUBLE_EQ(rmsd.measured_offered_lambda, dmsd.measured_offered_lambda);
  // …and delivered (almost) all of it — the policies' different NoC clocks
  // only move which in-flight packets straddle the window edges.
  EXPECT_NEAR(static_cast<double>(rmsd.packets_delivered),
              static_cast<double>(dmsd.packets_delivered),
              0.01 * static_cast<double>(rmsd.packets_delivered));
  // …but regulated it differently.
  EXPECT_NE(rmsd.avg_frequency_hz, dmsd.avg_frequency_hz);
  fs::remove(path);
}

TEST(RecordReplay, TraceSaturationBisectsTheTimeWarp) {
  // trace_scale is the trace workload's load axis: the finder must loop
  // the finite capture (steady-state probes) and expand past scale 1.0 —
  // which only means "as recorded" — to bracket the real saturation warp.
  const std::string path = temp_trace("rt_saturation");
  sim::Scenario rec = base_scenario();
  rec.policy.policy = sim::Policy::NoDvfs;
  rec.record_path = path;
  sim::run(rec);

  sim::SaturationSearchOptions opt;
  opt.warmup_node_cycles = 8000;
  opt.measure_node_cycles = 8000;
  opt.resolution = 0.25;
  const double sat_scale = sim::find_saturation(replay_of(rec, path), opt);
  // The capture was recorded at λ = 0.12, far below a 3×3 mesh's
  // saturation — the warp must come back well above 1 and bounded.
  EXPECT_GT(sat_scale, 1.0);
  EXPECT_LT(sat_scale, 256.0);
  fs::remove(path);
}

TEST(RecordReplay, TraceSweepsThroughParallelWorkers) {
  const std::string path = temp_trace("rt_sweep");
  sim::Scenario rec = base_scenario();
  rec.record_path = path;
  sim::run(rec);

  // Four workers, each replay opens its own reader; rows must agree on the
  // offered stream and be deterministic across thread counts.
  sim::SweepRunner::Options opt;
  opt.threads = 4;
  sim::SweepRunner runner(opt);
  const auto records =
      runner.run(replay_of(rec, path),
                 {sim::SweepAxis::policies({sim::Policy::NoDvfs, sim::Policy::Rmsd,
                                            sim::Policy::Dmsd, sim::Policy::Qbsd})},
                 "trace-replay");
  ASSERT_EQ(records.size(), 4u);
  for (const auto& record : records) {
    EXPECT_DOUBLE_EQ(record.result.measured_offered_lambda,
                     records[0].result.measured_offered_lambda);
  }
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Satellite coverage: sweep validation + derived efficiency metrics
// ---------------------------------------------------------------------------

TEST(SweepValidation, CustomWithoutFactoryNamesThePoint) {
  sim::Scenario bad = base_scenario();
  bad.workload = sim::Scenario::Workload::Custom;
  sim::SweepRunner runner;
  try {
    runner.run(bad, {sim::SweepAxis::policies({sim::Policy::Rmsd})}, "my-sweep");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("policy=rmsd"), std::string::npos) << msg;
    EXPECT_NE(msg.find("my-sweep"), std::string::npos) << msg;
    EXPECT_NE(msg.find("traffic_factory"), std::string::npos) << msg;
  }
}

TEST(SweepValidation, TraceWithoutPathNamesThePoint) {
  sim::Scenario bad = base_scenario();
  bad.workload = sim::Scenario::Workload::Trace;
  sim::SweepRunner runner;
  try {
    runner.run(bad, {sim::SweepAxis::seeds(2, 1)}, "replay-sweep");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("replay-sweep"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace"), std::string::npos) << msg;
  }
}

TEST(SweepValidation, SharedRecordPathAcrossPointsIsRejected) {
  sim::Scenario bad = base_scenario();
  bad.record_path = temp_trace("shared_record");
  sim::SweepRunner runner;
  try {
    runner.run(bad, {sim::SweepAxis::seeds(2, 1)}, "record-sweep");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("record"), std::string::npos) << msg;
  }
  // A single-point "sweep" may record.
  const auto records = runner.run(bad, {}, "record-one");
  EXPECT_EQ(records.size(), 1u);
  fs::remove(bad.record_path);
}

TEST(EfficiencyMetrics, EnergyPerBitAndEdpAreDerivedConsistently) {
  sim::Scenario s = base_scenario();
  const sim::RunResult r = sim::run(s);
  ASSERT_GT(r.packets_delivered, 0u);
  EXPECT_GT(r.energy_per_bit_pj, 0.0);
  EXPECT_GT(r.energy_delay_product_js, 0.0);
  // energy/bit × delivered bits == total energy (flit_bits = 128).
  const double delivered_bits =
      r.delivered_flits_per_node_cycle * 9.0 *
      static_cast<double>(r.measure_node_cycles) * 128.0;
  EXPECT_NEAR(r.energy_per_bit_pj * delivered_bits * 1e-12, r.power.total_j(),
              1e-6 * r.power.total_j());
  EXPECT_NEAR(r.energy_delay_product_js, r.power.total_j() * r.avg_delay_ns * 1e-9,
              1e-12);
}

}  // namespace
}  // namespace nocdvfs
