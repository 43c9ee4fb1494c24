#include "obs/manifest.hpp"

#include <chrono>
#include <mutex>
#include <sstream>

#include "common/strings.hpp"

#ifndef NOCDVFS_GIT_DESCRIBE
#define NOCDVFS_GIT_DESCRIBE "unknown"
#endif

namespace nocdvfs::obs {

void RunManifest::set(const std::string& key, std::string value) {
  for (auto& [k, v] : entries) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries.emplace_back(key, std::move(value));
}

void RunManifest::set(const std::string& key, std::uint64_t value) {
  set(key, std::to_string(value));
}

void RunManifest::set_double(const std::string& key, double value) {
  set(key, common::format_double(value));
}

const std::string* RunManifest::find(const std::string& key) const noexcept {
  for (const auto& [k, v] : entries) {
    if (k == key) return &v;
  }
  return nullptr;
}

void fill_build_info(RunManifest& m) {
  std::ostringstream compiler;
#if defined(__clang__)
  compiler << "clang " << __clang_major__ << "." << __clang_minor__;
#elif defined(__GNUC__)
  compiler << "gcc " << __GNUC__ << "." << __GNUC_MINOR__;
#elif defined(_MSC_VER)
  compiler << "msvc " << _MSC_VER;
#else
  compiler << "unknown";
#endif
  m.set("build.compiler", compiler.str());
  m.set("build.cxx_std", std::to_string(__cplusplus));
#if defined(NDEBUG)
  m.set("build.ndebug", std::string("1"));
#else
  m.set("build.ndebug", std::string("0"));
#endif
#if defined(NOCDVFS_ENABLE_ASSERTS)
  m.set("build.asserts", std::string("1"));
#else
  m.set("build.asserts", std::string("0"));
#endif
  m.set("build.git", std::string(NOCDVFS_GIT_DESCRIBE));
}

namespace {

/// The same yardstick perf_baseline records: xorshift64 steps per
/// microsecond over ~0.2 s. Pure integer ALU + registers — stable across
/// runs and roughly proportional to single-core speed, which is what the
/// simulator is bound by.
double measure_calib_mops() {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t ops = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 1000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ops += 1000000;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  } while (elapsed < 0.2);
  sink = x;
  (void)sink;
  return static_cast<double>(ops) / elapsed / 1e6;
}

}  // namespace

double host_calib_mops() {
  static std::once_flag once;
  static double cached = 0.0;
  std::call_once(once, [] { cached = measure_calib_mops(); });
  return cached;
}

}  // namespace nocdvfs::obs
