#pragma once

/// \file prof.hpp
/// Host-side hierarchical phase profiler.
///
/// `PROF_SCOPE("router_step")` opens an RAII scope that attributes wall
/// time to a node in a per-thread phase tree; nesting scopes builds the
/// tree, so every phase gets inclusive time (scope entry to exit) and
/// exclusive time (inclusive minus time spent in child scopes) plus a
/// call count. `PROF_SCOPE_ID("island_step", d)` attributes the scope to
/// one island — the id becomes a distinct tree node rendered as
/// "island_step#3".
///
/// The profiler is *host-side only*: it reads the monotonic clock and
/// never feeds anything back into the simulation, so simulated metrics
/// are bit-identical with profiling on or off (asserted by the golden
/// suite). The off path is one predictable branch: `Scope`'s inline
/// constructor loads a process-wide relaxed atomic count of installed
/// collectors and returns immediately while it is zero — no allocation,
/// no clock read, no thread-local access.
///
/// Threading model: collection is thread-local. A `Collector` is
/// installed on the thread that runs a simulation (Simulator::run does
/// this when the scenario sets `prof=on`), so parallel SweepRunner
/// workers with mixed prof settings never contaminate each other.
/// Finished per-thread profiles are flattened to preorder `Profile`
/// snapshots and merged deterministically (first profile's phase order
/// wins; new phases append in encounter order), so a sweep's aggregate
/// profile is identical regardless of worker scheduling.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nocdvfs::obs {

/// One phase of a finished host profile. Profiles are the phase tree
/// flattened in preorder; `depth` recovers the hierarchy (a phase's
/// parent is the nearest preceding phase with smaller depth).
struct PhaseStats {
  std::string name;  ///< phase name; per-island scopes render as "name#<id>"
  int depth = 0;     ///< 0 = top-level phase
  std::uint64_t calls = 0;
  std::uint64_t inclusive_ns = 0;  ///< wall time inside the scope, children included
  std::uint64_t exclusive_ns = 0;  ///< inclusive minus time inside child scopes
};

/// A finished host profile (one thread's tree, or a deterministic merge
/// of several).
struct Profile {
  std::vector<PhaseStats> phases;  ///< preorder

  bool empty() const noexcept { return phases.empty(); }

  /// Total wall time of the top-level phases (the "run" root when the
  /// simulator produced the profile).
  std::uint64_t root_inclusive_ns() const noexcept;

  /// Merge `other` into this profile, phase by phase (matched by name
  /// along the tree path). Deterministic: this profile's phase order is
  /// preserved and phases only `other` has are appended in its encounter
  /// order, so merging N worker profiles in index order always yields
  /// the same result regardless of which thread ran which point.
  void merge(const Profile& other);
};

namespace prof {

class Collector;

namespace detail {
/// Count of installed collectors across all threads. `Scope` reads it
/// relaxed as the cheap first gate; zero means no thread is profiling.
extern std::atomic<int> g_active_collectors;
extern thread_local Collector* g_tl_collector;
}  // namespace detail

/// True while any thread has a Collector installed.
inline bool globally_enabled() noexcept {
  return detail::g_active_collectors.load(std::memory_order_relaxed) != 0;
}

/// Per-thread phase-tree accumulator. Install on the thread whose scopes
/// should be recorded; uninstall (or destroy) before reading the profile.
class Collector {
 public:
  Collector();
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Make this the calling thread's active collector (nesting another
  /// collector on the same thread is a usage error and throws).
  void install();
  /// Detach from the thread. Idempotent.
  void uninstall();

  /// Flatten the accumulated tree to a preorder Profile. The collector
  /// keeps its data (call repeatedly if needed).
  Profile take() const;

 private:
  friend class Scope;

  struct Node {
    const char* name = nullptr;
    int id = -1;  ///< -1 = no per-instance attribution
    int parent = 0;
    std::uint64_t calls = 0;
    std::uint64_t inclusive_ns = 0;
    std::uint64_t child_ns = 0;  ///< time attributed to direct children
    std::vector<int> children;
  };

  /// Descend into the child (name,id) of the current node, creating it
  /// on first encounter. Returns the node index.
  int enter(const char* name, int id);
  /// Close `node`, charging it `elapsed_ns`, and pop back to its parent.
  void leave(int node, std::uint64_t elapsed_ns);

  std::vector<Node> nodes_;  ///< nodes_[0] is a synthetic, never-emitted root
  int current_ = 0;
  bool installed_ = false;
};

/// RAII phase scope. Construction is the hot-path gate: while no
/// collector is installed anywhere it is a single relaxed atomic load
/// and a predictable branch.
class Scope {
 public:
  explicit Scope(const char* name, int id = -1) noexcept {
    if (detail::g_active_collectors.load(std::memory_order_relaxed) == 0) return;
    begin(name, id);
  }
  ~Scope() {
    if (collector_ != nullptr) end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void begin(const char* name, int id) noexcept;
  void end() noexcept;

  Collector* collector_ = nullptr;
  int node_ = 0;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace prof
}  // namespace nocdvfs::obs

// Two-level expansion so __LINE__ is stringized into a unique identifier.
#define NOCDVFS_PROF_CONCAT2(a, b) a##b
#define NOCDVFS_PROF_CONCAT(a, b) NOCDVFS_PROF_CONCAT2(a, b)

/// Attribute the enclosing block's wall time to phase `name`.
#define PROF_SCOPE(name) \
  ::nocdvfs::obs::prof::Scope NOCDVFS_PROF_CONCAT(nocdvfs_prof_scope_, __LINE__)(name)

/// Attribute the enclosing block's wall time to phase `name` for
/// instance `id` (e.g. one VF island) — rendered as "name#<id>".
#define PROF_SCOPE_ID(name, id) \
  ::nocdvfs::obs::prof::Scope NOCDVFS_PROF_CONCAT(nocdvfs_prof_scope_, __LINE__)(name, (id))
