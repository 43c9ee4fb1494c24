#pragma once

/// \file config.hpp
/// BookSim-style typed key=value configuration store.
///
/// Benches and examples accept `key=value` command-line overrides; modules
/// register defaults and read typed values. Unknown keys are rejected at
/// parse time so typos fail loudly instead of silently running the default.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace nocdvfs::common {

class Config {
 public:
  /// Register a key with its default value. Re-registering overwrites the
  /// default but preserves an explicit assignment if one was made.
  void declare(const std::string& key, const std::string& default_value,
               const std::string& help = "");
  void declare_int(const std::string& key, std::int64_t default_value,
                   const std::string& help = "");
  void declare_double(const std::string& key, double default_value, const std::string& help = "");
  void declare_bool(const std::string& key, bool default_value, const std::string& help = "");

  /// Assign a value. Throws std::out_of_range if the key was never declared.
  void set(const std::string& key, const std::string& value);

  /// Parse a single "key=value" token. Throws std::invalid_argument on
  /// malformed input or undeclared keys.
  void parse_assignment(const std::string& token);

  /// Parse argv-style overrides (skips argv[0]).
  void parse_args(int argc, const char* const* argv);

  bool contains(const std::string& key) const;
  bool was_set(const std::string& key) const;

  std::string get_string(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  /// get_int checked against [lo, hi]; throws std::invalid_argument naming
  /// the key and the range otherwise. Use it wherever the value is stored
  /// in a narrower type or must respect a component limit.
  std::int64_t get_int_in(const std::string& key, std::int64_t lo, std::int64_t hi) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  /// Comma-separated list of doubles, e.g. "0.05,0.1,0.2".
  std::vector<double> get_double_list(const std::string& key) const;

  /// All declared keys in sorted order with current values (for --help
  /// output and experiment logging).
  std::vector<std::string> summary_lines() const;

  /// All declared keys with their current values, sorted by key — the
  /// machine-readable sibling of summary_lines(), used to dump a full
  /// scenario into a run-provenance manifest.
  std::vector<std::pair<std::string, std::string>> kv_pairs() const;

 private:
  struct Entry {
    std::string value;
    std::string help;
    bool assigned = false;
  };
  const Entry& entry(const std::string& key) const;
  std::map<std::string, Entry> entries_;
};

}  // namespace nocdvfs::common
