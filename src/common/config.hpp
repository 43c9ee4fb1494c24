#pragma once

/// \file config.hpp
/// BookSim-style typed key=value configuration store.
///
/// Benches and examples accept `key=value` command-line overrides; modules
/// register defaults and read typed values. Unknown keys are rejected at
/// parse time so typos fail loudly instead of silently running the default.
/// `run_main` is the one program front end built on it.

#include <cstdint>
#include <fstream>
#include <functional>
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

/// The front end of every bench and example `main`. Declares `help`,
/// parses argv's `key=value` tokens into `config`, runs `after_parse` (if
/// set; e.g. to re-declare defaults that depend on a parsed key), answers
/// `help=1` by printing summary_lines() to stdout, and otherwise returns
/// `body()`. A std::exception from any of these steps is printed as one
/// stderr line, `<program>: <what>` (<program> is argv[0]'s file name),
/// and returns 1. So a program exits 0 on success or help, 1 on any error,
/// or whatever its body returns.
int run_main(Config& config, int argc, const char* const* argv, const std::function<int()>& body,
             const std::function<void()>& after_parse = {});

/// Create `path`'s parent directories and open it for writing. Throws
/// std::runtime_error naming the path if that fails, so a program can
/// reject an unwritable output before it runs anything.
std::ofstream open_output(const std::string& path);

}  // namespace nocdvfs::common
