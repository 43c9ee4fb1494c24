#pragma once

/// \file strings.hpp
/// Small string helpers shared across the experiment surface.

#include <cctype>
#include <charconv>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace nocdvfs::common {

/// Split on `sep` (comma by default), preserving empty tokens
/// ("a,,b" → {"a","","b"}); an empty input yields an empty vector.
inline std::vector<std::string> split_csv(const std::string& text, char sep = ',') {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t cut = std::min(text.find(sep, pos), text.size());
    out.push_back(text.substr(pos, cut - pos));
    if (cut == text.size()) break;
    pos = cut + 1;
  }
  return out;
}

/// Shortest text that parses back to exactly `v` (std::to_chars round-trip
/// form): 0.15 → "0.15", 1e-300 → "1e-300", never a rounded digit string.
inline std::string format_double(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// ASCII lower-case copy of `s`.
inline std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Case-insensitive lookup of `name` among the `to_string` names of `all`
/// (found by argument-dependent lookup in the enum's namespace). An
/// unknown name throws std::invalid_argument "<what> '<name>' (valid: a b
/// …)", naming the offender as given and every valid name.
template <typename Enum, std::size_t N>
Enum from_name(const std::string& name, const Enum (&all)[N], const std::string& what) {
  const std::string lower = to_lower(name);
  for (const Enum e : all) {
    if (lower == to_string(e)) return e;
  }
  std::string msg = what + " '" + name + "' (valid:";
  for (const Enum e : all) msg += std::string(" ") + to_string(e);
  throw std::invalid_argument(msg + ")");
}

}  // namespace nocdvfs::common
