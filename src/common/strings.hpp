#pragma once

/// \file strings.hpp
/// Small string helpers shared across the experiment surface.

#include <charconv>
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

}  // namespace nocdvfs::common
