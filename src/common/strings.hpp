#pragma once

/// \file strings.hpp
/// Small string helpers shared across the experiment surface.

#include <cctype>
#include <charconv>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// `s` as a JSON string literal, quotes included: `"` and `\` escaped,
/// C0 control bytes as \b \f \n \r \t or \u00XX. Bytes >= 0x80 pass
/// through verbatim (JSON strings are UTF-8).
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[ch >> 4];
          out += kHex[ch & 0xF];
        } else {
          out += ch;
        }
    }
  }
  return out + '"';
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

/// `parse(value)` for a value of the key `key` (or one entry of a list
/// key); a rejected value rethrows with "<key>: " in front, so the error
/// names the key the user typed, not only the value.
template <typename Parse>
auto parse_key_value(const char* key, const std::string& value, Parse parse) {
  try {
    return parse(value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(key) + ": " + e.what());
  }
}

}  // namespace nocdvfs::common
