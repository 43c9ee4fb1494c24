#include "vfi/island_map.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strings.hpp"

namespace nocdvfs::vfi {

const char* to_string(Preset preset) noexcept {
  switch (preset) {
    case Preset::Global: return "global";
    case Preset::Rows: return "rows";
    case Preset::Cols: return "cols";
    case Preset::Quadrants: return "quadrants";
    case Preset::PerRouter: return "per_router";
    case Preset::Custom: return "custom";
  }
  return "?";
}

Preset preset_from_string(const std::string& name) {
  constexpr Preset kAll[] = {Preset::Global,    Preset::Rows,   Preset::Cols,
                             Preset::Quadrants, Preset::PerRouter, Preset::Custom};
  return common::from_name(name, kAll, "unknown island layout");
}

namespace {

/// Parse a comma-separated island-id list ("0,0,1,1"); throws
/// std::invalid_argument on malformed input.
std::vector<int> parse_island_list(const std::string& text) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    std::string token = text.substr(pos, comma - pos);
    // Trim surrounding whitespace so "0, 1" parses.
    const auto b = token.find_first_not_of(" \t");
    const auto e = token.find_last_not_of(" \t");
    token = b == std::string::npos ? std::string() : token.substr(b, e - b + 1);
    if (token.empty()) {
      throw std::invalid_argument("island_map: empty entry at position " +
                                  std::to_string(out.size()));
    }
    std::size_t consumed = 0;
    int value = 0;
    try {
      value = std::stoi(token, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != token.size() || value < 0) {
      throw std::invalid_argument("island_map: entry '" + token + "' at position " +
                                  std::to_string(out.size()) +
                                  " is not a non-negative integer");
    }
    out.push_back(value);
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

std::vector<int> island_assignment(Preset preset, int width, int height,
                                   const std::string& custom_map) {
  if (width < 1 || height < 1) {
    throw std::invalid_argument("islands: mesh dimensions must be positive");
  }
  const int n = width * height;
  std::vector<int> island_of(static_cast<std::size_t>(n), 0);
  const auto node = [width](int x, int y) { return y * width + x; };
  switch (preset) {
    case Preset::Global:
      break;
    case Preset::Rows:
      for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) island_of[static_cast<std::size_t>(node(x, y))] = y;
      }
      break;
    case Preset::Cols:
      for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) island_of[static_cast<std::size_t>(node(x, y))] = x;
      }
      break;
    case Preset::Quadrants: {
      if (width < 2 || height < 2) {
        throw std::invalid_argument(
            "islands=quadrants needs a mesh at least 2x2 (got " + std::to_string(width) +
            "x" + std::to_string(height) + ")");
      }
      // Odd dimensions put the extra row/column in the low quadrants, so a
      // 5x5 mesh splits 3+2 in each dimension.
      const int cw = (width + 1) / 2;
      const int ch = (height + 1) / 2;
      for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
          island_of[static_cast<std::size_t>(node(x, y))] =
              (y >= ch ? 2 : 0) + (x >= cw ? 1 : 0);
        }
      }
      break;
    }
    case Preset::PerRouter:
      for (int i = 0; i < n; ++i) island_of[static_cast<std::size_t>(i)] = i;
      break;
    case Preset::Custom: {
      if (custom_map.empty()) {
        throw std::invalid_argument(
            "islands=custom requires island_map=<id,id,...> (one id per node, "
            "row-major)");
      }
      return parse_island_list(custom_map);
    }
  }
  return island_of;
}

}  // namespace nocdvfs::vfi
