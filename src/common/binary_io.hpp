#pragma once

/// \file binary_io.hpp
/// Little-endian encoding of fixed-width integers and IEEE-754 doubles,
/// the one byte-order layer under both binary formats (`.nocobs`,
/// obs/timeline.cpp, and `.noctrace`, trace/trace.cpp). Bytes are shifted
/// in and out explicitly, so a file reads the same on every host whatever
/// its native byte order.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace nocdvfs::common {

/// A type with a fixed little-endian encoding of sizeof(T) bytes.
template <class T>
concept LittleEndianValue =
    (std::is_integral_v<T> && !std::is_same_v<T, bool>) || std::is_same_v<T, double>;

/// The unsigned integer a T's bits are shifted through.
template <class T>
using Bits = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>>>;

/// Writes `value` to p[0 .. sizeof(T)), least significant byte first.
template <LittleEndianValue T>
void put_le(unsigned char* p, T value) {
  const auto bits = std::bit_cast<Bits<T>>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<unsigned char>(bits >> (8 * i));
  }
}

/// Reads the T that put_le wrote at p.
template <LittleEndianValue T>
T get_le(const unsigned char* p) {
  Bits<T> bits = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bits = static_cast<Bits<T>>(bits | static_cast<Bits<T>>(Bits<T>{p[i]} << (8 * i)));
  }
  return std::bit_cast<T>(bits);
}

}  // namespace nocdvfs::common
