// p2pgen — little-endian field codec for the fixed-layout binary formats.
//
// Explicit byte shifts, so an encoded record is the same on any host.
#pragma once

#include <bit>
#include <cstdint>

namespace p2pgen::util {

inline void put_u32(unsigned char* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
}

inline void put_u64(unsigned char* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
}

inline std::uint32_t get_u32(const unsigned char* in) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

inline std::uint64_t get_u64(const unsigned char* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

/// A double as its IEEE-754 bits — how every format stores (and every
/// equality test compares) times, so -0.0 and NaN payloads survive.
inline std::uint64_t double_bits(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value);
}

inline double bits_double(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

}  // namespace p2pgen::util
