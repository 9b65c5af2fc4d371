// p2pgen — CRC32 (IEEE 802.3, the zlib polynomial).
//
// The one checksum on disk: every spool frame and the trailer of every
// observer sidecar.  Header-only with a compile-time table, so the obs
// layer can use it without linking anything.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace p2pgen::util {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();
}  // namespace detail

/// Streaming form: seed with crc32_init(), fold chunks in order with
/// crc32_update(), finish with crc32_final().
inline constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

inline std::uint32_t crc32_update(std::uint32_t state, const void* data,
                                  std::size_t n) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state = detail::kCrc32Table[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

inline constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot convenience over a whole buffer.
inline std::uint32_t crc32(const void* data, std::size_t n) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, n));
}

}  // namespace p2pgen::util
