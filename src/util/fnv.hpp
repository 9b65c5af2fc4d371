// p2pgen — FNV-1a 64-bit, the one hash behind every byte-identity digest.
//
// Trace digests, spool payload digests, config and run-identity digests,
// the qtrace sampler, the observer-sidecar digests and GuidHash all fold
// bytes through fnv1a_update below; the helpers only fix how a value is
// turned into bytes.  Header-only, so every layer (obs included, which
// links nothing) can use it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace p2pgen::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t fnv1a_update(std::uint64_t hash, const void* data,
                                  std::size_t n) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the eight little-endian bytes of `value`.
inline std::uint64_t fnv1a_u64(std::uint64_t hash,
                               std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffU;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds a u64 length prefix, then the bytes: adjacent strings cannot
/// alias ("ab","c" vs "a","bc").
inline std::uint64_t fnv1a_string(std::uint64_t hash,
                                  std::string_view s) noexcept {
  hash = fnv1a_u64(hash, static_cast<std::uint64_t>(s.size()));
  return fnv1a_update(hash, s.data(), s.size());
}

}  // namespace p2pgen::util
