#include "gnutella/guid.hpp"

#include <cstring>

#include "util/fnv.hpp"

namespace p2pgen::gnutella {

Guid Guid::generate(stats::Rng& rng) {
  Guid g;
  for (int chunk = 0; chunk < 2; ++chunk) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(g.bytes.data() + chunk * 8, &word, 8);
  }
  g.bytes[8] = 0xff;  // "new GUID" marker per the Gnutella 0.6 convention
  g.bytes[15] = 0x00;
  return g;
}

bool Guid::is_zero() const noexcept {
  for (auto b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

std::string Guid::to_string() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (auto b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

std::size_t GuidHash::operator()(const Guid& g) const noexcept {
  // The seed is not the FNV offset basis (that has one more digit), and
  // GUID hashes land in every trace: changing it changes every digest.
  constexpr std::uint64_t kSeed = 1469598103934665603ULL;
  return util::fnv1a_update(kSeed, g.bytes.data(), g.bytes.size());
}

}  // namespace p2pgen::gnutella
