#include "gnutella/routing.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace p2pgen::gnutella {
namespace {

constexpr std::size_t kInitialSlots = 1024;

/// Slot of `guid` in a table of `mask + 1` slots: Fibonacci hashing of
/// the first 8 GUID bytes, keeping the top bits.
std::size_t home_slot(const Guid& guid, std::size_t mask) noexcept {
  std::uint64_t key = 0;
  std::memcpy(&key, guid.bytes.data(), sizeof(key));
  const int shift = std::countl_zero(static_cast<std::uint64_t>(mask));
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift) & mask;
}

}  // namespace

const RoutingTable::Entry* RoutingTable::Generation::find(
    const Guid& guid) const noexcept {
  if (count == 0) return nullptr;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = home_slot(guid, mask);; i = (i + 1) & mask) {
    const Entry& entry = slots[i];
    if (!entry.used()) return nullptr;
    if (entry.guid == guid) return &entry;
  }
}

void RoutingTable::Generation::insert(const Guid& guid, PeerLink from,
                                      double now) {
  if (2 * (count + 1) > slots.size()) {
    std::vector<Entry> old = std::exchange(
        slots, std::vector<Entry>(std::max(kInitialSlots, 2 * slots.size())));
    count = 0;
    for (const Entry& entry : old) {
      if (entry.used()) insert(entry.guid, entry.from, entry.seen_at);
    }
  }
  const std::size_t mask = slots.size() - 1;
  std::size_t i = home_slot(guid, mask);
  while (slots[i].used()) i = (i + 1) & mask;
  slots[i] = Entry{guid, from, now};
  ++count;
}

void RoutingTable::Generation::clear() noexcept {
  if (count == 0) return;
  std::fill(slots.begin(), slots.end(), Entry{});
  count = 0;
}

RoutingTable::RoutingTable(double expiry_seconds)
    : expiry_(expiry_seconds) {
  if (!(expiry_seconds > 0.0)) {
    throw std::invalid_argument("RoutingTable: expiry must be > 0");
  }
  // The first call starts the first generation.
  current_.start = -std::numeric_limits<double>::infinity();
}

void RoutingTable::advance(double now) {
  if (!(current_.start + expiry_ <= now)) return;
  // Every entry of the previous generation was seen before the current
  // one started, so it has expired by now.
  std::swap(previous_, current_);
  current_.clear();
  current_.start = now;
}

const RoutingTable::Entry* RoutingTable::find_live(const Guid& guid,
                                                   double now) {
  advance(now);
  // Entries of the current generation were seen at or after its start,
  // which is less than one expiry ago: all are live.
  if (const Entry* entry = current_.find(guid)) return entry;
  const Entry* entry = previous_.find(guid);
  return entry != nullptr && live(*entry, now) ? entry : nullptr;
}

bool RoutingTable::note_seen(const Guid& guid, PeerLink from, double now) {
  if (std::isnan(now)) throw std::invalid_argument("RoutingTable: NaN time");
  if (find_live(guid, now) != nullptr) return false;
  // An expired copy in the previous generation is shadowed: lookups try
  // the current generation first.
  current_.insert(guid, from, now);
  return true;
}

std::optional<PeerLink> RoutingTable::reverse_route(const Guid& guid, double now) {
  const Entry* entry = find_live(guid, now);
  if (entry == nullptr) return std::nullopt;
  return entry->from;
}

std::size_t RoutingTable::size(double now) {
  advance(now);
  std::size_t live_previous = 0;
  for (const Entry& entry : previous_.slots) {
    if (entry.used() && live(entry, now)) ++live_previous;
  }
  return current_.count + live_previous;
}

}  // namespace p2pgen::gnutella
