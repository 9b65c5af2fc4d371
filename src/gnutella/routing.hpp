// p2pgen — GUID routing table.
//
// Per the Gnutella protocol (paper Section 3.1): forwarding a QUERY more
// than once is prevented by remembering its GUID together with the
// directly-connected peer it was first received from; QUERYHITs are routed
// back along that reverse path.  Entries expire after a configurable
// period (typically 10 minutes).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "gnutella/guid.hpp"

namespace p2pgen::gnutella {

/// Identifier of a directly-connected peer (the sim layer's connection id).
using PeerLink = std::uint64_t;

/// GUID -> origin-link table with time-based expiry.
///
/// Entries live in two open-addressing generations, keyed on the first 8
/// GUID bytes (random in a generated GUID).  New entries go into the
/// current generation; once `now` reaches its start plus the expiry, it
/// becomes the previous generation and the old previous one, whose
/// entries have all expired by then, is dropped.  An entry counts as
/// live until `seen_at + expiry <= now`, checked on lookup, so the table
/// holds at most two expiry windows of entries and never purges per call.
class RoutingTable {
 public:
  /// `expiry_seconds` — how long an entry stays routable (spec: ~600 s).
  explicit RoutingTable(double expiry_seconds = 600.0);

  /// Records that `guid` was first received over `from`.  Returns true if
  /// this is the first sighting (the message should be processed /
  /// forwarded), false if the GUID is a duplicate (drop it).
  /// `now` is the current time in seconds; it must be non-decreasing
  /// across calls.  Throws std::invalid_argument on a NaN `now`.
  bool note_seen(const Guid& guid, PeerLink from, double now);

  /// Reverse-path lookup for a response GUID: the link the original
  /// request arrived on, or nullopt if unknown/expired.
  std::optional<PeerLink> reverse_route(const Guid& guid, double now);

  /// Number of live (non-expired) entries at `now`.
  std::size_t size(double now);

  double expiry_seconds() const noexcept { return expiry_; }

 private:
  /// 32 bytes; an empty slot has a NaN `seen_at`.
  struct Entry {
    Guid guid;
    PeerLink from = 0;
    double seen_at = std::numeric_limits<double>::quiet_NaN();

    bool used() const noexcept { return !std::isnan(seen_at); }
  };
  static_assert(sizeof(Entry) == 32);

  /// One flat linear-probing table; entries are never erased singly.
  struct Generation {
    std::vector<Entry> slots;  // power-of-two size, at most half full
    std::size_t count = 0;
    double start = 0.0;

    const Entry* find(const Guid& guid) const noexcept;
    void insert(const Guid& guid, PeerLink from, double now);
    void clear() noexcept;
  };

  bool live(const Entry& entry, double now) const noexcept {
    return !(entry.seen_at + expiry_ <= now);
  }
  /// Rotates the generations once `now` has passed the current one.
  void advance(double now);
  /// The live entry for `guid` at `now`, if any.
  const Entry* find_live(const Guid& guid, double now);

  double expiry_;
  Generation current_;
  Generation previous_;
};

}  // namespace p2pgen::gnutella
