// p2pgen — unstructured TTL-flooding search, optionally with response
// caching (the Gnutella baseline and the caching variant discussed in the
// paper's related work).
#pragma once

#include <unordered_map>

#include "search/overlay.hpp"

namespace p2pgen::search {

/// Outcome of one search.
struct SearchOutcome {
  bool found = false;
  std::uint64_t messages = 0;  // query transmissions
  std::uint64_t cache_answers = 0;
};

/// TTL-limited flooding with optional per-peer response caches.
class FloodSearch {
 public:
  struct Config {
    int ttl = 4;
    /// TTL of cached responses, seconds; 0 disables caching.
    double cache_ttl = 0.0;
  };

  /// Holds references; overlay and index must outlive the searcher.
  FloodSearch(const Overlay& overlay, const ContentIndex& index, Config config);

  /// Floods `key` from `origin` at time `now`.  With caching enabled, a
  /// peer holding a live cached response answers and stops forwarding;
  /// successful responses populate the caches of the origin and its
  /// neighbors (the reverse path's first hop).
  SearchOutcome search(PeerId origin, ContentKey key, double now);

  /// Aggregate counters across all searches so far.
  std::uint64_t total_messages() const noexcept { return total_messages_; }
  std::uint64_t total_queries() const noexcept { return total_queries_; }

 private:
  const Overlay& overlay_;
  const ContentIndex& index_;
  Config config_;
  std::vector<std::unordered_map<ContentKey, double>> caches_;  // expiry
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_queries_ = 0;
  // scratch buffers reused across searches (avoids per-query allocation)
  std::vector<char> seen_;
  std::vector<std::pair<PeerId, int>> frontier_;
};

}  // namespace p2pgen::search
