#include "search/flooding.hpp"

#include <algorithm>

namespace p2pgen::search {

FloodSearch::FloodSearch(const Overlay& overlay, const ContentIndex& index,
                         Config config)
    : overlay_(overlay),
      index_(index),
      config_(config),
      caches_(config.cache_ttl > 0.0 ? overlay.size() : 0),
      seen_(overlay.size(), 0) {}

SearchOutcome FloodSearch::search(PeerId origin, ContentKey key, double now) {
  SearchOutcome outcome;
  ++total_queries_;

  const bool caching = config_.cache_ttl > 0.0;
  std::fill(seen_.begin(), seen_.end(), 0);
  frontier_.clear();
  seen_[origin] = 1;
  frontier_.emplace_back(origin, config_.ttl);

  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const auto [v, ttl_left] = frontier_[head];
    if (index_.holds(v, key)) outcome.found = true;
    if (caching) {
      const auto& cache = caches_[v];
      const auto it = cache.find(key);
      if (it != cache.end() && it->second > now) {
        outcome.found = true;
        ++outcome.cache_answers;
        continue;  // answered from cache: no further forwarding from v
      }
    }
    if (ttl_left == 0) continue;
    for (PeerId u : overlay_.neighbors(v)) {
      if (seen_[u]) continue;
      seen_[u] = 1;
      ++outcome.messages;
      frontier_.emplace_back(u, ttl_left - 1);
    }
  }

  if (outcome.found && caching) {
    // Responses travel the reverse path; the requester and its first hop
    // learn the answer.
    caches_[origin][key] = now + config_.cache_ttl;
    for (PeerId u : overlay_.neighbors(origin)) {
      caches_[u][key] = now + config_.cache_ttl;
    }
  }
  total_messages_ += outcome.messages;
  return outcome;
}

}  // namespace p2pgen::search
