// p2pgen — the per-shard observer-sidecar protocol (DESIGN.md §12–§14).
//
// Every run path handles the qtrace and timeline streams the same way:
// a finished shard's streams are saved next to its spool before the
// shard is marked done, a done shard reloads them on resume (or asks to
// be replayed when one is damaged), and the per-shard streams are merged
// in (time, shard) order and published once.  These functions are that
// protocol, for both streams at once; the durable runner, the sharded
// and single-shard simulations and the streaming analysis all call them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"

namespace p2pgen::obs {

/// One shard's observer streams — or, merged, one run's.
struct ObserverStreams {
  std::vector<QueryHopEvent> qtrace;
  std::vector<TimelinePoint> timeline;
};

/// Which observer streams a run records, and so which sidecars each of
/// its shards keeps.
struct SidecarSet {
  SidecarSet() = default;
  SidecarSet(const QtraceConfig& qtrace_config,
             const TimelineConfig& timeline_config)
      : qtrace(qtrace_config.sample_rate > 0.0),
        timeline(timeline_config.tick_seconds > 0.0),
        tick_seconds(timeline_config.tick_seconds) {}

  bool qtrace = false;
  bool timeline = false;
  double tick_seconds = 0.0;  ///< written into timeline.bin
};

/// Durably writes the sidecars in `set` for a finished shard: each file
/// and the shard directory are fsync'd, so they are on disk before the
/// caller marks the shard done.  An empty stream still writes a valid
/// zero-count file: its presence is how readers know the stream was on.
void save_sidecars(const std::string& shard_dir, const SidecarSet& set,
                   const ObserverStreams& streams);

/// Loads the sidecars in `set` of a done shard into `streams`.  A missing
/// file leaves its stream empty (the shard finished before that stream
/// was on).  Returns false, with `streams` cleared, when a sidecar is
/// damaged: the caller must rebuild both by replaying the shard — they
/// are pure functions of (model, config, shard seed).
bool load_sidecars(const std::string& shard_dir, const SidecarSet& set,
                   ObserverStreams& streams);

/// Merges per-shard streams (each time-nondecreasing) in stable (time,
/// shard index, within-shard position) order — the order
/// trace::merge_traces pins — and stamps each record's `shard`.
template <typename Record>
std::vector<Record> merge_by_time(std::vector<std::vector<Record>> shards) {
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<Record> merged;
  merged.reserve(total);

  // Repeatedly take the head with the strictly smallest time, scanning
  // shards in ascending index so ties resolve to the lowest shard.
  std::vector<std::size_t> cursor(shards.size(), 0);
  while (merged.size() < total) {
    std::size_t best = shards.size();
    for (std::size_t k = 0; k < shards.size(); ++k) {
      if (cursor[k] >= shards[k].size()) continue;
      if (best == shards.size() ||
          shards[k][cursor[k]].time < shards[best][cursor[best]].time) {
        best = k;
      }
    }
    Record record = shards[best][cursor[best]++];
    record.shard = static_cast<std::uint32_t>(best);
    merged.push_back(record);
  }
  return merged;
}

/// Merges the per-shard streams in (time, shard) order and publishes the
/// aggregates of each stream in `set`.  Call once per analysis: the
/// merged order is what makes every aggregate identical at any thread
/// count.  Streams outside `set` come back empty.
ObserverStreams merge_and_publish(const SidecarSet& set,
                                  std::vector<ObserverStreams> shards);

/// The streaming analysis's side of the protocol: loads every shard's
/// sidecars, then merges and publishes.  A stream counts as on iff at
/// least one shard has its sidecar (the producer writes one per shard
/// exactly when the stream is on), so both analysis paths expose the same
/// metrics.  `*tick_seconds` receives the timeline tick, 0 without one.
/// Throws std::runtime_error on a damaged sidecar.
ObserverStreams read_sidecars(const std::vector<std::string>& shard_dirs,
                              double* tick_seconds);

}  // namespace p2pgen::obs
