#include "obs/sidecars.hpp"

#include <exception>
#include <utility>

namespace p2pgen::obs {

void save_sidecars(const std::string& shard_dir, const SidecarSet& set,
                   const ObserverStreams& streams) {
  if (set.qtrace) save_qtrace(qtrace_sidecar_path(shard_dir), streams.qtrace);
  if (set.timeline) {
    save_timeline(timeline_sidecar_path(shard_dir), streams.timeline,
                  set.tick_seconds);
  }
}

bool load_sidecars(const std::string& shard_dir, const SidecarSet& set,
                   ObserverStreams& streams) {
  try {
    if (set.qtrace) load_qtrace(qtrace_sidecar_path(shard_dir), streams.qtrace);
    if (set.timeline) {
      load_timeline(timeline_sidecar_path(shard_dir), streams.timeline);
    }
    return true;
  } catch (const std::exception&) {
    streams = {};
    return false;
  }
}

ObserverStreams merge_and_publish(const SidecarSet& set,
                                  std::vector<ObserverStreams> shards) {
  std::vector<std::vector<QueryHopEvent>> qtrace(shards.size());
  std::vector<std::vector<TimelinePoint>> timeline(shards.size());
  for (std::size_t k = 0; k < shards.size(); ++k) {
    qtrace[k] = std::move(shards[k].qtrace);
    timeline[k] = std::move(shards[k].timeline);
  }
  ObserverStreams merged;
  if (set.qtrace) {
    merged.qtrace = merge_by_time(std::move(qtrace));
    publish_qtrace_metrics(merged.qtrace);
  }
  if (set.timeline) {
    merged.timeline = merge_by_time(std::move(timeline));
    publish_timeline_metrics(merged.timeline);
  }
  return merged;
}

ObserverStreams read_sidecars(const std::vector<std::string>& shard_dirs,
                              double* tick_seconds) {
  SidecarSet found;
  std::vector<ObserverStreams> shards(shard_dirs.size());
  for (std::size_t k = 0; k < shard_dirs.size(); ++k) {
    found.qtrace |=
        load_qtrace(qtrace_sidecar_path(shard_dirs[k]), shards[k].qtrace);
    found.timeline |= load_timeline(timeline_sidecar_path(shard_dirs[k]),
                                    shards[k].timeline, &found.tick_seconds);
  }
  *tick_seconds = found.tick_seconds;
  return merge_and_publish(found, std::move(shards));
}

}  // namespace p2pgen::obs
