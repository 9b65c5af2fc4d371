#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/record_file.hpp"
#include "util/le_bytes.hpp"

namespace p2pgen::obs {

namespace {

using util::bits_double;
using util::double_bits;

/// Sidecar wire format (record_file.hpp; 16-byte header tail):
///   "p2pt" | u32 version | u32 series_count | u32 pad(0) |
///   u64 tick_seconds_bits | u64 count | count * records | u32 CRC32
/// Record: u64 time_bits | u32 shard | u32 pad(0) |
///         kTimelineSeriesCount * u64 values
/// Version 2 added the CRC32 trailer, so a resume can tell a damaged
/// sidecar from a valid one and rebuild it (DESIGN.md §14).
struct TimelineCodec {
  using Record = TimelinePoint;
  static constexpr RecordFormat kFormat{"timeline", {'p', '2', 'p', 't'}, 2,
                                        16, 16 + 8 * kTimelineSeriesCount};

  static void encode(unsigned char* out, const TimelinePoint& p) noexcept {
    util::put_u64(out + 0, double_bits(p.time));
    util::put_u32(out + 8, p.shard);
    util::put_u32(out + 12, 0);
    for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
      util::put_u64(out + 16 + 8 * s, p.values[s]);
    }
  }

  static TimelinePoint decode(const unsigned char* in) noexcept {
    TimelinePoint p;
    p.time = bits_double(util::get_u64(in + 0));
    p.shard = util::get_u32(in + 8);
    for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
      p.values[s] = util::get_u64(in + 16 + 8 * s);
    }
    return p;
  }
};

}  // namespace

const char* timeline_series_name(TimelineSeries series) noexcept {
  switch (series) {
    case TimelineSeries::kQueries: return "queries";
    case TimelineSeries::kQueryHits: return "query_hits";
    case TimelineSeries::kSessionsStarted: return "sessions_started";
    case TimelineSeries::kSessionsEnded: return "sessions_ended";
    case TimelineSeries::kActiveSessions: return "active_sessions";
    case TimelineSeries::kShedQueries: return "shed_queries";
    case TimelineSeries::kShedConnections: return "shed_connections";
    case TimelineSeries::kDropLoss: return "drop_loss";
    case TimelineSeries::kDropCorrupted: return "drop_corrupted";
    case TimelineSeries::kDropDeadLink: return "drop_dead_link";
    case TimelineSeries::kDropDuplicate: return "drop_duplicate";
    case TimelineSeries::kQueriesNorthAmerica: return "queries_north_america";
    case TimelineSeries::kQueriesEurope: return "queries_europe";
    case TimelineSeries::kQueriesAsia: return "queries_asia";
    case TimelineSeries::kQueriesOther: return "queries_other";
  }
  return "unknown";
}

bool operator==(const TimelinePoint& a, const TimelinePoint& b) noexcept {
  return double_bits(a.time) == double_bits(b.time) && a.shard == b.shard &&
         a.values == b.values;
}

TimelineRecorder::TimelineRecorder(const TimelineConfig& config)
    : tick_(config.tick_seconds), gate_(config.gate_time) {}

void TimelineRecorder::close_tick() {
  TimelinePoint point;
  // gate + k * tick with integer k: every shard computes the identical
  // expression, and no floating-point error accumulates over a 40-day
  // run the way repeated `+= tick_` would.
  point.time = gate_ + static_cast<double>(next_tick_) * tick_;
  point.values = counts_;
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    const auto series = static_cast<TimelineSeries>(s);
    if (timeline_series_is_gauge(series)) {
      point.values[s] =
          static_cast<std::uint64_t>(std::max<std::int64_t>(levels_[s], 0));
    }
  }
  points_.push_back(point);
  counts_.fill(0);
  ++next_tick_;
}

void TimelineRecorder::advance_to(double time) {
  // Close every tick that ends at or before `time`.  The loop is bounded
  // by the simulation horizon / tick ratio (a few thousand for the
  // default tick even at the 40-day paper scale).
  while (time >= gate_ + static_cast<double>(next_tick_ + 1) * tick_) {
    close_tick();
  }
}

void TimelineRecorder::count(double time, TimelineSeries series,
                             std::uint64_t n) {
  if (tick_ <= 0.0 || time < gate_) return;
  advance_to(time);
  counts_[static_cast<std::size_t>(series)] += n;
}

void TimelineRecorder::level(double time, TimelineSeries series,
                             std::int64_t delta) {
  if (tick_ <= 0.0) return;
  // Pre-gate deltas still move the level (warm-up opens real sessions the
  // first tick must count), but never close a tick.
  if (time >= gate_) advance_to(time);
  levels_[static_cast<std::size_t>(series)] += delta;
}

void TimelineRecorder::finish(double end_time) {
  if (tick_ <= 0.0) return;
  while (gate_ + static_cast<double>(next_tick_) * tick_ < end_time) {
    close_tick();
  }
}

std::uint64_t timeline_digest(
    const std::vector<TimelinePoint>& points) noexcept {
  return record_digest<TimelineCodec>(points);
}

void publish_timeline_metrics(const std::vector<TimelinePoint>& merged) {
  auto& registry = Registry::global();

  auto points_total = registry.counter("timeline.points");
  auto peak_active = registry.gauge("timeline.peak.active_sessions");
  std::array<Counter, kTimelineSeriesCount> totals;
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    const auto series = static_cast<TimelineSeries>(s);
    if (timeline_series_is_gauge(series)) continue;
    totals[s] = registry.counter(std::string("timeline.total.") +
                                 timeline_series_name(series));
  }

  points_total.add(merged.size());
  for (const TimelinePoint& point : merged) {
    for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
      const auto series = static_cast<TimelineSeries>(s);
      if (timeline_series_is_gauge(series)) continue;
      totals[s].add(point.values[s]);
    }
    peak_active.record_max(static_cast<std::int64_t>(
        point.values[static_cast<std::size_t>(TimelineSeries::kActiveSessions)]));
  }
}

std::string timeline_sidecar_path(const std::string& shard_dir) {
  return shard_dir + "/timeline.bin";
}

void save_timeline(const std::string& path,
                   const std::vector<TimelinePoint>& points,
                   double tick_seconds) {
  unsigned char tail[16];
  util::put_u32(tail, static_cast<std::uint32_t>(kTimelineSeriesCount));
  util::put_u32(tail + 4, 0);
  util::put_u64(tail + 8, double_bits(tick_seconds));
  save_records<TimelineCodec>(path, points, tail);
}

bool load_timeline(const std::string& path, std::vector<TimelinePoint>& out,
                   double* tick_seconds) {
  return load_records<TimelineCodec>(
      path, out, [&](const unsigned char* tail) {
        const std::uint32_t series = util::get_u32(tail);
        if (series != kTimelineSeriesCount) {
          throw std::runtime_error("timeline: series count mismatch in " +
                                   path + " (file has " +
                                   std::to_string(series) + ")");
        }
        if (tick_seconds != nullptr) {
          *tick_seconds = bits_double(util::get_u64(tail + 8));
        }
      });
}

void write_timeline_json_members(std::ostream& out,
                                 const std::vector<TimelinePoint>& points,
                                 double tick_seconds, const char* indent) {
  char num[64];
  std::snprintf(num, sizeof(num), "%.9f", tick_seconds);
  out << indent << "\"tick_seconds\": " << num << ",\n"
      << indent << "\"series\": [";
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    out << (s == 0 ? "" : ", ") << '"'
        << timeline_series_name(static_cast<TimelineSeries>(s)) << '"';
  }
  out << "],\n" << indent << "\"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.9f", points[i].time);
    out << (i == 0 ? "\n" : ",\n") << indent << "  [" << num << ", "
        << points[i].shard;
    for (std::uint64_t value : points[i].values) out << ", " << value;
    out << "]";
  }
  if (!points.empty()) out << "\n" << indent;
  out << "]\n";
}

void write_timeline_counter_events(std::ostream& out,
                                   const std::vector<TimelinePoint>& points,
                                   bool any_prior) {
  bool first = !any_prior;
  char buffer[64];
  auto value = [](const TimelinePoint& p, TimelineSeries s) {
    return p.values[static_cast<std::size_t>(s)];
  };
  for (const TimelinePoint& point : points) {
    std::snprintf(buffer, sizeof(buffer), "%.3f", point.time * 1e6);
    // Three stacked counter tracks per shard.  The shard index is folded
    // into the track name: chrome://tracing keys counters by (pid, name),
    // so a plain tid would collapse shards into one series.
    out << (first ? "" : ",") << "\n  {\"name\":\"queries[s" << point.shard
        << "]\",\"cat\":\"timeline\",\"ph\":\"C\",\"ts\":" << buffer
        << ",\"pid\":3,\"tid\":" << point.shard << ",\"args\":{"
        << "\"north_america\":" << value(point, TimelineSeries::kQueriesNorthAmerica)
        << ",\"europe\":" << value(point, TimelineSeries::kQueriesEurope)
        << ",\"asia\":" << value(point, TimelineSeries::kQueriesAsia)
        << ",\"other\":" << value(point, TimelineSeries::kQueriesOther)
        << ",\"hits\":" << value(point, TimelineSeries::kQueryHits) << "}}";
    first = false;
    out << ",\n  {\"name\":\"sessions[s" << point.shard
        << "]\",\"cat\":\"timeline\",\"ph\":\"C\",\"ts\":" << buffer
        << ",\"pid\":3,\"tid\":" << point.shard << ",\"args\":{"
        << "\"active\":" << value(point, TimelineSeries::kActiveSessions)
        << ",\"started\":" << value(point, TimelineSeries::kSessionsStarted)
        << ",\"ended\":" << value(point, TimelineSeries::kSessionsEnded) << "}}";
    out << ",\n  {\"name\":\"drops[s" << point.shard
        << "]\",\"cat\":\"timeline\",\"ph\":\"C\",\"ts\":" << buffer
        << ",\"pid\":3,\"tid\":" << point.shard << ",\"args\":{"
        << "\"shed_queries\":" << value(point, TimelineSeries::kShedQueries)
        << ",\"shed_connections\":" << value(point, TimelineSeries::kShedConnections)
        << ",\"loss\":" << value(point, TimelineSeries::kDropLoss)
        << ",\"corrupted\":" << value(point, TimelineSeries::kDropCorrupted)
        << ",\"dead_link\":" << value(point, TimelineSeries::kDropDeadLink)
        << ",\"duplicate\":" << value(point, TimelineSeries::kDropDuplicate)
        << "}}";
  }
}

}  // namespace p2pgen::obs
