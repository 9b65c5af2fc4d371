#include "analysis/streaming.hpp"

#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/gaps.hpp"
#include "gnutella/message.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecars.hpp"
#include "obs/span.hpp"
#include "trace/spool.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"
#include "util/thread_pool.hpp"

namespace p2pgen::analysis {
namespace {

/// One spool segment after its parallel decode: the events and the
/// canonicalized keyword strings of hop-1 queries (canonical_keywords
/// dominates decode cost, so it runs in the wave).  The raw frame bytes
/// are NOT kept: append_event_binary round-trips exactly (the checkpoint
/// replay digest-check is built on that), so the consumer re-encodes each
/// event — with its namespaced session id — when folding it into the
/// trace digest.
struct DecodedSegment {
  std::vector<trace::TraceEvent> events;
  std::vector<std::string> canonical;  // aligned; set for hop-1 QUERYs
  trace::SegmentReadResult read;
};

DecodedSegment decode_segment(const trace::SpoolReader& reader,
                              std::size_t index) {
  obs::ObsSpan span("streaming.segment_decode");
  DecodedSegment seg;
  seg.read = reader.read_segment(
      index, [&seg](const std::uint8_t* data, std::size_t size) {
        seg.events.push_back(trace::decode_event_binary(data, size));
      });
  seg.canonical.resize(seg.events.size());
  for (std::size_t i = 0; i < seg.events.size(); ++i) {
    const auto* msg = std::get_if<trace::MessageEvent>(&seg.events[i]);
    if (msg != nullptr && msg->type == gnutella::MessageType::kQuery &&
        msg->hops == 1) {
      seg.canonical[i] = gnutella::canonical_keywords(msg->query);
    }
  }
  return seg;
}

/// Per-shard read state of the deterministic merge.
struct ShardCursor {
  ShardCursor(const std::string& dir, trace::SpoolReadMode mode)
      : reader(dir, mode) {}

  trace::SpoolReader reader;
  std::uint64_t id_base = 0;          // shard * kShardSessionStride
  std::size_t next_segment = 0;       // next segment index to decode
  std::deque<DecodedSegment> ready;   // decoded, not yet fully consumed
  std::size_t event_pos = 0;          // position within ready.front()
  bool torn = false;                  // spool ended in a torn tail
  /// Salvage mode: the shard's gap accounting, fed one segment at a time
  /// in index order as decoded segments are pushed onto `ready`.
  trace::SalvageAssembler assembler;

  bool exhausted() const noexcept {
    return ready.empty() && next_segment >= reader.segment_count();
  }
};

/// How many decoded segments a shard may hold before the wave scheduler
/// stops prefetching for it.  Bounds streaming memory at
/// O(shards * depth * segment), independent of spool size.
constexpr std::size_t kPrefetchDepth = 2;

/// One reconstructed session plus its SessionStart sequence number — the
/// emission key that reproduces the materialized dataset's vector order.
struct TrackedSession {
  ObservedSession session;
  bool open = true;  // no SessionEnd consumed yet
};

/// The whole streaming pass.  A class only to keep the state shared by
/// the wave scheduler, the merge consumer and the emitter in one place.
class StreamingPass {
 public:
  StreamingPass(const std::vector<std::string>& shard_dirs,
                const geo::GeoIpDatabase& geodb,
                const StreamingOptions& options)
      : geodb_(geodb),
        options_(options),
        pool_(options.threads == 0 ? 1 : options.threads),
        shard_dirs_(shard_dirs) {
    const trace::SpoolReadMode mode = options.salvage
                                          ? trace::SpoolReadMode::kSalvage
                                          : trace::SpoolReadMode::kStrict;
    cursors_.reserve(shard_dirs.size());
    for (std::size_t k = 0; k < shard_dirs.size(); ++k) {
      cursors_.emplace_back(shard_dirs[k], mode);
      cursors_.back().id_base = static_cast<std::uint64_t>(k) *
                                trace::kShardSessionStride;
    }
    std::string header;
    trace::append_header_binary(header);
    digest_ = trace::fnv1a_update(trace::kFnvOffsetBasis, header.data(),
                                  header.size());
  }

  StreamingResult run() {
    obs::ObsSpan span("streaming.analyze");
    consume_all();
    return finalize();
  }

 private:
  // ---- decode waves ----------------------------------------------------

  /// Decodes the next wave of segments in parallel: one segment for every
  /// shard that is out of ready events (the consumer cannot pick a merge
  /// head without one), plus round-robin prefetch up to the pool width.
  /// Which segments are decoded when never affects results — only the
  /// consumer's fixed (time, shard) order does.
  void refill() {
    obs::ObsSpan span("streaming.decode_wave");
    std::vector<std::pair<std::size_t, std::size_t>> wave;  // (shard, segment)
    std::vector<std::size_t> pending(cursors_.size(), 0);
    for (std::size_t s = 0; s < cursors_.size(); ++s) {
      ShardCursor& cur = cursors_[s];
      if (cur.ready.empty() && cur.next_segment < cur.reader.segment_count()) {
        wave.emplace_back(s, cur.next_segment++);
        ++pending[s];
      }
    }
    const std::size_t width =
        std::max<std::size_t>(wave.size(), pool_.size());
    bool added = true;
    while (wave.size() < width && added) {
      added = false;
      for (std::size_t s = 0; s < cursors_.size() && wave.size() < width;
           ++s) {
        ShardCursor& cur = cursors_[s];
        if (cur.ready.size() + pending[s] >= kPrefetchDepth) continue;
        if (cur.next_segment >= cur.reader.segment_count()) continue;
        wave.emplace_back(s, cur.next_segment++);
        ++pending[s];
        added = true;
      }
    }
    if (wave.empty()) return;

    std::vector<DecodedSegment> decoded(wave.size());
    pool_.run_indexed(wave.size(), [&](std::size_t i) {
      decoded[i] = decode_segment(cursors_[wave[i].first].reader,
                                  wave[i].second);
    });
    for (std::size_t i = 0; i < wave.size(); ++i) {
      ShardCursor& cur = cursors_[wave[i].first];
      if (decoded[i].read.torn && !cur.torn) {
        cur.torn = true;
        ++stats_out_.shards_torn;
      }
      if (options_.salvage) {
        // Feed the shard's gap accounting in segment-index order (the
        // wave list preserves per-shard order), missing files included —
        // the exact protocol read_spool_salvage follows, so both paths
        // report identical gaps for identical damage.
        for (const std::size_t hole :
             cur.reader.missing_before(wave[i].second)) {
          cur.assembler.add_missing_segment(trace::spool_segment_name(hole));
        }
        cur.assembler.add_segment(decoded[i].read);
      }
      cur.ready.push_back(std::move(decoded[i]));
    }
    stats_out_.segments_read += wave.size();
    ++stats_out_.decode_waves;
  }

  /// Drops fully consumed segments and guarantees every non-exhausted
  /// shard has a ready head event, decoding waves as needed.
  void ensure_heads() {
    for (;;) {
      bool need = false;
      for (ShardCursor& cur : cursors_) {
        while (!cur.ready.empty() &&
               cur.event_pos >= cur.ready.front().events.size()) {
          cur.ready.pop_front();
          cur.event_pos = 0;
        }
        need = need ||
               (cur.ready.empty() &&
                cur.next_segment < cur.reader.segment_count());
      }
      if (!need) return;
      refill();
    }
  }

  // ---- deterministic merge consumer ------------------------------------

  void consume_all() {
    for (;;) {
      ensure_heads();
      // merge_traces pops by (time, shard index): scanning shards in
      // ascending index with a strict `<` reproduces that order exactly.
      std::size_t best = cursors_.size();
      double best_time = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < cursors_.size(); ++s) {
        const ShardCursor& cur = cursors_[s];
        if (cur.ready.empty()) continue;
        const double t =
            trace::event_time(cur.ready.front().events[cur.event_pos]);
        if (t < best_time) {
          best_time = t;
          best = s;
        }
      }
      if (best == cursors_.size()) return;  // all shards exhausted
      consume_one(cursors_[best]);
    }
  }

  void consume_one(ShardCursor& cur) {
    DecodedSegment& seg = cur.ready.front();
    const std::size_t pos = cur.event_pos++;
    trace::TraceEvent& event = seg.events[pos];

    // Namespace the session id exactly like merge_traces, then fold the
    // re-encoded record bytes into the running binary_digest stream
    // (append_event_binary is the exact encoding the spool held).
    if (cur.id_base != 0) {
      std::visit([&](auto& e) { e.session_id += cur.id_base; }, event);
    }
    encode_buf_.clear();
    trace::append_event_binary(event, encode_buf_);
    digest_ = trace::fnv1a_update(digest_, encode_buf_.data(),
                                  encode_buf_.size());
    ++events_;

    // Table-1 counters (Trace::stats(), one event at a time).
    const double t = trace::event_time(event);
    if (first_event_) {
      stats_.first_time = t;
      first_event_ = false;
    }
    stats_.first_time = std::min(stats_.first_time, t);
    stats_.last_time = std::max(stats_.last_time, t);

    if (const auto* start = std::get_if<trace::SessionStart>(&event)) {
      ++stats_.direct_connections;
      if (start->ultrapeer) {
        ++stats_.ultrapeer_connections;
      } else {
        ++stats_.leaf_connections;
      }
      on_session_start(*start);
    } else if (const auto* msg = std::get_if<trace::MessageEvent>(&event)) {
      switch (msg->type) {
        case gnutella::MessageType::kQuery:
          ++stats_.query_messages;
          if (msg->hops == 1) ++stats_.hop1_queries;
          on_query(*msg, seg.canonical[pos]);
          break;
        case gnutella::MessageType::kQueryHit:
          ++stats_.queryhit_messages;
          if (msg->hops >= 2) {
            geography_.add_sample({msg->time, geodb_.lookup(msg->source_ip)});
          }
          break;
        case gnutella::MessageType::kPing:
          ++stats_.ping_messages;
          break;
        case gnutella::MessageType::kPong:
          ++stats_.pong_messages;
          if (msg->hops >= 2) {
            geography_.add_sample({msg->time, geodb_.lookup(msg->source_ip)});
            shared_.add_allpeer(msg->shared_files);
          } else {
            shared_.add_onehop(msg->shared_files);
          }
          break;
        case gnutella::MessageType::kBye:
          ++stats_.bye_messages;
          break;
        case gnutella::MessageType::kRouteTableUpdate:
          ++stats_.route_update_messages;
          break;
      }
    } else {
      on_session_end(std::get<trace::SessionEnd>(event));
    }
  }

  // ---- online session reconstruction -----------------------------------

  void on_session_start(const trace::SessionStart& start) {
    const std::uint64_t seq = next_seq_++;
    TrackedSession& tracked = sessions_[seq];
    tracked.session.id = start.session_id;
    tracked.session.start = start.time;
    tracked.session.ip = start.ip;
    tracked.session.region = geodb_.lookup(start.ip);
    tracked.session.ultrapeer = start.ultrapeer;
    tracked.session.user_agent = start.user_agent;
    // Overwrites any older mapping, exactly like build_dataset's index:
    // on a (never simulator-produced) id reuse, later events attach to
    // the newest session and the older one ends up truncated.
    id_index_[start.session_id] = seq;
    ++open_count_;
    stats_out_.max_open_sessions =
        std::max(stats_out_.max_open_sessions, open_count_);
    stats_out_.max_tracked_sessions = std::max(
        stats_out_.max_tracked_sessions,
        static_cast<std::uint64_t>(sessions_.size()));
    if (sessions_.size() > options_.max_tracked_sessions) {
      throw std::runtime_error(
          "streaming: tracked-session table exceeded max_tracked_sessions (" +
          std::to_string(options_.max_tracked_sessions) +
          "); the spool holds more concurrently open sessions than the "
          "configured bound");
    }
  }

  void on_query(const trace::MessageEvent& msg, std::string& canonical) {
    if (msg.hops != 1) return;
    const auto it = id_index_.find(msg.session_id);
    if (it == id_index_.end()) {
      // The materialized path drops exactly these too: no SessionStart.
      ++stats_out_.unmatched_query_events;
      return;
    }
    ObservedQuery query;
    query.time = msg.time;
    query.canonical = std::move(canonical);
    query.sha1 = msg.sha1;
    query.guid_hash = msg.guid_hash;
    sessions_.at(it->second).session.queries.push_back(std::move(query));
  }

  void on_session_end(const trace::SessionEnd& end) {
    ++end_reason_counts_[static_cast<std::size_t>(end.reason)];
    const auto it = id_index_.find(end.session_id);
    if (it == id_index_.end()) {
      ++stats_out_.unmatched_end_events;
      return;
    }
    TrackedSession& tracked = sessions_.at(it->second);
    tracked.session.end = end.time;
    tracked.session.has_end = true;
    tracked.session.end_reason = end.reason;
    if (tracked.open) {
      tracked.open = false;
      --open_count_;
    }
    drain_emittable();
  }

  /// Emits every ended session at the front of the sequence order.  A
  /// still-open earlier session blocks later ended ones (they stay
  /// tracked), which is what keeps emission in SessionStart order — the
  /// order every order-sensitive accumulator requires.
  void drain_emittable() {
    while (!sessions_.empty()) {
      auto it = sessions_.begin();
      if (it->first != next_emit_ || !it->second.session.has_end) return;
      emit(it->second.session);
      erase_tracked(it);
    }
  }

  void erase_tracked(std::map<std::uint64_t, TrackedSession>::iterator it) {
    const auto id_it = id_index_.find(it->second.session.id);
    // Only drop the id mapping if it still points at this session (an id
    // reuse may have repointed it at a newer one).
    if (id_it != id_index_.end() && id_it->second == it->first) {
      id_index_.erase(id_it);
    }
    sessions_.erase(it);
    ++next_emit_;
  }

  /// True when the session overlaps a salvage gap window of its shard
  /// (open-interval, exactly GapIndex::intersects).  During the pass this
  /// peeks at the assembler's in-progress report: a window discovered
  /// later starts at or after this session's end (spool records are in
  /// time order), which the open-interval test can never match — so the
  /// mid-run verdicts equal the materialized path's whole-report pass.
  bool gap_censored(const ObservedSession& session) const {
    if (!options_.salvage) return false;
    const auto shard =
        static_cast<std::size_t>(trace::shard_of_session(session.id));
    if (shard >= cursors_.size()) return false;
    const trace::SalvageReport& report = salvage_finished_
                                             ? shard_salvage_[shard]
                                             : cursors_[shard].assembler.report();
    for (const auto& range : report.ranges) {
      const double after = std::isnan(range.time_after)
                               ? std::numeric_limits<double>::infinity()
                               : range.time_after;
      if (session.end > range.time_before && session.start < after) {
        return true;
      }
    }
    return false;
  }

  /// Runs the per-session tail of the materialized pipeline: the five
  /// filter rules, then every measure accumulator, in SessionStart order.
  /// Sessions overlapping a salvage gap are censored instead: counted,
  /// then dropped before any filter or measure sees them — identical to
  /// censor_dataset() running ahead of apply_filters materialized.
  void emit(ObservedSession& session) {
    if (gap_censored(session)) {
      ++censored_sessions_;
      censored_queries_ += session.queries.size();
      return;
    }
    apply_filters_to_session(session, options_.filters, filter_report_);
    // `stats_.last_time` is only consulted for sessions without an end,
    // which are emitted exclusively by the EOF flush — when it holds the
    // final trace_end.
    geography_.add_session(session, stats_.last_time);
    load_.add_session(session);
    passive_.add_session(session);
    accumulate_session_measures(measures_, session);
    tables_.add_session(session);
  }

  // ---- EOF / result assembly -------------------------------------------

  StreamingResult finalize() {
    // Close the salvage accounting first: the EOF flush below emits
    // still-open sessions whose censor verdict needs the finished gap
    // windows (open ends patched to +inf).
    if (options_.salvage) {
      shard_salvage_.resize(cursors_.size());
      for (std::size_t k = 0; k < cursors_.size(); ++k) {
        shard_salvage_[k] = cursors_[k].assembler.finish();
      }
      salvage_finished_ = true;
    }
    // Sessions still open when the trace stopped: truncate at trace_end
    // and mark removed, exactly like build_dataset's final pass, then
    // flush everything still tracked in sequence order.
    while (!sessions_.empty()) {
      auto it = sessions_.begin();
      ObservedSession& session = it->second.session;
      if (!session.has_end) {
        session.end = stats_.last_time;
        session.removed = true;
      }
      emit(session);
      erase_tracked(it);
    }
    publish_filter_metrics(filter_report_);

    StreamingResult result;
    result.stats = stats_;
    result.trace_digest = digest_;
    result.events = events_;
    result.trace_end = stats_.last_time;
    result.end_reason_counts = end_reason_counts_;
    result.filters = filter_report_;
    result.geography = geography_.finalize();
    result.shared_files = shared_.finalize();
    result.load = load_.finalize();
    result.passive = passive_.finalize();
    result.measures = std::move(measures_);
    {
      obs::ObsSpan span("streaming.fits");
      result.fits = fit_appendix_tables(result.measures, FitSplits{});
      tables_.finalize(stats_.last_time);
      result.model = fit_workload_model_from_parts(
          result.geography, result.passive, result.measures, tables_,
          options_.fallback);
    }
    stats_out_.events = events_;
    result.streaming = stats_out_;

    // Observer sidecars (DESIGN.md §12/§13): the durable producer wrote
    // one "qtrace.bin" / "timeline.bin" per shard for each stream that
    // was on.  Reading them back and merging in the same (time, shard)
    // order reproduces the materialized path's merged streams, and so the
    // exact same published aggregates.
    obs::ObserverStreams observed =
        obs::read_sidecars(shard_dirs_, &result.timeline_tick_seconds);
    result.qtrace = std::move(observed.qtrace);
    result.timeline = std::move(observed.timeline);

    // Merge the per-shard gap reports in shard order (deterministic at
    // any thread count) and publish — publish_salvage_metrics is a no-op
    // on a clean run, keeping the metric surface identical to strict.
    if (options_.salvage) {
      for (std::size_t k = 0; k < shard_salvage_.size(); ++k) {
        result.salvage.merge_shard(std::move(shard_salvage_[k]),
                                   static_cast<unsigned>(k));
      }
      result.salvage.censored_sessions = censored_sessions_;
      result.salvage.censored_queries = censored_queries_;
      publish_salvage_metrics(result.salvage);
    }

    publish_metrics(result.streaming);
    util::publish_pool_stats("pool.streaming", pool_.stats());
    return result;
  }

  static void publish_metrics(const StreamingStats& s) {
    auto& registry = obs::Registry::global();
    if (!registry.enabled()) return;
    registry.counter("streaming.segments_read").add(s.segments_read);
    registry.counter("streaming.decode_waves").add(s.decode_waves);
    registry.counter("streaming.events").add(s.events);
    registry.counter("streaming.shards_torn").add(s.shards_torn);
    registry.counter("streaming.unmatched_query_events")
        .add(s.unmatched_query_events);
    registry.counter("streaming.unmatched_end_events")
        .add(s.unmatched_end_events);
    registry.gauge("streaming.max_open_sessions")
        .record_max(static_cast<std::int64_t>(s.max_open_sessions));
    registry.gauge("streaming.max_tracked_sessions")
        .record_max(static_cast<std::int64_t>(s.max_tracked_sessions));
  }

  // Inputs.
  const geo::GeoIpDatabase& geodb_;
  const StreamingOptions& options_;
  util::ThreadPool pool_;
  std::vector<std::string> shard_dirs_;  ///< for the observer sidecars
  std::vector<ShardCursor> cursors_;

  // Merge + digest state.
  std::uint64_t digest_ = trace::kFnvOffsetBasis;
  std::string encode_buf_;
  std::uint64_t events_ = 0;
  trace::TraceStats stats_;
  bool first_event_ = true;
  std::array<std::uint64_t, 4> end_reason_counts_{};

  // Session table: sequence number -> session, plus id -> sequence.
  std::map<std::uint64_t, TrackedSession> sessions_;
  std::unordered_map<std::uint64_t, std::uint64_t> id_index_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_emit_ = 0;
  std::uint64_t open_count_ = 0;

  // Accumulators (the materialized measures' own state, fed per session).
  FilterReport filter_report_;
  GeographyAccumulator geography_;
  SharedFilesAccumulator shared_;
  LoadAccumulator load_;
  PassiveAccumulator passive_;
  SessionMeasures measures_;
  DailyQueryTables tables_;
  StreamingStats stats_out_;

  // Salvage censoring state (all inert unless options_.salvage).
  std::vector<trace::SalvageReport> shard_salvage_;  ///< finished reports
  bool salvage_finished_ = false;
  std::uint64_t censored_sessions_ = 0;
  std::uint64_t censored_queries_ = 0;
};

}  // namespace

StreamingResult analyze_spools(const std::vector<std::string>& shard_dirs,
                               const geo::GeoIpDatabase& geodb,
                               const StreamingOptions& options) {
  StreamingPass pass(shard_dirs, geodb, options);
  return pass.run();
}

}  // namespace p2pgen::analysis
