#include "analysis/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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

/// Publishes `salvage.*` counters to the global registry.  Only when the
/// report shows damage: a clean salvage run exposes the exact same metric
/// surface as a strict run (part of the bit-identical contract).
void publish_salvage_metrics(const trace::SalvageReport& report) {
  if (!report.damaged()) return;
  auto& registry = obs::Registry::global();
  if (!registry.enabled()) return;
  registry.counter("salvage.ranges").add(report.ranges.size());
  registry.counter("salvage.frames_lost").add(report.frames_lost);
  registry.counter("salvage.bytes_quarantined").add(report.bytes_quarantined);
  registry.counter("salvage.records_recovered").add(report.records_recovered);
  registry.counter("salvage.censored_sessions").add(report.censored_sessions);
  registry.counter("salvage.censored_queries").add(report.censored_queries);
}

/// What the sequential merge does with a record besides folding its
/// bytes into the digest.  kQuery and kEnd only live between the two
/// halves of the per-shard stage; the shard half rewrites each of them to
/// kOther or kFirstEnd.
enum class MergeTag : std::uint8_t {
  kOther,     ///< time and digest only
  kStart,     ///< SessionStart: its session takes the next sequence number
  kFirstEnd,  ///< the SessionEnd that retired its session
  kQuery,     ///< hop-1 QUERY, not yet matched to a session
  kEnd,       ///< SessionEnd, not yet matched to a session
};

/// Order-insensitive totals of a stretch of records.  Every field is an
/// exact count (integers, or +1.0 sums far below 2^53), so totals added
/// up per segment, per shard and then in shard order equal the values a
/// one-event-at-a-time pass over the merged trace produces.
struct RecordTotals {
  trace::TraceStats counts;  ///< message/connection counters; times unused
  std::array<std::uint64_t, 4> end_reasons{};
  GeographyAccumulator samples;  ///< address samples only
  SharedFilesAccumulator shared_files;
  std::uint64_t unmatched_queries = 0;
  std::uint64_t unmatched_ends = 0;

  void add(const RecordTotals& other) {
    trace::TraceStats& c = counts;
    const trace::TraceStats& o = other.counts;
    c.query_messages += o.query_messages;
    c.queryhit_messages += o.queryhit_messages;
    c.ping_messages += o.ping_messages;
    c.pong_messages += o.pong_messages;
    c.bye_messages += o.bye_messages;
    c.route_update_messages += o.route_update_messages;
    c.direct_connections += o.direct_connections;
    c.hop1_queries += o.hop1_queries;
    c.ultrapeer_connections += o.ultrapeer_connections;
    c.leaf_connections += o.leaf_connections;
    for (std::size_t r = 0; r < end_reasons.size(); ++r) {
      end_reasons[r] += other.end_reasons[r];
    }
    samples.add_samples_of(other.samples);
    shared_files.add(other.shared_files);
    unmatched_queries += other.unmatched_queries;
    unmatched_ends += other.unmatched_ends;
  }
};

/// One reconstructed session of a shard.
struct ShardSession {
  ObservedSession session;
  bool ended = false;  ///< its retiring SessionEnd has been merged
};

/// One spool segment after the per-shard stage: every record re-encoded
/// with its namespaced session id (append_event_binary is the exact
/// encoding the spool held), with its time and merge tag, so the merge
/// never touches a decoded TraceEvent.
struct EncodedRun {
  trace::SegmentReadResult read;
  std::string bytes;               ///< the records, back to back
  std::vector<std::size_t> ends;   ///< end offset of each record in bytes
  std::vector<double> times;
  std::vector<MergeTag> tags;
  RecordTotals totals;
  /// kFirstEnd records' sessions, in record order (set by the shard half).
  std::vector<ShardSession*> ended;

  // Session pieces the segment half prepares for the shard half, one per
  // kStart / kQuery / kEnd record in record order; emptied by the shard half.
  std::vector<ObservedSession> starts;
  std::vector<std::pair<std::uint64_t, ObservedQuery>> queries;
  std::vector<trace::SessionEnd> session_ends;

  std::size_t size() const noexcept { return times.size(); }

  /// Encodes one decoded record (session id already namespaced), counts
  /// it and prepares its session piece.
  void add(trace::TraceEvent& event, const geo::GeoIpDatabase& geodb) {
    trace::append_event_binary(event, bytes);
    ends.push_back(bytes.size());
    trace::TraceStats& c = totals.counts;
    MergeTag tag = MergeTag::kOther;
    double time = 0.0;
    if (auto* start = std::get_if<trace::SessionStart>(&event)) {
      time = start->time;
      ++c.direct_connections;
      if (start->ultrapeer) {
        ++c.ultrapeer_connections;
      } else {
        ++c.leaf_connections;
      }
      ObservedSession& session = starts.emplace_back();
      session.id = start->session_id;
      session.start = start->time;
      session.ip = start->ip;
      session.region = geodb.lookup(start->ip);
      session.ultrapeer = start->ultrapeer;
      session.user_agent = std::move(start->user_agent);
      tag = MergeTag::kStart;
    } else if (const auto* msg = std::get_if<trace::MessageEvent>(&event)) {
      time = msg->time;
      switch (msg->type) {
        case gnutella::MessageType::kQuery:
          ++c.query_messages;
          if (msg->hops == 1) {
            ++c.hop1_queries;
            ObservedQuery query;
            query.time = msg->time;
            query.canonical = gnutella::canonical_keywords(msg->query);
            query.sha1 = msg->sha1;
            query.guid_hash = msg->guid_hash;
            queries.emplace_back(msg->session_id, std::move(query));
            tag = MergeTag::kQuery;
          }
          break;
        case gnutella::MessageType::kQueryHit:
          ++c.queryhit_messages;
          if (msg->hops >= 2) {
            totals.samples.add_sample({msg->time, geodb.lookup(msg->source_ip)});
          }
          break;
        case gnutella::MessageType::kPing:
          ++c.ping_messages;
          break;
        case gnutella::MessageType::kPong:
          ++c.pong_messages;
          if (msg->hops >= 2) {
            totals.samples.add_sample({msg->time, geodb.lookup(msg->source_ip)});
            totals.shared_files.add_allpeer(msg->shared_files);
          } else {
            totals.shared_files.add_onehop(msg->shared_files);
          }
          break;
        case gnutella::MessageType::kBye:
          ++c.bye_messages;
          break;
        case gnutella::MessageType::kRouteTableUpdate:
          ++c.route_update_messages;
          break;
      }
    } else {
      const auto& end = std::get<trace::SessionEnd>(event);
      time = end.time;
      ++totals.end_reasons[static_cast<std::size_t>(end.reason)];
      session_ends.push_back(end);
      tag = MergeTag::kEnd;
    }
    times.push_back(time);
    tags.push_back(tag);
  }
};

/// The segment half of the per-shard stage (any pool thread): reads and
/// CRC-checks segment `index`, decodes each record, namespaces its session
/// id exactly like merge_traces and hands it to EncodedRun::add.  The
/// decoded events never outlive the callback.
EncodedRun encode_segment(const trace::SpoolReader& reader, std::size_t index,
                          std::uint64_t id_base,
                          const geo::GeoIpDatabase& geodb) {
  obs::ObsSpan span("streaming.segment_decode");
  EncodedRun run;
  run.read = reader.read_segment(
      index, [&](const std::uint8_t* data, std::size_t size) {
        trace::TraceEvent event = trace::decode_event_binary(data, size);
        if (id_base != 0) {
          std::visit([&](auto& e) { e.session_id += id_base; }, event);
        }
        run.add(event, geodb);
      });
  return run;
}

/// Per-shard state.  The read side and the session table are touched by
/// one wave task at a time; the merge side only between waves.
struct ShardState {
  ShardState(const std::string& dir, trace::SpoolReadMode mode)
      : reader(dir, mode) {}

  trace::SpoolReader reader;
  std::uint64_t id_base = 0;     // shard * kShardSessionStride
  std::size_t next_segment = 0;  // next segment index to decode
  bool torn = false;             // spool ended in a torn tail
  /// Salvage mode: the shard's gap accounting, fed one segment at a time
  /// in index order as encoded runs are pushed onto `ready`.
  trace::SalvageAssembler assembler;

  /// Sessions not yet emitted, in SessionStart order.  A deque, so the
  /// pointers in `open` and EncodedRun::ended survive pushes and pops.
  std::deque<ShardSession> sessions;
  /// Session id -> session, from its SessionStart to its SessionEnd.
  std::unordered_map<std::uint64_t, ShardSession*> open;
  RecordTotals totals;  ///< this shard's records, summed at finalize()

  std::deque<EncodedRun> ready;  // encoded, not yet fully merged
  std::size_t event_pos = 0;     // next record of ready.front()
  std::size_t ended_pos = 0;     // next entry of ready.front().ended

  /// Drops fully merged runs; true when the shard has no record ready but
  /// segments left to encode.
  bool needs_refill() {
    while (!ready.empty() && event_pos >= ready.front().size()) {
      ready.pop_front();
      event_pos = 0;
      ended_pos = 0;
    }
    return ready.empty() && next_segment < reader.segment_count();
  }

  /// The shard half of the per-shard stage: matches one run's session
  /// pieces against the shard's table, in record order.  A session's id
  /// is retired at its SessionEnd, so a later QUERY or SessionEnd with
  /// that id is unmatched — a pure function of this shard's records.
  void match_sessions(EncodedRun& run) {
    std::size_t next_start = 0;
    std::size_t next_query = 0;
    std::size_t next_end = 0;
    for (MergeTag& tag : run.tags) {
      switch (tag) {
        case MergeTag::kStart: {
          ShardSession& session = sessions.emplace_back();
          session.session = std::move(run.starts[next_start++]);
          // Overwrites any older mapping, exactly like build_dataset's
          // index: on a (never simulator-produced) id reuse, later events
          // attach to the newest session and the older one stays open.
          open[session.session.id] = &session;
          break;
        }
        case MergeTag::kQuery: {
          auto& [id, query] = run.queries[next_query++];
          tag = MergeTag::kOther;
          const auto it = open.find(id);
          if (it == open.end()) {
            ++run.totals.unmatched_queries;
          } else {
            it->second->session.queries.push_back(std::move(query));
          }
          break;
        }
        case MergeTag::kEnd: {
          const trace::SessionEnd& end = run.session_ends[next_end++];
          const auto it = open.find(end.session_id);
          if (it == open.end()) {
            ++run.totals.unmatched_ends;
            tag = MergeTag::kOther;
            break;
          }
          ObservedSession& session = it->second->session;
          session.end = end.time;
          session.has_end = true;
          session.end_reason = end.reason;
          run.ended.push_back(it->second);
          open.erase(it);
          tag = MergeTag::kFirstEnd;
          break;
        }
        case MergeTag::kOther:
        case MergeTag::kFirstEnd:
          break;
      }
    }
    totals.add(run.totals);
    run.starts = {};
    run.queries = {};
    run.session_ends = {};
  }
};

/// How many encoded runs a shard may hold before the wave scheduler
/// stops prefetching for it.  Bounds streaming memory at
/// O(shards * depth * segment), independent of spool size.
constexpr std::size_t kPrefetchDepth = 2;

/// The whole streaming pass.  A class only to keep the state shared by
/// the wave scheduler, the merge and the emitter in one place.
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
    shards_.reserve(shard_dirs.size());
    for (std::size_t k = 0; k < shard_dirs.size(); ++k) {
      shards_.emplace_back(shard_dirs[k], mode);
      shards_.back().id_base = static_cast<std::uint64_t>(k) *
                               trace::kShardSessionStride;
    }
    std::string header;
    trace::append_header_binary(header);
    digest_ = trace::fnv1a_update(trace::kFnvOffsetBasis, header.data(),
                                  header.size());
  }

  StreamingResult run() {
    obs::ObsSpan span("streaming.analyze");
    do {
      while (refill_needed()) refill();
    } while (merge_stretch());
    return finalize();
  }

 private:
  // ---- decode waves: the per-shard stage --------------------------------

  /// Drops every shard's fully merged runs (empty segments included);
  /// true when some shard must be refilled before the merge can go on.
  bool refill_needed() {
    bool need = false;
    for (ShardState& shard : shards_) need = shard.needs_refill() || need;
    return need;
  }

  /// Runs the per-shard stage on the next wave of segments: one segment
  /// for every shard that is out of ready records (the merge cannot pick
  /// a head without one), plus round-robin prefetch up to the pool width.
  /// Segments are encoded in parallel, then each shard's table matches its
  /// runs in segment order (one task per shard).  Which segments are
  /// encoded when never affects results: each shard's table sees its
  /// records in spool order whatever the waves, and the merge fixes the
  /// (time, shard) order.
  void refill() {
    obs::ObsSpan span("streaming.decode_wave");
    std::vector<std::pair<std::size_t, std::size_t>> wave;  // (shard, segment)
    std::vector<std::size_t> pending(shards_.size(), 0);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardState& shard = shards_[s];
      if (shard.ready.empty() &&
          shard.next_segment < shard.reader.segment_count()) {
        wave.emplace_back(s, shard.next_segment++);
        ++pending[s];
      }
    }
    const std::size_t width =
        std::max<std::size_t>(wave.size(), pool_.size());
    bool added = true;
    while (wave.size() < width && added) {
      added = false;
      for (std::size_t s = 0; s < shards_.size() && wave.size() < width; ++s) {
        ShardState& shard = shards_[s];
        if (shard.ready.size() + pending[s] >= kPrefetchDepth) continue;
        if (shard.next_segment >= shard.reader.segment_count()) continue;
        wave.emplace_back(s, shard.next_segment++);
        ++pending[s];
        added = true;
      }
    }
    if (wave.empty()) return;

    std::vector<EncodedRun> runs(wave.size());
    pool_.run_indexed(wave.size(), [&](std::size_t i) {
      const ShardState& shard = shards_[wave[i].first];
      runs[i] = encode_segment(shard.reader, wave[i].second, shard.id_base,
                               geodb_);
    });
    std::vector<std::size_t> wave_shards;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (pending[s] > 0) wave_shards.push_back(s);
    }
    pool_.run_indexed(wave_shards.size(), [&](std::size_t k) {
      // The wave lists each shard's segments in index order.
      for (std::size_t i = 0; i < wave.size(); ++i) {
        if (wave[i].first == wave_shards[k]) {
          shards_[wave_shards[k]].match_sessions(runs[i]);
        }
      }
    });

    for (std::size_t i = 0; i < wave.size(); ++i) {
      ShardState& shard = shards_[wave[i].first];
      if (runs[i].read.torn && !shard.torn) {
        shard.torn = true;
        ++stats_out_.shards_torn;
      }
      if (options_.salvage) {
        // Feed the shard's gap accounting in segment-index order (the
        // wave list preserves per-shard order), missing files included —
        // the exact protocol read_spool_salvage follows, so both paths
        // report identical gaps for identical damage.
        for (const std::size_t hole :
             shard.reader.missing_before(wave[i].second)) {
          shard.assembler.add_missing_segment(trace::spool_segment_name(hole));
        }
        shard.assembler.add_segment(runs[i].read);
      }
      shard.ready.push_back(std::move(runs[i]));
    }
    stats_out_.segments_read += wave.size();
    ++stats_out_.decode_waves;
  }

  // ---- the sequential stage: merge, digest, emission --------------------

  /// Merges records in merge_traces' (time, shard) order until some shard
  /// runs out of ready records with segments left (the next wave refills
  /// it).  Returns false once every shard is drained.
  bool merge_stretch() {
    obs::ObsSpan span("streaming.merge");
    const std::size_t none = shards_.size();
    for (;;) {
      // The head and the runner-up by (time, shard index): scanning in
      // ascending index with a strict `<` breaks ties like merge_traces.
      std::size_t best = none;
      std::size_t next = none;
      double best_time = std::numeric_limits<double>::infinity();
      double next_time = best_time;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        const ShardState& shard = shards_[s];
        if (shard.ready.empty()) continue;
        const double t = shard.ready.front().times[shard.event_pos];
        if (t < best_time) {
          next = best;
          next_time = best_time;
          best = s;
          best_time = t;
        } else if (t < next_time) {
          next = s;
          next_time = t;
        }
      }
      if (best == none) return false;
      merge_run(best, next_time, next);
      if (shards_[best].needs_refill()) return true;
    }
  }

  /// Merges the head shard's records for as long as they precede the
  /// runner-up (`limit_time`, `limit_shard`), up to the end of its run,
  /// and folds their bytes into the digest in one call.
  void merge_run(std::size_t shard_index, double limit_time,
                 std::size_t limit_shard) {
    ShardState& shard = shards_[shard_index];
    const EncodedRun& run = shard.ready.front();
    const std::size_t first = shard.event_pos;
    std::size_t i = first;
    for (; i < run.size(); ++i) {
      const double t = run.times[i];
      // Negated rather than inverted: the scan above never picks a NaN
      // time, so a NaN stops the run here too.
      if (!(t < limit_time ||
            (t == limit_time && shard_index < limit_shard))) {
        break;
      }
      // Table-1 time range, exactly as Trace::stats() computes it.
      if (first_event_) {
        stats_.first_time = t;
        first_event_ = false;
      }
      stats_.first_time = std::min(stats_.first_time, t);
      stats_.last_time = std::max(stats_.last_time, t);
      switch (run.tags[i]) {
        case MergeTag::kStart:
          start_session(shard_index);
          break;
        case MergeTag::kFirstEnd:
          run.ended[shard.ended_pos++]->ended = true;
          --open_count_;
          drain_emittable();
          break;
        default:
          break;
      }
    }
    const std::size_t begin = first == 0 ? 0 : run.ends[first - 1];
    digest_ = trace::fnv1a_update(digest_, run.bytes.data() + begin,
                                  run.ends[i - 1] - begin);
    events_ += i - first;
    shard.event_pos = i;
  }

  /// A merged SessionStart: the shard's next session takes the next
  /// sequence number (its place in `tracked_`).
  void start_session(std::size_t shard_index) {
    tracked_.push_back(shard_index);
    ++open_count_;
    stats_out_.max_open_sessions =
        std::max(stats_out_.max_open_sessions, open_count_);
    stats_out_.max_tracked_sessions = std::max(
        stats_out_.max_tracked_sessions,
        static_cast<std::uint64_t>(tracked_.size()));
    if (tracked_.size() > options_.max_tracked_sessions) {
      throw std::runtime_error(
          "streaming: tracked-session table exceeded max_tracked_sessions (" +
          std::to_string(options_.max_tracked_sessions) +
          "); the spool holds more concurrently open sessions than the "
          "configured bound");
    }
  }

  /// The oldest tracked session: the front of its shard's table, because
  /// a shard's sessions take sequence numbers in its own start order.
  ShardSession& oldest_tracked() {
    return shards_[tracked_.front()].sessions.front();
  }

  void pop_oldest_tracked() {
    shards_[tracked_.front()].sessions.pop_front();
    tracked_.pop_front();
  }

  /// Emits every ended session at the front of the sequence order.  A
  /// still-open earlier session blocks later ended ones (they stay
  /// tracked), which is what keeps emission in SessionStart order — the
  /// order every order-sensitive accumulator requires.
  void drain_emittable() {
    while (!tracked_.empty() && oldest_tracked().ended) {
      emit(oldest_tracked().session);
      pop_oldest_tracked();
    }
  }

  /// True when the session overlaps a salvage gap window of its shard
  /// (open interval; a still-open window ends at +inf).  During the pass this
  /// peeks at the assembler's in-progress report: a window discovered
  /// later starts at or after this session's end (spool records are in
  /// time order), which the open-interval test can never match — so the
  /// mid-run verdicts equal the materialized path's whole-report pass.
  bool gap_censored(const ObservedSession& session) const {
    if (!options_.salvage) return false;
    const auto shard =
        static_cast<std::size_t>(trace::shard_of_session(session.id));
    if (shard >= shards_.size()) return false;
    const trace::SalvageReport& report = salvage_finished_
                                             ? shard_salvage_[shard]
                                             : shards_[shard].assembler.report();
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
  /// censoring the materialized dataset ahead of apply_filters.
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
      shard_salvage_.resize(shards_.size());
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        shard_salvage_[k] = shards_[k].assembler.finish();
      }
      salvage_finished_ = true;
    }
    // Sessions still open when the trace stopped: truncate at trace_end
    // and mark removed, exactly like build_dataset's final pass, then
    // flush everything still tracked in sequence order.
    while (!tracked_.empty()) {
      ObservedSession& session = oldest_tracked().session;
      if (!session.has_end) {
        session.end = stats_.last_time;
        session.removed = true;
      }
      emit(session);
      pop_oldest_tracked();
    }
    // The order-insensitive totals, added in shard order.
    RecordTotals totals;
    for (const ShardState& shard : shards_) totals.add(shard.totals);
    totals.counts.first_time = stats_.first_time;
    totals.counts.last_time = stats_.last_time;
    stats_ = totals.counts;
    geography_.add_samples_of(totals.samples);
    stats_out_.unmatched_query_events = totals.unmatched_queries;
    stats_out_.unmatched_end_events = totals.unmatched_ends;
    publish_filter_metrics(filter_report_);

    StreamingResult result;
    result.stats = stats_;
    result.trace_digest = digest_;
    result.events = events_;
    result.trace_end = stats_.last_time;
    result.end_reason_counts = totals.end_reasons;
    result.filters = filter_report_;
    result.geography = geography_.finalize();
    result.shared_files = totals.shared_files.finalize();
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
  std::vector<ShardState> shards_;

  // Merge + digest state.
  std::uint64_t digest_ = trace::kFnvOffsetBasis;
  std::uint64_t events_ = 0;
  trace::TraceStats stats_;
  bool first_event_ = true;

  /// Shard index of every tracked session (merged SessionStart, not yet
  /// emitted), in sequence order.
  std::deque<std::size_t> tracked_;
  std::uint64_t open_count_ = 0;

  // Accumulators (the materialized measures' own state, fed per session).
  FilterReport filter_report_;
  GeographyAccumulator geography_;
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
