// p2pgen — one-pass streaming analysis over spool segments (DESIGN.md §11).
//
// The materialized pipeline loads the whole trace (read_spool →
// merge_traces → build_dataset → filters → measures → fits), so its peak
// memory is O(trace).  analyze_spools() produces the SAME results —
// bit-identical Table-1 stats, trace digest, Table-2 filter rows,
// measures, appendix fits and refit model — in one pass over the
// per-shard spools with peak memory O(segments in flight + tracked
// sessions):
//
//   * a per-shard stage runs in waves on the deterministic thread pool:
//     segments are CRC-validated and decoded (trace/spool_reader
//     single-pass iterator: validation and decode share one read), each
//     record's session id is namespaced by kShardSessionStride, the
//     record is re-encoded for the digest, the order-insensitive totals
//     (Table-1 counters, end reasons, address samples, shared files) are
//     counted, and the shard's sessions are rebuilt in its own table —
//     sessions never cross shards;
//   * a thin sequential stage merges the encoded runs in the exact
//     (time, shard) order of trace::merge_traces, folds the record bytes
//     into the same FNV-1a stream binary_digest() computes, numbers
//     sessions by merged SessionStart and, once ended, emits them in that
//     order — at which point the five filter rules and every measure
//     accumulator run with the SAME code the materialized path uses
//     (filters.hpp / measures.hpp / popularity_analysis.hpp expose the
//     per-session forms), so every float lands in the same place in the
//     same order.
//
// The pool only runs work whose result is a function of one segment or
// of one shard's records in spool order; the totals are exact counts
// added in shard order, and everything order-sensitive happens in the
// sequential stage.  Results are therefore identical at any thread
// count, which the streaming determinism suite pins against the
// materialized oracle.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/measures.hpp"
#include "analysis/model_fit.hpp"
#include "analysis/popularity_analysis.hpp"
#include "core/model.hpp"
#include "geo/geoip.hpp"
#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen::analysis {

struct StreamingOptions {
  /// Threads for the per-shard stage's waves.  Never changes results.
  unsigned threads = 1;
  /// Filter rules applied at session emission.
  FilterOptions filters{};
  /// Model slots for conditions with insufficient data (fit_workload_model
  /// semantics).
  core::WorkloadModel fallback = core::WorkloadModel::paper_default();
  /// Hard cap on tracked sessions (open + ended-but-not-yet-emitted).
  /// Emission follows SessionStart order, so one early session that stays
  /// open holds every later one in the table: the table is bounded by the
  /// span of sessions started while the oldest open one lives, which can
  /// be most of the trace (StreamingStats::max_tracked_sessions reports
  /// it).  Exceeding the cap throws rather than growing without bound.
  std::size_t max_tracked_sessions = std::size_t{1} << 22;

  /// Salvage mode (DESIGN.md §14): read the spools with
  /// trace::SpoolReadMode::kSalvage — interior damage and missing segment
  /// files become accounted gap windows instead of a thrown TraceIoError,
  /// sessions overlapping a window of their shard (open interval) are
  /// censored out of the filters and fits, and the loss lands in
  /// StreamingResult::salvage.
  /// With a clean spool this path is bit-identical to the default.
  bool salvage = false;
};

/// Observability counters of one streaming pass (also published as
/// `streaming.*` metrics).  These describe the pass itself and are NOT
/// part of the materialized-equivalence surface.
struct StreamingStats {
  std::uint64_t segments_read = 0;
  std::uint64_t decode_waves = 0;
  std::uint64_t events = 0;
  std::uint64_t shards_torn = 0;  ///< shards whose spool had a torn tail
  /// High-water mark of sessions that were open (no SessionEnd yet).
  std::uint64_t max_open_sessions = 0;
  /// High-water mark of the whole tracked table: open sessions plus ended
  /// sessions waiting for an earlier still-open session to emit first.
  std::uint64_t max_tracked_sessions = 0;
  /// Hop-1 QUERY events whose session id matched no open session of
  /// their shard: no SessionStart seen yet (the materialized path drops
  /// these too), or the session already had its SessionEnd.  A session's
  /// id is retired at its first SessionEnd, so whether a late event
  /// matches is a function of its shard's records alone, never of when
  /// sessions are emitted or of the thread count.  build_dataset instead
  /// attaches a late QUERY to the ended session; simulated traces hold
  /// none, which the equivalence tests check through this counter.
  std::uint64_t unmatched_query_events = 0;
  /// SessionEnd events whose id matched no open session of their shard:
  /// never started, or a second SessionEnd after the one that retired
  /// the id (build_dataset lets that one overwrite the end time).
  std::uint64_t unmatched_end_events = 0;
};

/// Everything the measurement pipeline derives from a trace, computed in
/// one streaming pass.  Fields mirror the materialized path's outputs
/// bit-for-bit; `streaming` is extra.
struct StreamingResult {
  trace::TraceStats stats;         ///< == merged Trace::stats()
  std::uint64_t trace_digest = 0;  ///< == trace::binary_digest(merged)
  std::uint64_t events = 0;        ///< == merged trace.size()
  double trace_end = 0.0;
  /// SessionEnd reason counts, indexed by trace::EndReason — the rows
  /// RobustnessReport::add_trace() derives from the materialized trace.
  std::array<std::uint64_t, 4> end_reason_counts{};

  FilterReport filters;        ///< == apply_filters on the dataset
  GeographyByHour geography;   ///< == geographic_distribution
  SharedFilesDistribution shared_files;
  LoadByTime load;
  PassiveFraction passive;     ///< == passive_fraction
  SessionMeasures measures;    ///< == session_measures
  AppendixFits fits;           ///< == fit_appendix_tables(measures)
  core::WorkloadModel model;   ///< == fit_workload_model(dataset, fallback)

  StreamingStats streaming;

  /// Merged query-lifecycle hop events, read back from the per-shard
  /// "qtrace.bin" sidecars the durable runner writes (empty when no
  /// sidecar exists — tracing was off).  Merged in the same (time,
  /// shard) order as the in-memory path, so the published qtrace
  /// aggregates are identical to simulate_trace_sharded's.
  std::vector<obs::QueryHopEvent> qtrace;

  /// Loss accounting of a salvage-mode pass: the gap windows the spool
  /// reader quarantined (ranges tagged by shard, merged in shard order)
  /// plus the sessions/queries censored from the analysis because they
  /// overlapped one.  Empty when options.salvage was off or the spools
  /// were clean.  Matches the materialized reading (per-shard
  /// read_spool_salvage reports, sessions censored from the dataset) for
  /// identical damage.
  trace::SalvageReport salvage;

  /// Merged sim-time timeline ticks, read back from the per-shard
  /// "timeline.bin" sidecars under the same contract (empty when no
  /// sidecar exists — timelines were off).  Byte-identical to the
  /// materialized path's merged timeline at any thread count.
  std::vector<obs::TimelinePoint> timeline;
  /// Tick width of the loaded timeline sidecars (0 when none existed).
  double timeline_tick_seconds = 0.0;
};

/// Runs the one-pass analysis over per-shard spool directories (order
/// defines the shard index used for session-id namespacing — pass
/// behavior::checkpoint_shard_dirs() output).  Throws TraceIoError on
/// interior spool damage (torn tails of a last segment are tolerated,
/// exactly like read_spool) unless options.salvage is set — then damage
/// becomes accounted gaps in StreamingResult::salvage — and throws
/// std::runtime_error if the tracked-session cap is exceeded.
StreamingResult analyze_spools(const std::vector<std::string>& shard_dirs,
                               const geo::GeoIpDatabase& geodb,
                               const StreamingOptions& options = {});

}  // namespace p2pgen::analysis
