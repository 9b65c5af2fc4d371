// Streaming determinism suite (DESIGN.md §11): the one-pass spool
// analysis must be bit-identical to the materialized pipeline — same
// trace digest, Table-1 stats, Table-2 filter rows, measure vectors and
// refit model — at every thread count, on clean, faulted and
// chaos-scenario spools; it must tolerate a torn spool tail exactly like
// read_spool, hard-fail on interior damage exactly like read_spool, and
// keep its tracked-session table bounded (throwing on the cap instead of
// silently degrading to O(trace) memory).
#include "analysis/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/filters.hpp"
#include "analysis/measures.hpp"
#include "analysis/model_fit.hpp"
#include "behavior/checkpoint.hpp"
#include "core/model_io.hpp"
#include "durable_oracle.hpp"
#include "geo/geoip.hpp"
#include "obs/span.hpp"
#include "scenario/curated.hpp"
#include "stats/rng.hpp"
#include "trace/spool.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen {
namespace {

namespace fs = std::filesystem;

behavior::TraceSimulationConfig tiny_fault_config() {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;  // ~29 simulated minutes per shard
  config.arrival_rate = 1.0;
  config.seed = 20040315;
  config.faults.loss_prob = 0.03;
  config.faults.corrupt_prob = 0.01;
  config.faults.duplicate_prob = 0.02;
  config.faults.crash_rate = 1.0 / 3600.0;
  config.faults.half_open_prob = 0.05;
  config.faults.half_open_after_mean = 300.0;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_streaming_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Everything the materialized pipeline derives — the oracle the
/// streaming pass is pinned against.
struct Materialized {
  trace::TraceStats stats;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  analysis::FilterReport filters;
  analysis::SessionMeasures measures;
  core::WorkloadModel model;
};

Materialized materialize(const trace::Trace& trace) {
  Materialized m;
  m.stats = trace.stats();
  m.digest = trace::binary_digest(trace);
  m.events = trace.size();
  analysis::TraceDataset dataset =
      analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  m.filters = analysis::apply_filters(dataset);
  m.measures = analysis::session_measures(dataset);
  m.model = analysis::fit_workload_model(dataset);
  return m;
}

std::string model_string(const core::WorkloadModel& model) {
  std::ostringstream os;
  core::save_model(model, os);
  return os.str();
}

void expect_stats_equal(const trace::TraceStats& a, const trace::TraceStats& b) {
  EXPECT_EQ(a.first_time, b.first_time);
  EXPECT_EQ(a.last_time, b.last_time);
  EXPECT_EQ(a.query_messages, b.query_messages);
  EXPECT_EQ(a.queryhit_messages, b.queryhit_messages);
  EXPECT_EQ(a.ping_messages, b.ping_messages);
  EXPECT_EQ(a.pong_messages, b.pong_messages);
  EXPECT_EQ(a.bye_messages, b.bye_messages);
  EXPECT_EQ(a.route_update_messages, b.route_update_messages);
  EXPECT_EQ(a.direct_connections, b.direct_connections);
  EXPECT_EQ(a.hop1_queries, b.hop1_queries);
  EXPECT_EQ(a.ultrapeer_connections, b.ultrapeer_connections);
  EXPECT_EQ(a.leaf_connections, b.leaf_connections);
}

void expect_filters_equal(const analysis::FilterReport& a,
                          const analysis::FilterReport& b) {
  EXPECT_EQ(a.initial_queries, b.initial_queries);
  EXPECT_EQ(a.initial_sessions, b.initial_sessions);
  EXPECT_EQ(a.rule1_removed, b.rule1_removed);
  EXPECT_EQ(a.rule2_removed, b.rule2_removed);
  EXPECT_EQ(a.rule3_removed_queries, b.rule3_removed_queries);
  EXPECT_EQ(a.rule3_removed_sessions, b.rule3_removed_sessions);
  EXPECT_EQ(a.final_queries, b.final_queries);
  EXPECT_EQ(a.final_sessions, b.final_sessions);
  EXPECT_EQ(a.rule4_excluded, b.rule4_excluded);
  EXPECT_EQ(a.rule5_excluded, b.rule5_excluded);
  EXPECT_EQ(a.interarrival_queries, b.interarrival_queries);
}

/// Bitwise equality of every conditioned sample vector — the inputs the
/// appendix fitters consume, so identical measures force identical fits.
void expect_measures_equal(const analysis::SessionMeasures& a,
                           const analysis::SessionMeasures& b) {
  EXPECT_TRUE(a.passive_duration_by_region == b.passive_duration_by_region);
  EXPECT_TRUE(a.passive_duration_by_key_period ==
              b.passive_duration_by_key_period);
  EXPECT_TRUE(a.passive_duration_by_day_period ==
              b.passive_duration_by_day_period);
  EXPECT_TRUE(a.queries_by_region == b.queries_by_region);
  EXPECT_TRUE(a.queries_by_key_period == b.queries_by_key_period);
  EXPECT_TRUE(a.first_query_by_region == b.first_query_by_region);
  EXPECT_TRUE(a.first_query_by_class == b.first_query_by_class);
  EXPECT_TRUE(a.first_query_by_key_period == b.first_query_by_key_period);
  EXPECT_TRUE(a.first_query_by_period_class == b.first_query_by_period_class);
  EXPECT_TRUE(a.interarrival_by_region == b.interarrival_by_region);
}

void expect_streaming_matches(const analysis::StreamingResult& got,
                              const Materialized& want) {
  EXPECT_EQ(got.trace_digest, want.digest);
  EXPECT_EQ(got.events, want.events);
  expect_stats_equal(got.stats, want.stats);
  expect_filters_equal(got.filters, want.filters);
  expect_measures_equal(got.measures, want.measures);
  EXPECT_EQ(model_string(got.model), model_string(want.model));
}

/// Pins the unmatched-event counters.  An undamaged spool the simulator
/// writes matches each hop-1 QUERY and SessionEnd to an open session of
/// its shard, so the late-event rule (streaming.hpp) never separates the
/// streaming pass from build_dataset on it.
void expect_unmatched(const analysis::StreamingResult& got,
                      std::uint64_t queries, std::uint64_t ends) {
  EXPECT_EQ(got.streaming.unmatched_query_events, queries);
  EXPECT_EQ(got.streaming.unmatched_end_events, ends);
}

void expect_all_events_matched(const analysis::StreamingResult& got) {
  expect_unmatched(got, 0, 0);
}

/// Builds a durable checkpoint and returns its spool dirs; the
/// materialized oracle later resumes the SAME checkpoint so both paths
/// consume identical bytes.
std::vector<std::string> build_checkpoint(
    const behavior::TraceSimulationConfig& config, unsigned shards,
    const std::string& dir) {
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  return behavior::simulate_to_spools(core::WorkloadModel::paper_default(),
                                      config, shards, 2, durability);
}

trace::Trace resume_materialized(const behavior::TraceSimulationConfig& config,
                                 unsigned shards, const std::string& dir) {
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  durability.resume = true;
  return oracle::run_durable(core::WorkloadModel::paper_default(), config,
                             shards, 2, durability)
      .trace;
}

TEST(Streaming, MatchesMaterializedOnFaultedMultiShardSpoolAtAnyThreadCount) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("faulted");
  const auto spool_dirs = build_checkpoint(config, 3, dir);
  const Materialized want = materialize(resume_materialized(config, 3, dir));
  ASSERT_GT(want.events, 0u);

  analysis::StreamingStats first_stats;
  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_streaming_matches(got, want);
    expect_all_events_matched(got);
    // Pass-shape counters that do not depend on the thread count must
    // not either (wave count legitimately does).
    if (threads == 1) {
      first_stats = got.streaming;
    } else {
      EXPECT_EQ(got.streaming.segments_read, first_stats.segments_read);
      EXPECT_EQ(got.streaming.events, first_stats.events);
      EXPECT_EQ(got.streaming.max_open_sessions,
                first_stats.max_open_sessions);
      EXPECT_EQ(got.streaming.max_tracked_sessions,
                first_stats.max_tracked_sessions);
      EXPECT_EQ(got.streaming.unmatched_query_events,
                first_stats.unmatched_query_events);
      EXPECT_EQ(got.streaming.unmatched_end_events,
                first_stats.unmatched_end_events);
    }
  }
  fs::remove_all(dir);
}

TEST(Streaming, MatchesMaterializedOnChaosScenarioSpools) {
  for (const std::string name : {"flash-crowd", "regional-outage-na"}) {
    auto config = tiny_fault_config();
    const auto spec = scenario::find_curated(name, config.duration_days);
    ASSERT_TRUE(spec.has_value()) << name;
    config = spec->apply(config);

    const std::string dir = fresh_dir("scenario_" + name);
    const auto spool_dirs = build_checkpoint(config, 2, dir);
    const Materialized want = materialize(resume_materialized(config, 2, dir));
    ASSERT_GT(want.events, 0u) << name;

    analysis::StreamingOptions options;
    options.threads = 2;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(name);
    expect_streaming_matches(got, want);
    expect_all_events_matched(got);
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Raw-spool damage handling, pinned against read_spool on synthetic
// spools (single shard, so no session-id namespacing is involved).

trace::Trace synthetic_trace(std::size_t sessions, std::uint64_t seed) {
  stats::Rng rng(seed);
  trace::Trace out;
  double now = 0.0;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::uint64_t id = s + 1;
    trace::SessionStart start;
    start.time = now;
    start.session_id = id;
    start.ip = static_cast<std::uint32_t>(rng.next_u64());
    start.ultrapeer = rng.bernoulli(0.3);
    start.user_agent = rng.bernoulli(0.5) ? "mutella-0.4.5" : "LimeWire/4.2";
    out.append(trace::TraceEvent(start));
    const int messages = 1 + static_cast<int>(rng.next_u64() % 5);
    for (int m = 0; m < messages; ++m) {
      now += 90.0;
      trace::MessageEvent msg;
      msg.time = now;
      msg.session_id = id;
      msg.type = gnutella::MessageType::kQuery;
      msg.ttl = 3;
      msg.hops = 1;
      msg.query = "metallica track " + std::to_string(rng.next_u64() % 7);
      msg.sha1 = rng.bernoulli(0.1);
      msg.guid_hash = rng.next_u64();
      out.append(trace::TraceEvent(msg));
    }
    now += 120.0;
    trace::SessionEnd end;
    end.time = now;
    end.session_id = id;
    end.reason = static_cast<trace::EndReason>(rng.next_u64() % 4);
    out.append(trace::TraceEvent(end));
  }
  return out;
}

void spool_trace(const trace::Trace& trace, const std::string& dir,
                 std::uint64_t segment_max_records) {
  trace::SpoolConfig config;
  config.segment_max_records = segment_max_records;
  trace::SpoolWriter writer(dir, config);
  for (const auto& event : trace.events()) writer.append(event);
  writer.close();
}

std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) {
      names.push_back(entry.path().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void truncate_file(const std::string& path, std::uintmax_t drop_bytes) {
  const auto size = fs::file_size(path);
  ASSERT_GT(size, drop_bytes);
  fs::resize_file(path, size - drop_bytes);
}

TEST(Streaming, TornTailIsTruncatedExactlyLikeReadSpool) {
  const std::string dir = fresh_dir("torn");
  spool_trace(synthetic_trace(64, 7), dir, 16);
  const auto segments = segment_paths(dir);
  ASSERT_GT(segments.size(), 2u);
  truncate_file(segments.back(), 5);  // tear the final frame mid-payload

  trace::SpoolRecoveryReport report;
  const trace::Trace loaded = trace::read_spool(dir, &report);
  EXPECT_TRUE(report.torn);
  const Materialized want = materialize(loaded);

  const auto got = analysis::analyze_spools({dir},
                                            geo::GeoIpDatabase::synthetic());
  expect_streaming_matches(got, want);
  expect_all_events_matched(got);
  EXPECT_EQ(got.streaming.shards_torn, 1u);
  fs::remove_all(dir);
}

TEST(Streaming, EachMergeStretchBetweenDecodeWavesIsOneSpan) {
  const std::string dir = fresh_dir("merge_spans");
  spool_trace(synthetic_trace(64, 7), dir, 16);
  obs::TraceLog& log = obs::TraceLog::global();
  log.clear();
  log.set_enabled(true);
  const auto got =
      analysis::analyze_spools({dir}, geo::GeoIpDatabase::synthetic());
  log.set_enabled(false);
  std::uint64_t merges = 0;
  std::uint64_t waves = 0;
  for (const auto& span : log.spans()) {
    merges += span.name == "streaming.merge" ? 1 : 0;
    waves += span.name == "streaming.decode_wave" ? 1 : 0;
  }
  log.clear();
  EXPECT_EQ(waves, got.streaming.decode_waves);
  ASSERT_GT(waves, 2u);
  EXPECT_GE(merges, 1u);
  EXPECT_LE(merges, waves + 1);
  fs::remove_all(dir);
}

TEST(Streaming, InteriorSegmentDamageIsAHardErrorLikeReadSpool) {
  const std::string dir = fresh_dir("interior");
  spool_trace(synthetic_trace(64, 11), dir, 16);
  const auto segments = segment_paths(dir);
  ASSERT_GT(segments.size(), 2u);
  truncate_file(segments[segments.size() / 2], 5);

  EXPECT_THROW(trace::read_spool(dir), trace::TraceIoError);
  EXPECT_THROW(
      analysis::analyze_spools({dir}, geo::GeoIpDatabase::synthetic()),
      trace::TraceIoError);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Bounded memory: the tracked-session table.

TEST(Streaming, TrackedSessionTableStaysBoundedUnderChurnStorm) {
  auto config = tiny_fault_config();
  const auto spec = scenario::find_curated("churn-storm", config.duration_days);
  ASSERT_TRUE(spec.has_value());
  config = spec->apply(config);

  const std::string dir = fresh_dir("churn");
  const auto spool_dirs = build_checkpoint(config, 2, dir);
  const auto got =
      analysis::analyze_spools(spool_dirs, geo::GeoIpDatabase::synthetic());
  // Sessions leave the table once they and every earlier session have
  // ended, so its high-water mark stays below the session count (under
  // churn only just: one long-lived early session holds most of the
  // later ones), and open sessions are a subset of it.
  ASSERT_GT(got.stats.direct_connections, 0u);
  EXPECT_GT(got.streaming.max_tracked_sessions, 0u);
  EXPECT_LT(got.streaming.max_tracked_sessions, got.stats.direct_connections);
  EXPECT_LE(got.streaming.max_open_sessions,
            got.streaming.max_tracked_sessions);
  expect_all_events_matched(got);
  fs::remove_all(dir);
}

TEST(Streaming, ExceedingTheTrackedSessionCapThrows) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("cap");
  const auto spool_dirs = build_checkpoint(config, 1, dir);

  analysis::StreamingOptions options;
  options.max_tracked_sessions = 2;  // absurdly small on purpose
  EXPECT_THROW(analysis::analyze_spools(spool_dirs,
                                        geo::GeoIpDatabase::synthetic(),
                                        options),
               std::runtime_error);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The late-event rule (streaming.hpp): a session's id is retired at its
// first SessionEnd, per shard, whatever the emission timing.

trace::TraceEvent start_event(double time, std::uint64_t id) {
  trace::SessionStart start;
  start.time = time;
  start.session_id = id;
  start.ip = 0x0a000001;
  start.user_agent = "LimeWire/4.2";
  return start;
}

trace::TraceEvent hop1_query(double time, std::uint64_t id,
                             const std::string& text) {
  trace::MessageEvent msg;
  msg.time = time;
  msg.session_id = id;
  msg.type = gnutella::MessageType::kQuery;
  msg.ttl = 3;
  msg.hops = 1;
  msg.query = text;
  return msg;
}

trace::TraceEvent end_event(double time, std::uint64_t id) {
  trace::SessionEnd end;
  end.time = time;
  end.session_id = id;
  end.reason = trace::EndReason::kBye;
  return end;
}

TEST(Streaming, EventsAfterTheirSessionEndAreUnmatchedAtAnyThreadCount) {
  // Shard 0: session 1 ends at t=5, then a late QUERY, a duplicate
  // SessionEnd and a QUERY for an id that never started; session 2 is
  // still open at EOF.  Shard 1: session 1 is open from t=0.5 to t=20, so
  // shard 0's session 1 is still tracked (not emitted) while its late
  // events arrive; then a duplicate SessionEnd and an unknown-id QUERY.
  const std::string dir = fresh_dir("late_events");
  const std::vector<std::string> dirs = {dir + "/shard-0", dir + "/shard-1"};
  const std::vector<std::vector<trace::TraceEvent>> shards = {
      {start_event(1.0, 1), hop1_query(2.0, 1, "metallica one"),
       end_event(5.0, 1), hop1_query(6.0, 1, "late query"),
       end_event(7.0, 1), hop1_query(8.0, 99, "unknown session"),
       start_event(9.0, 2), hop1_query(10.0, 2, "still open")},
      {start_event(0.5, 1), hop1_query(3.0, 1, "madonna"),
       hop1_query(6.0, 1, "madonna holiday"), end_event(20.0, 1),
       end_event(21.0, 1), hop1_query(22.0, 5, "unknown session")}};
  trace::SpoolConfig config;
  config.segment_max_records = 2;  // many segments, and an empty last one
  std::vector<trace::Trace> traces(shards.size());
  for (std::size_t k = 0; k < shards.size(); ++k) {
    trace::SpoolWriter writer(dirs[k], config);
    for (const auto& event : shards[k]) {
      writer.append(event);
      traces[k].append(trace::TraceEvent(event));
    }
    writer.close();
  }
  const trace::Trace merged = trace::merge_traces(std::move(traces));
  // build_dataset attaches the late QUERY to the ended session.  (Shard
  // 0's session 2 has no end: truncated, it is never counted.)
  const Materialized materialized = materialize(merged);
  EXPECT_EQ(materialized.filters.initial_queries, 4u);

  analysis::StreamingResult first;
  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    const auto got =
        analysis::analyze_spools(dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_unmatched(got, 3, 2);
    EXPECT_EQ(got.trace_digest, materialized.digest);
    expect_stats_equal(got.stats, materialized.stats);
    EXPECT_EQ(got.stats.direct_connections, 3u);
    EXPECT_EQ(got.stats.hop1_queries, 7u);
    EXPECT_EQ(got.end_reason_counts[static_cast<std::size_t>(
                  trace::EndReason::kBye)],
              4u);
    EXPECT_EQ(got.filters.initial_sessions, 2u);
    EXPECT_EQ(got.filters.initial_queries, 3u);
    EXPECT_EQ(got.streaming.max_open_sessions, 2u);
    EXPECT_EQ(got.streaming.max_tracked_sessions, 3u);
    if (threads == 1) {
      first = got;
    } else {
      expect_filters_equal(got.filters, first.filters);
      expect_measures_equal(got.measures, first.measures);
      EXPECT_EQ(model_string(got.model), model_string(first.model));
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Salvage mode (DESIGN.md §14): gap-aware one-pass analysis.

/// XORs one byte of `path` in place.
void flip_file_byte(const std::string& path, std::uint64_t offset,
                    unsigned char mask) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ mask));
  ASSERT_TRUE(file.good()) << path;
}

/// Byte offset of frame `n` of a spool segment, walked from the length
/// headers (frame size through `frame_size`).
std::uint64_t nth_frame_offset(const std::string& segment_path, std::size_t n,
                               std::uint64_t* frame_size) {
  std::ifstream in(segment_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t pos = trace::kSpoolHeaderBytes;
  for (std::size_t i = 0;; ++i) {
    EXPECT_LE(pos + 8, bytes.size());
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    if (i == n) {
      if (frame_size != nullptr) *frame_size = 8 + len;
      return pos;
    }
    pos += 8 + len;
  }
}

void expect_salvage_reports_equal(const trace::SalvageReport& got,
                                  const trace::SalvageReport& want) {
  EXPECT_EQ(got.records_recovered, want.records_recovered);
  EXPECT_EQ(got.frames_lost, want.frames_lost);
  EXPECT_EQ(got.bytes_quarantined, want.bytes_quarantined);
  EXPECT_EQ(got.censored_sessions, want.censored_sessions);
  EXPECT_EQ(got.censored_queries, want.censored_queries);
  ASSERT_EQ(got.ranges.size(), want.ranges.size());
  for (std::size_t i = 0; i < got.ranges.size(); ++i) {
    const trace::SalvageRange& a = got.ranges[i];
    const trace::SalvageRange& b = want.ranges[i];
    EXPECT_EQ(a.file, b.file) << "range " << i;
    EXPECT_EQ(a.shard, b.shard) << "range " << i;
    EXPECT_EQ(a.byte_begin, b.byte_begin) << "range " << i;
    EXPECT_EQ(a.byte_end, b.byte_end) << "range " << i;
    EXPECT_EQ(a.frames_lost, b.frames_lost) << "range " << i;
    EXPECT_EQ(a.time_before, b.time_before) << "range " << i;
    EXPECT_EQ(a.time_after, b.time_after) << "range " << i;
  }
}

TEST(StreamingSalvage, CleanSpoolSalvagePassIsBitIdenticalToStrict) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_clean");
  const auto spool_dirs = build_checkpoint(config, 2, dir);

  analysis::StreamingOptions strict;
  const auto want = analysis::analyze_spools(
      spool_dirs, geo::GeoIpDatabase::synthetic(), strict);
  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    options.salvage = true;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(got.trace_digest, want.trace_digest);
    EXPECT_EQ(got.events, want.events);
    expect_stats_equal(got.stats, want.stats);
    expect_filters_equal(got.filters, want.filters);
    expect_measures_equal(got.measures, want.measures);
    EXPECT_EQ(model_string(got.model), model_string(want.model));
    EXPECT_FALSE(got.salvage.damaged());
    EXPECT_EQ(got.salvage.censored_sessions, 0u);
    expect_all_events_matched(got);
  }
  fs::remove_all(dir);
}

TEST(StreamingSalvage, MatchesMaterializedGapCensoredAnalysisOnDamage) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_damage");
  // Small segments so the damage below lands in an INTERIOR segment —
  // mid-damage to a single-segment spool is a (tolerated) torn tail.
  behavior::DurabilityConfig build;
  build.dir = dir;
  build.segment_max_records = 512;
  const auto spool_dirs = behavior::simulate_to_spools(
      core::WorkloadModel::paper_default(), config, 2, 2, build);

  // One corrupted payload byte in an interior frame of shard 1's spool.
  ASSERT_GT(segment_paths(spool_dirs[1]).size(), 2u);
  const std::string segment = segment_paths(spool_dirs[1]).front();
  flip_file_byte(segment, nth_frame_offset(segment, 10, nullptr) + 12, 0x20);

  // Strict refuses on both paths.
  EXPECT_THROW(
      analysis::analyze_spools(spool_dirs, geo::GeoIpDatabase::synthetic()),
      std::runtime_error);

  // Materialized gap-censored oracle: salvage resume of the SAME
  // checkpoint, dataset censored against the recovered gap windows.
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  durability.segment_max_records = 512;
  durability.resume = true;
  durability.salvage = true;
  const oracle::DurableRun run = oracle::run_durable(
      core::WorkloadModel::paper_default(), config, 2, 2, durability);
  const trace::Trace& salvaged = run.trace;
  ASSERT_TRUE(run.salvage.damaged());
  analysis::TraceDataset dataset =
      analysis::build_dataset(salvaged, geo::GeoIpDatabase::synthetic());
  trace::SalvageReport want_salvage = run.salvage;
  oracle::censor_dataset(dataset, want_salvage);
  EXPECT_GT(want_salvage.censored_sessions, 0u);
  Materialized want;
  want.stats = salvaged.stats();
  want.digest = trace::binary_digest(salvaged);
  want.events = salvaged.size();
  want.filters = analysis::apply_filters(dataset);
  want.measures = analysis::session_measures(dataset);
  want.model = analysis::fit_workload_model(dataset);

  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    options.salvage = true;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_streaming_matches(got, want);
    // The quarantined frame held a SessionStart: its SessionEnd matches
    // no session, in build_dataset too.
    expect_unmatched(got, 0, 1);
    expect_salvage_reports_equal(got.salvage, want_salvage);
  }
  fs::remove_all(dir);
}

/// Concurrent long-lived sessions: 8 sessions all open for the whole
/// trace, querying round-robin — so a mid-trace gap intersects every one
/// of them while their start/end records survive.
trace::Trace overlapping_trace() {
  trace::Trace out;
  double now = 0.0;
  stats::Rng rng(31);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    trace::SessionStart start;
    start.time = (now += 1.0);
    start.session_id = id;
    start.ip = static_cast<std::uint32_t>(rng.next_u64());
    start.ultrapeer = false;
    start.user_agent = "LimeWire/4.2";
    out.append(trace::TraceEvent(start));
  }
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t id = 1; id <= 8; ++id) {
      trace::MessageEvent msg;
      msg.time = (now += 1.0);
      msg.session_id = id;
      msg.type = gnutella::MessageType::kQuery;
      msg.ttl = 3;
      msg.hops = 1;
      msg.query = "metallica track " + std::to_string(rng.next_u64() % 7);
      msg.guid_hash = rng.next_u64();
      out.append(trace::TraceEvent(msg));
    }
  }
  for (std::uint64_t id = 1; id <= 8; ++id) {
    trace::SessionEnd end;
    end.time = (now += 1.0);
    end.session_id = id;
    end.reason = trace::EndReason::kBye;
    out.append(trace::TraceEvent(end));
  }
  return out;
}

TEST(StreamingSalvage, MissingSegmentIsCensoredNotSilentlySkipped) {
  const std::string dir = fresh_dir("salvage_missing");
  const trace::Trace original = overlapping_trace();
  spool_trace(original, dir, 16);
  const auto segments = segment_paths(dir);
  ASSERT_GT(segments.size(), 6u);
  fs::remove(segments[5]);  // 16 mid-trace query records vanish

  EXPECT_THROW(
      analysis::analyze_spools({dir}, geo::GeoIpDatabase::synthetic()),
      trace::TraceIoError);

  analysis::StreamingOptions options;
  options.salvage = true;
  const auto got =
      analysis::analyze_spools({dir}, geo::GeoIpDatabase::synthetic(), options);
  EXPECT_EQ(got.events, original.size() - 16);
  ASSERT_EQ(got.salvage.ranges.size(), 1u);
  EXPECT_EQ(got.salvage.ranges[0].file, trace::spool_segment_name(5));
  // Every session was open across the gap: all are censored (counted,
  // never silently mixed into the filter/measure surface).
  EXPECT_EQ(got.salvage.censored_sessions, 8u);
  EXPECT_GT(got.salvage.censored_queries, 0u);
  EXPECT_EQ(got.filters.initial_sessions, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace p2pgen
