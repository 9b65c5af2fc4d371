// Tests for sim-time metric timelines (obs/timeline, DESIGN.md §13): the
// lazy tick recorder (gate, gauge levels, trailing-tick flush), the
// (time, shard) merge, the sidecar wire format, and the load-bearing
// contracts against the real pipeline — tick streams bit-identical at
// 1/2/8 threads, recording at any tick rate never perturbing the
// simulated trace or the config digest, the durable resume reloading
// identical sidecars, and the streaming replay reproducing the
// materialized path's merged timeline exactly.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "durable_oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecars.hpp"
#include "trace/spool.hpp"
#include "trace_bytes.hpp"

namespace p2pgen {
namespace {

using obs::TimelineSeries;

std::size_t idx(TimelineSeries s) { return static_cast<std::size_t>(s); }

TEST(TimelineRecorder, BucketsCountsAndFlushesTrailingEmptyTicks) {
  obs::TimelineConfig config;
  config.tick_seconds = 10.0;
  obs::TimelineRecorder recorder(config);

  recorder.count(1.0, TimelineSeries::kQueries);
  recorder.count(25.0, TimelineSeries::kQueries, 2);  // closes ticks 0, 1
  recorder.finish(50.0);  // flushes through tick start 40

  const auto points = recorder.points();
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t k = 0; k < points.size(); ++k) {
    EXPECT_DOUBLE_EQ(points[k].time, 10.0 * static_cast<double>(k));
  }
  EXPECT_EQ(points[0].values[idx(TimelineSeries::kQueries)], 1u);
  EXPECT_EQ(points[1].values[idx(TimelineSeries::kQueries)], 0u);
  EXPECT_EQ(points[2].values[idx(TimelineSeries::kQueries)], 2u);
  EXPECT_EQ(points[3].values[idx(TimelineSeries::kQueries)], 0u);
  EXPECT_EQ(points[4].values[idx(TimelineSeries::kQueries)], 0u);
}

TEST(TimelineRecorder, GateDropsCountsButLevelsSurviveWarmup) {
  obs::TimelineConfig config;
  config.tick_seconds = 10.0;
  config.gate_time = 100.0;
  obs::TimelineRecorder recorder(config);

  // Warm-up: the count is dropped, the level is real state the first
  // tick must see.
  recorder.count(50.0, TimelineSeries::kQueries);
  recorder.level(50.0, TimelineSeries::kActiveSessions, +3);

  recorder.count(105.0, TimelineSeries::kQueries);
  recorder.level(115.0, TimelineSeries::kActiveSessions, -1);
  recorder.finish(120.0);

  const auto points = recorder.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].time, 100.0);
  EXPECT_EQ(points[0].values[idx(TimelineSeries::kQueries)], 1u);
  EXPECT_EQ(points[0].values[idx(TimelineSeries::kActiveSessions)], 3u);
  EXPECT_DOUBLE_EQ(points[1].time, 110.0);
  EXPECT_EQ(points[1].values[idx(TimelineSeries::kQueries)], 0u);
  EXPECT_EQ(points[1].values[idx(TimelineSeries::kActiveSessions)], 2u);
}

TEST(TimelineRecorder, GaugeLevelsClampAtZero) {
  obs::TimelineConfig config;
  config.tick_seconds = 10.0;
  obs::TimelineRecorder recorder(config);
  recorder.level(1.0, TimelineSeries::kActiveSessions, -5);
  recorder.finish(10.0);
  ASSERT_EQ(recorder.points().size(), 1u);
  EXPECT_EQ(recorder.points()[0].values[idx(TimelineSeries::kActiveSessions)],
            0u);
}

TEST(TimelineMerge, OrdersByTimeThenShardAndStampsShard) {
  auto point = [](double t) {
    obs::TimelinePoint p;
    p.time = t;
    p.values[idx(TimelineSeries::kQueries)] = static_cast<std::uint64_t>(t);
    return p;
  };
  std::vector<std::vector<obs::TimelinePoint>> shards(3);
  shards[0] = {point(0.0), point(10.0)};
  shards[1] = {point(0.0), point(10.0)};
  shards[2] = {point(0.0)};

  const auto merged = obs::merge_by_time(std::move(shards));
  ASSERT_EQ(merged.size(), 5u);
  // Shards share the tick grid, so the merged stream interleaves
  // (tick 0: shard 0, 1, 2), (tick 1: shard 0, 1).
  EXPECT_EQ(merged[0].shard, 0u);
  EXPECT_EQ(merged[1].shard, 1u);
  EXPECT_EQ(merged[2].shard, 2u);
  EXPECT_DOUBLE_EQ(merged[2].time, 0.0);
  EXPECT_EQ(merged[3].shard, 0u);
  EXPECT_DOUBLE_EQ(merged[3].time, 10.0);
  EXPECT_EQ(merged[4].shard, 1u);
}

TEST(TimelineSidecar, RoundTripsMissingFileAndCorruption) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_timeline_sidecar";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = obs::timeline_sidecar_path(dir);

  std::vector<obs::TimelinePoint> out;
  double tick = -1.0;
  EXPECT_FALSE(obs::load_timeline(path, out, &tick));  // not written yet
  EXPECT_TRUE(out.empty());

  std::vector<obs::TimelinePoint> points(2);
  points[0].time = 600.0;
  points[0].shard = 3;
  points[0].values[idx(TimelineSeries::kQueries)] = 42;
  points[0].values[idx(TimelineSeries::kActiveSessions)] = 7;
  points[1].time = 1200.0;
  obs::save_timeline(path, points, 600.0);

  EXPECT_TRUE(obs::load_timeline(path, out, &tick));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0] == points[0]);
  EXPECT_TRUE(out[1] == points[1]);
  EXPECT_DOUBLE_EQ(tick, 600.0);
  EXPECT_EQ(obs::timeline_digest(out), obs::timeline_digest(points));

  // An empty sidecar is valid (presence == "timelines were on").
  obs::save_timeline(path, {}, 600.0);
  EXPECT_TRUE(obs::load_timeline(path, out));
  EXPECT_TRUE(out.empty());

  // Truncation and a foreign magic must throw, not misparse.
  obs::save_timeline(path, points, 600.0);
  std::error_code ec;
  std::filesystem::resize_file(path, 40, ec);
  ASSERT_FALSE(ec);
  EXPECT_THROW(obs::load_timeline(path, out), std::runtime_error);
  {
    std::ofstream bad(path, std::ios::binary | std::ios::trunc);
    bad << "nope-not-a-timeline-file";
  }
  EXPECT_THROW(obs::load_timeline(path, out), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(TimelineSidecar, ChecksumTrailerDetectsSingleBitFlips) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_timeline_crc";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = obs::timeline_sidecar_path(dir);

  std::vector<obs::TimelinePoint> points(3);
  points[0].time = 600.0;
  points[0].values[idx(TimelineSeries::kQueries)] = 11;
  points[1].time = 1200.0;
  points[1].values[idx(TimelineSeries::kQueries)] = 22;
  points[2].time = 1800.0;
  points[2].values[idx(TimelineSeries::kQueries)] = 33;
  obs::save_timeline(path, points, 600.0);
  const auto size = std::filesystem::file_size(path);

  const auto flip = [&](std::uint64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  };

  std::vector<obs::TimelinePoint> out;
  // A flip in a record body only the trailer can catch (the framing is
  // still perfectly well-formed).
  flip(size - 8);
  EXPECT_THROW(obs::load_timeline(path, out), std::runtime_error);
  flip(size - 8);  // restore
  EXPECT_TRUE(obs::load_timeline(path, out));
  EXPECT_EQ(out.size(), 3u);

  // A flip in the trailer itself.
  flip(size - 2);
  EXPECT_THROW(obs::load_timeline(path, out), std::runtime_error);
  flip(size - 2);

  // A sidecar whose checksum was cut off must not load as valid.
  std::error_code ec;
  std::filesystem::resize_file(path, size - 2, ec);
  ASSERT_FALSE(ec);
  EXPECT_THROW(obs::load_timeline(path, out), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Golden pins: literal values, so a refactor of the codec or the hash
// cannot drift silently (the tests above only compare values against each
// other).

std::uint64_t file_fnv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return trace::fnv1a_update(trace::kFnvOffsetBasis, bytes.data(),
                             bytes.size());
}

TEST(TimelineGolden, DigestAndSidecarBytesArePinned) {
  std::vector<obs::TimelinePoint> points(2);
  points[0].time = 600.0;
  for (std::size_t s = 0; s < obs::kTimelineSeriesCount; ++s) {
    points[0].values[s] = 3 * s + 1;
  }
  points[1].time = 1200.0;
  points[1].shard = 2;
  points[1].values[idx(TimelineSeries::kQueries)] = 42;
  points[1].values[idx(TimelineSeries::kActiveSessions)] = 7;
  points[1].values[idx(TimelineSeries::kQueriesOther)] = 0xffffffffffULL;
  EXPECT_EQ(obs::timeline_digest(points), 0xcf3700d1aae6f75fULL);
  EXPECT_EQ(obs::timeline_digest({}), 0xcbf29ce484222325ULL);

  const std::string dir = ::testing::TempDir() + "/p2pgen_timeline_golden";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = obs::timeline_sidecar_path(dir);
  obs::save_timeline(path, points, 600.0);
  // 32-byte header, (16 + 8 * series)-byte records, CRC32 trailer.
  EXPECT_EQ(std::filesystem::file_size(path),
            32u + 2u * (16u + 8u * obs::kTimelineSeriesCount) + 4u);
  EXPECT_EQ(file_fnv(path), 0xe431bd31cb55914dULL);
  obs::save_timeline(path, {}, 60.0);
  EXPECT_EQ(file_fnv(path), 0xa452b80b885ec1d0ULL);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Contracts against the real pipeline.

/// Faulted flash-crowd config: the fault layer exercises the drop series
/// and the arrival ramp gives the tick stream visible structure.
behavior::TraceSimulationConfig timeline_test_config() {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;
  config.arrival_rate = 1.0;
  config.seed = 20040315;
  config.faults.loss_prob = 0.03;
  config.faults.corrupt_prob = 0.01;
  config.faults.duplicate_prob = 0.02;
  config.faults.crash_rate = 1.0 / 3600.0;
  config.faults.half_open_prob = 0.05;
  config.faults.half_open_after_mean = 300.0;
  config.node.forward_fanout = 4;
  config.node.forward_retry_max = 3;
  config.arrival_schedule.points = {
      {0.0, 1.0}, {0.008, 3.0}, {0.016, 1.0}};
  config.timeline.tick_seconds = 120.0;
  return config;
}

/// Every timeline.* counter and gauge — the derived-aggregate surface.
std::map<std::string, std::int64_t> timeline_aggregates(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::int64_t> out;
  for (const auto& c : snapshot.counters) {
    if (c.name.rfind("timeline.", 0) == 0) {
      out[c.name] = static_cast<std::int64_t>(c.value);
    }
  }
  for (const auto& g : snapshot.gauges) {
    if (g.name.rfind("timeline.", 0) == 0) out[g.name] = g.value;
  }
  return out;
}

TEST(TimelineContract, TickStreamsBitIdenticalAcrossThreadCounts) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  const auto config = timeline_test_config();

  std::vector<std::uint64_t> digests;
  std::vector<std::map<std::string, std::int64_t>> aggregates;
  std::size_t points_seen = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    registry.reset();
    std::vector<obs::TimelinePoint> timeline;
    behavior::simulate_trace_sharded(model, config, 3, threads, nullptr,
                                     nullptr, &timeline);
    digests.push_back(obs::timeline_digest(timeline));
    aggregates.push_back(timeline_aggregates(registry.snapshot()));
    points_seen = timeline.size();
  }
  // 0.02 days / 120 s = 14.4 -> 15 ticks per shard x 3 shards.
  EXPECT_EQ(points_seen, 45u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  EXPECT_FALSE(aggregates[0].empty());
  EXPECT_EQ(aggregates[0], aggregates[1]);
  EXPECT_EQ(aggregates[0], aggregates[2]);
}

TEST(TimelineContract, RecordingNeverPerturbsTraceOrConfigDigest) {
  // Strictly observational: any tick rate produces byte-identical trace
  // output to tick 0 (where the recorder is never even constructed), and
  // the config digest — the bench-cache and durable-identity key — is
  // invariant under every timeline setting.
  const auto model = core::WorkloadModel::paper_default();
  auto config = timeline_test_config();

  config.timeline.tick_seconds = 0.0;
  const std::uint64_t digest_off = behavior::simulation_config_digest(config);
  const std::string without =
      trace_bytes(behavior::simulate_trace_sharded(model, config, 2, 2));

  config.timeline.tick_seconds = 120.0;
  EXPECT_EQ(behavior::simulation_config_digest(config), digest_off);
  const std::string with =
      trace_bytes(behavior::simulate_trace_sharded(model, config, 2, 2));
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(without, with);

  config.timeline.tick_seconds = 7.5;  // a pathological tick, same trace
  EXPECT_EQ(behavior::simulation_config_digest(config), digest_off);
  const std::string odd =
      trace_bytes(behavior::simulate_trace_sharded(model, config, 2, 2));
  EXPECT_EQ(without, odd);
}

TEST(TimelineContract, SeriesCoverTheFaultedRunAndRegionsSumToQueries) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  registry.reset();
  const auto model = core::WorkloadModel::paper_default();
  const auto config = timeline_test_config();

  std::vector<obs::TimelinePoint> timeline;
  behavior::simulate_trace_sharded(model, config, 2, 2, nullptr, nullptr,
                                   &timeline);
  ASSERT_FALSE(timeline.empty());

  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t started = 0;
  std::uint64_t drops = 0;
  for (const auto& point : timeline) {
    queries += point.values[idx(TimelineSeries::kQueries)];
    hits += point.values[idx(TimelineSeries::kQueryHits)];
    started += point.values[idx(TimelineSeries::kSessionsStarted)];
    drops += point.values[idx(TimelineSeries::kDropLoss)] +
             point.values[idx(TimelineSeries::kDropCorrupted)] +
             point.values[idx(TimelineSeries::kDropDeadLink)];
    // Region attribution is a partition of the tick's queries.
    EXPECT_EQ(point.values[idx(TimelineSeries::kQueries)],
              point.values[idx(TimelineSeries::kQueriesNorthAmerica)] +
                  point.values[idx(TimelineSeries::kQueriesEurope)] +
                  point.values[idx(TimelineSeries::kQueriesAsia)] +
                  point.values[idx(TimelineSeries::kQueriesOther)]);
  }
  EXPECT_GT(queries, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(started, 0u);
  EXPECT_GT(drops, 0u);  // the fault layer ran

  // The published aggregates are sums over the same merged stream.
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("timeline.points"), timeline.size());
  EXPECT_EQ(snapshot.counter_value("timeline.total.queries"), queries);
  EXPECT_GT(snapshot.gauge_value("timeline.peak.active_sessions"), 0);
}

TEST(TimelineContract, DurableResumeAndStreamingReplayAreIdentical) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  const auto config = timeline_test_config();

  const std::string base = ::testing::TempDir() + "/p2pgen_timeline_equiv";
  std::filesystem::remove_all(base);

  // Materialized oracle of a durable run: the per-shard timeline.bin
  // sidecars written next to the spools, merged and published in-process.
  behavior::DurabilityConfig durability;
  durability.dir = base + "/mat";
  registry.reset();
  const std::vector<obs::TimelinePoint> materialized =
      oracle::run_durable(model, config, 2, 2, durability).streams.timeline;
  const auto mat_aggregates = timeline_aggregates(registry.snapshot());
  EXPECT_FALSE(materialized.empty());

  // The in-memory merge must equal what any thread count produces.
  std::vector<obs::TimelinePoint> sharded;
  registry.reset();
  behavior::simulate_trace_sharded(model, config, 2, 1, nullptr, nullptr,
                                   &sharded);
  EXPECT_EQ(obs::timeline_digest(materialized), obs::timeline_digest(sharded));

  // Streaming run over a fresh spool: the merged timeline comes from the
  // sidecar files alone, never from an in-memory buffer.
  durability.dir = base + "/str";
  registry.reset();
  const auto spool_dirs =
      behavior::simulate_to_spools(model, config, 2, 2, durability);
  const auto result =
      analysis::analyze_spools(spool_dirs, geo::GeoIpDatabase::synthetic());
  const auto str_aggregates = timeline_aggregates(registry.snapshot());
  EXPECT_EQ(obs::timeline_digest(materialized),
            obs::timeline_digest(result.timeline));
  EXPECT_DOUBLE_EQ(result.timeline_tick_seconds, config.timeline.tick_seconds);
  EXPECT_FALSE(mat_aggregates.empty());
  EXPECT_EQ(mat_aggregates, str_aggregates);

  // Resume of the first checkpoint keeps the sidecars: same merged
  // stream, same aggregates, without re-simulating anything.
  durability.dir = base + "/mat";
  durability.resume = true;
  registry.reset();
  const oracle::DurableRun resumed =
      oracle::run_durable(model, config, 2, 2, durability);
  EXPECT_EQ(resumed.summary.events_replayed, 0u);
  EXPECT_EQ(obs::timeline_digest(materialized),
            obs::timeline_digest(resumed.streams.timeline));
  EXPECT_EQ(timeline_aggregates(registry.snapshot()), mat_aggregates);
  std::filesystem::remove_all(base);
}

TEST(TimelineExport, CounterEventsAreWellFormedAndEmptyStreamEmitsNothing) {
  std::vector<obs::TimelinePoint> points(1);
  points[0].time = 600.0;
  points[0].shard = 1;
  points[0].values[idx(TimelineSeries::kQueries)] = 10;
  points[0].values[idx(TimelineSeries::kQueriesNorthAmerica)] = 10;
  points[0].values[idx(TimelineSeries::kActiveSessions)] = 4;

  std::ostringstream out;
  obs::write_timeline_counter_events(out, points, /*any_prior=*/false);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(s.find("queries[s1]"), std::string::npos);
  EXPECT_NE(s.find("sessions[s1]"), std::string::npos);
  EXPECT_NE(s.find("drops[s1]"), std::string::npos);

  // Empty stream: emits nothing, so a tick-0 run's --trace-json is
  // byte-identical to one from a build without the subsystem.
  std::ostringstream empty;
  obs::write_timeline_counter_events(empty, {}, /*any_prior=*/true);
  EXPECT_TRUE(empty.str().empty());
}

}  // namespace
}  // namespace p2pgen
