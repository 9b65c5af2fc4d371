// Tests for the observability layer (DESIGN.md §8): metrics registry
// semantics (sharded counters, dedupe, disabled/unbound no-ops, exact
// multi-threaded sums), span tracing, and — the load-bearing contract —
// that instrumentation never perturbs results: the sharded simulation
// stays byte-identical at 1/2/8 threads with metrics on, and every
// deterministic (non-"pool.") counter total is identical for any thread
// count.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/parallel.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "durable_oracle.hpp"
#include "obs/span.hpp"
#include "trace_bytes.hpp"

namespace p2pgen {
namespace {

TEST(MetricsRegistry, CountersGaugesHistogramsRoundTrip) {
  obs::Registry registry;
  auto c = registry.counter("events.total");
  c.add(5);
  c.inc();
  auto g = registry.gauge("depth");
  g.set(7);
  g.add(-2);
  auto h = registry.histogram("latency", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);

  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("events.total"), 6u);
  EXPECT_EQ(snapshot.gauge_value("depth"), 5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const auto& hist = snapshot.histograms[0];
  EXPECT_EQ(hist.name, "latency");
  ASSERT_EQ(hist.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hist.buckets[0], 1u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[2], 1u);
  EXPECT_EQ(hist.buckets[3], 1u);
  EXPECT_EQ(hist.count, 4u);
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  obs::Registry registry;
  auto a = registry.counter("shared");
  auto b = registry.counter("shared");
  a.add(2);
  b.add(3);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counter_value("shared"), 5u);
}

TEST(MetricsRegistry, GaugeRecordMaxIsMonotone) {
  obs::Registry registry;
  auto g = registry.gauge("high_water");
  g.record_max(10);
  g.record_max(3);
  g.record_max(12);
  g.record_max(11);
  EXPECT_EQ(registry.snapshot().gauge_value("high_water"), 12);
}

TEST(MetricsRegistry, UnboundHandlesAreNoOps) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.add(1);
  c.inc();
  g.set(1);
  g.add(1);
  g.record_max(1);
  h.observe(1.0);  // must not crash; nothing to assert beyond survival
}

TEST(MetricsRegistry, DisabledRegistryRecordsNothing) {
  obs::Registry registry;
  auto c = registry.counter("gated");
  registry.set_enabled(false);
  c.add(100);
  EXPECT_EQ(registry.snapshot().counter_value("gated"), 0u);
  registry.set_enabled(true);
  c.add(4);
  EXPECT_EQ(registry.snapshot().counter_value("gated"), 4u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsNames) {
  obs::Registry registry;
  auto c = registry.counter("kept");
  c.add(9);
  registry.gauge("g").set(3);
  registry.reset();
  auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counter_value("kept"), 0u);
  EXPECT_EQ(snapshot.gauge_value("g"), 0);
  c.add(2);  // the old handle is still bound after reset
  EXPECT_EQ(registry.snapshot().counter_value("kept"), 2u);
}

TEST(MetricsRegistry, ConcurrentIncrementsSumExactly) {
  obs::Registry registry;
  auto c = registry.counter("contended");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counter_value("contended"),
            kThreads * kPerThread);
}

TEST(MetricsRegistry, JsonAndPrometheusExportsAreWellFormed) {
  obs::Registry registry;
  registry.counter("a.b.count").add(3);
  registry.gauge("a.depth").set(-4);
  registry.histogram("a.lat", {1.0}).observe(0.5);

  std::ostringstream json;
  registry.snapshot().write_json(json);
  const std::string j = json.str();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.find_last_not_of('\n'), j.size() - 2);
  EXPECT_EQ(j[j.size() - 2], '}');
  EXPECT_NE(j.find("\"a.b.count\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"a.depth\": -4"), std::string::npos);

  std::ostringstream prom;
  registry.snapshot().write_prometheus(prom);
  const std::string p = prom.str();
  EXPECT_NE(p.find("a_b_count 3"), std::string::npos);
  EXPECT_NE(p.find("# TYPE a_b_count counter"), std::string::npos);
  EXPECT_NE(p.find("a_depth -4"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusLabelValuesAreEscaped) {
  // The exposition format requires backslash, double-quote and newline
  // escaped inside label VALUES (metric names are sanitized separately).
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::prometheus_escape_label("quo\"te"), "quo\\\"te");
  EXPECT_EQ(obs::prometheus_escape_label("new\nline"), "new\\nline");
  EXPECT_EQ(obs::prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");

  // The histogram `le` label goes through the escaper in write_prometheus:
  // bucket lines must stay one-per-line and parseable even though the
  // bound is formatted through operator<<.
  obs::Registry registry;
  registry.histogram("esc.lat", {0.5, 5.0}).observe(1.0);
  std::ostringstream prom;
  registry.snapshot().write_prometheus(prom);
  const std::string p = prom.str();
  EXPECT_NE(p.find("esc_lat_bucket{le=\"0.5\"} 0"), std::string::npos);
  EXPECT_NE(p.find("esc_lat_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(p.find("esc_lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
}

TEST(MetricsRegistry, DeltaSubtractsABaselineSnapshot) {
  obs::Registry registry;
  auto c = registry.counter("work.done");
  auto h = registry.histogram("work.lat", {1.0, 10.0});
  c.add(5);
  h.observe(0.5);
  const auto baseline = registry.snapshot();
  c.add(7);
  h.observe(0.7);
  h.observe(5.0);
  registry.counter("work.late").add(3);  // born after the baseline

  const auto delta = registry.delta(baseline);
  EXPECT_EQ(delta.counter_value("work.done"), 7u);
  EXPECT_EQ(delta.counter_value("work.late"), 3u);
  ASSERT_EQ(delta.histograms.size(), 1u);
  const auto& hist = delta.histograms[0];
  ASSERT_EQ(hist.buckets.size(), 3u);
  EXPECT_EQ(hist.buckets[0], 1u);  // only the post-baseline 0.7
  EXPECT_EQ(hist.buckets[1], 1u);  // the post-baseline 5.0
  EXPECT_EQ(hist.count, 2u);
}

TEST(MetricsRegistry, DeltaSubtractsHistogramSums) {
  obs::Registry registry;
  auto h = registry.histogram("work.lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(20.0);
  const auto baseline = registry.snapshot();
  h.observe(2.0);

  const auto delta = registry.delta(baseline);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(delta.histograms[0].sum, 2.0);
  ASSERT_EQ(delta.histograms[0].buckets.size(), 3u);
  EXPECT_EQ(delta.histograms[0].buckets[0], 0u);
  EXPECT_EQ(delta.histograms[0].buckets[1], 1u);
  EXPECT_EQ(delta.histograms[0].buckets[2], 0u);
}

TEST(MetricsRegistry, DeltaPassesReBucketedHistogramsThroughWhole) {
  // A baseline whose histogram has foreign bounds (a re-bucketed metric,
  // or a snapshot from another process) must never be subtracted
  // bucket-by-bucket across shapes: the whole current state IS the delta.
  obs::Registry registry;
  auto h = registry.histogram("work.lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(20.0);
  auto foreign = registry.snapshot();
  foreign.histograms[0].bounds = {5.0};
  foreign.histograms[0].buckets = {2, 1};

  const auto delta = registry.delta(foreign);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 3u);
  ASSERT_EQ(delta.histograms[0].buckets.size(), 3u);
  EXPECT_EQ(delta.histograms[0].buckets[0], 1u);
  EXPECT_EQ(delta.histograms[0].buckets[1], 1u);
  EXPECT_EQ(delta.histograms[0].buckets[2], 1u);
}

TEST(MetricsRegistry, DeltaClampsAfterAReset) {
  // reset() between the snapshots makes current < baseline; the delta
  // clamps to zero everywhere instead of wrapping unsigned values.
  obs::Registry registry;
  auto c = registry.counter("work.done");
  auto h = registry.histogram("work.lat", {1.0, 10.0});
  c.add(5);
  h.observe(0.5);
  h.observe(0.6);
  const auto baseline = registry.snapshot();

  registry.reset();
  c.add(2);
  h.observe(0.25);
  const auto delta = registry.delta(baseline);
  EXPECT_EQ(delta.counter_value("work.done"), 0u);  // 2 < 5, clamped
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 0u);         // 1 < 2, clamped
  EXPECT_EQ(delta.histograms[0].buckets[0], 0u);
  EXPECT_DOUBLE_EQ(delta.histograms[0].sum, 0.0);
}

TEST(TraceLog, DisabledLogRecordsNothingThroughSpans) {
  obs::TraceLog log;
  ASSERT_FALSE(log.enabled());
  { obs::ObsSpan span("phase", log); }
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLog, SpansRecordAndExport) {
  obs::TraceLog log;
  log.set_enabled(true);
  { obs::ObsSpan span("alpha", log); }
  { obs::ObsSpan span("alpha", log); }
  { obs::ObsSpan span("beta", log); }
  ASSERT_EQ(log.size(), 3u);

  std::ostringstream chrome;
  log.write_chrome_json(chrome);
  const std::string c = chrome.str();
  EXPECT_NE(c.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(c.find("\"alpha\""), std::string::npos);
  EXPECT_NE(c.find("\"ph\":\"X\""), std::string::npos);

  std::ostringstream summary;
  log.write_summary(summary);
  EXPECT_NE(summary.str().find("alpha"), std::string::npos);
  EXPECT_NE(summary.str().find("beta"), std::string::npos);

  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

// ---------------------------------------------------------------------------
// The observability contract against the real pipeline.

behavior::TraceSimulationConfig tiny_fault_config() {
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
  return config;
}

/// All counters except the intentionally schedule-dependent "pool." ones.
std::map<std::string, std::uint64_t> deterministic_counters(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : snapshot.counters) {
    if (c.name.rfind("pool.", 0) == 0) continue;
    out[c.name] = c.value;
  }
  return out;
}

TEST(ObsContract, InstrumentedShardedRunsAreByteIdenticalAcrossThreads) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();

  std::vector<std::string> bytes;
  std::vector<std::map<std::string, std::uint64_t>> counters;
  for (const unsigned threads : {1u, 2u, 8u}) {
    registry.reset();
    const trace::Trace trace =
        behavior::simulate_trace_sharded(model, config, 3, threads);
    bytes.push_back(trace_bytes(trace));
    counters.push_back(deterministic_counters(registry.snapshot()));
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(bytes[0], bytes[2]);
  // Same work => same deterministic counter totals, name for name.
  EXPECT_FALSE(counters[0].empty());
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(counters[0], counters[2]);
}

TEST(ObsContract, FaultCountersMatchShardStats) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  registry.reset();
  std::vector<behavior::ShardStats> stats;
  behavior::simulate_trace_sharded(core::WorkloadModel::paper_default(),
                                   tiny_fault_config(), 2, 2, &stats);
  sim::FaultCounters total;
  for (const auto& s : stats) {
    total.messages_lost += s.faults.messages_lost;
    total.messages_corrupted += s.faults.messages_corrupted;
    total.messages_duplicated += s.faults.messages_duplicated;
    total.messages_delayed += s.faults.messages_delayed;
    total.node_crashes += s.faults.node_crashes;
    total.half_open_links += s.faults.half_open_links;
    total.sends_into_dead_link += s.faults.sends_into_dead_link;
  }
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("fault.messages_lost"),
            total.messages_lost);
  EXPECT_EQ(snapshot.counter_value("fault.messages_corrupted"),
            total.messages_corrupted);
  EXPECT_EQ(snapshot.counter_value("fault.messages_duplicated"),
            total.messages_duplicated);
  EXPECT_EQ(snapshot.counter_value("fault.node_crashes"), total.node_crashes);
  EXPECT_EQ(snapshot.counter_value("fault.half_open_links"),
            total.half_open_links);
  EXPECT_EQ(snapshot.counter_value("fault.sends_into_dead_link"),
            total.sends_into_dead_link);
  EXPECT_GT(total.messages_lost, 0u);  // the faults actually fired
}

TEST(ObsContract, FilterCountersMatchReportForAnyThreadCount) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  registry.reset();
  const trace::Trace trace = behavior::simulate_trace_sharded(
      core::WorkloadModel::paper_default(), tiny_fault_config(), 2, 2);

  std::vector<std::map<std::string, std::uint64_t>> counters;
  analysis::FilterReport first_report;
  for (const unsigned threads : {1u, 8u}) {
    analysis::set_analysis_threads(threads);
    registry.reset();
    auto dataset =
        analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
    const auto report = analysis::apply_filters(dataset);
    if (threads == 1) first_report = report;
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter_value("filter.initial_queries"),
              report.initial_queries);
    EXPECT_EQ(snapshot.counter_value("filter.rule1_removed"),
              report.rule1_removed);
    EXPECT_EQ(snapshot.counter_value("filter.rule2_removed"),
              report.rule2_removed);
    EXPECT_EQ(snapshot.counter_value("filter.rule3_removed_queries"),
              report.rule3_removed_queries);
    EXPECT_EQ(snapshot.counter_value("filter.final_queries"),
              report.final_queries);
    EXPECT_EQ(snapshot.counter_value("filter.rule4_excluded"),
              report.rule4_excluded);
    EXPECT_EQ(snapshot.counter_value("filter.rule5_excluded"),
              report.rule5_excluded);
    EXPECT_EQ(snapshot.counter_value("filter.interarrival_queries"),
              report.interarrival_queries);
    counters.push_back(deterministic_counters(snapshot));
  }
  analysis::set_analysis_threads(1);
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_GT(first_report.initial_queries, 0u);
}

TEST(ObsContract, RecoveryCountersPinTheDurabilityLayer) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  // Replenish on with a high crash rate so the self-healing counters
  // actually move in the tiny window.
  auto config = tiny_fault_config();
  config.faults.crash_rate = 1.0 / 120.0;
  config.node.replenish = true;
  config.node.replenish_target = 20;
  config.node.replenish_backoff_base = 0.5;

  const std::string dir =
      ::testing::TempDir() + "/p2pgen_obs_recovery_ckpt";
  std::filesystem::remove_all(dir);
  behavior::DurabilityConfig durability;
  durability.dir = dir;

  // Fresh durable run: spools are written but nothing is recovered.
  registry.reset();
  const oracle::DurableRun first =
      oracle::run_durable(model, config, 2, 2, durability);
  const behavior::RecoverySummary& fresh = first.summary;
  auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("recovery.spool.records_recovered"), 0u);
  EXPECT_EQ(snapshot.counter_value("recovery.events_replayed"), 0u);
  EXPECT_EQ(snapshot.counter_value("recovery.checkpoints_written"),
            fresh.checkpoints_written);
  EXPECT_EQ(snapshot.counter_value("recovery.checkpoints_loaded"), 0u);
  // The replenish histogram is published per EndReason; crashes at this
  // rate guarantee deaths below target, so the total must be positive
  // and must equal the scheduled+spawned plumbing's source counts.
  const std::uint64_t replenish_total =
      snapshot.counter_value("recovery.replenish.bye") +
      snapshot.counter_value("recovery.replenish.idle_probe") +
      snapshot.counter_value("recovery.replenish.teardown") +
      snapshot.counter_value("recovery.replenish.error");
  EXPECT_GT(replenish_total, 0u);
  EXPECT_GT(snapshot.counter_value("recovery.replenish.scheduled"), 0u);
  EXPECT_GT(snapshot.counter_value("recovery.replenish.spawns"), 0u);

  // Resumed run: both shards are complete and are not re-read (the
  // analysis validates their spools), so nothing counts as recovered.
  registry.reset();
  durability.resume = true;
  const oracle::DurableRun second =
      oracle::run_durable(model, config, 2, 2, durability);
  EXPECT_EQ(trace_bytes(second.trace), trace_bytes(first.trace));
  snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("recovery.spool.records_recovered"), 0u);
  EXPECT_EQ(snapshot.counter_value("recovery.checkpoints_loaded"), 2u);
  EXPECT_EQ(snapshot.counter_value("recovery.shards_completed_prior"), 2u);
  EXPECT_EQ(snapshot.counter_value("recovery.spool.records_truncated"), 0u);
  EXPECT_EQ(snapshot.counter_value("recovery.spool.segments_scanned"),
            second.summary.segments_scanned);

  // An unfinished shard is re-opened: its durable records are recovered
  // and the replay verifies them instead of re-writing them.
  {
    const std::string manifest_path = dir + "/MANIFEST";
    std::ifstream in(manifest_path);
    std::ostringstream kept;
    std::string line;
    while (std::getline(in, line)) {
      if (line != "done 1") kept << line << "\n";
    }
    in.close();
    std::ofstream out(manifest_path, std::ios::trunc);
    out << kept.str();
  }
  registry.reset();
  const oracle::DurableRun third =
      oracle::run_durable(model, config, 2, 2, durability);
  EXPECT_EQ(trace_bytes(third.trace), trace_bytes(first.trace));
  snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("recovery.spool.records_recovered"),
            first.stats[1].events);
  EXPECT_EQ(snapshot.counter_value("recovery.events_replayed"),
            first.stats[1].events);
  EXPECT_EQ(snapshot.counter_value("recovery.shards_completed_prior"), 1u);
  EXPECT_GT(snapshot.counter_value("recovery.spool.segments_scanned"), 0u);
  EXPECT_EQ(snapshot.counter_value("recovery.spool.segments_scanned"),
            third.summary.segments_scanned);
  std::filesystem::remove_all(dir);
}

TEST(ObsContract, DisablingTheGlobalRegistryDoesNotChangeResults) {
  auto& registry = obs::Registry::global();
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();

  registry.set_enabled(true);
  registry.reset();
  const std::string with_metrics =
      trace_bytes(behavior::simulate_trace_sharded(model, config, 2, 2));

  registry.set_enabled(false);
  const std::string without_metrics =
      trace_bytes(behavior::simulate_trace_sharded(model, config, 2, 2));
  registry.set_enabled(true);

  EXPECT_EQ(with_metrics, without_metrics);
}

}  // namespace
}  // namespace p2pgen
