// Tests for query-lifecycle tracing (obs/qtrace, DESIGN.md §12): the
// deterministic sampler, the tracer's gate + latency bookkeeping, the
// (time, shard) merge, the sidecar wire format, and the load-bearing
// contracts against the real pipeline — sampled traces bit-identical at
// 1/2/8 threads on a faulted flash-crowd run, tracing at any rate never
// perturbing the simulated trace, and the streaming replay reproducing
// the materialized path's aggregates exactly from the sidecar files.
#include "obs/qtrace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecars.hpp"
#include "trace/spool.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen {
namespace {

TEST(QtraceSampling, RateZeroAndOneAreAbsolute) {
  for (std::uint64_t q = 0; q < 1000; ++q) {
    EXPECT_FALSE(obs::qtrace_sampled(q, 0.0));
    EXPECT_TRUE(obs::qtrace_sampled(q, 1.0));
    EXPECT_TRUE(obs::qtrace_sampled(q, 2.0));   // clamped
    EXPECT_FALSE(obs::qtrace_sampled(q, -1.0)); // clamped
  }
}

TEST(QtraceSampling, HigherRatesSampleSupersets) {
  // The sampled set at rate r must contain the sampled set at r' < r —
  // the property that makes different sampling runs comparable.
  int sampled_01 = 0;
  int sampled_25 = 0;
  for (std::uint64_t q = 1; q <= 20000; ++q) {
    const bool at_01 = obs::qtrace_sampled(q, 0.01);
    const bool at_25 = obs::qtrace_sampled(q, 0.25);
    if (at_01) {
      EXPECT_TRUE(at_25) << "query " << q;
    }
    sampled_01 += at_01 ? 1 : 0;
    sampled_25 += at_25 ? 1 : 0;
  }
  // The FNV mix should land reasonably close to the nominal fractions.
  EXPECT_GT(sampled_01, 20000 * 0.002);
  EXPECT_LT(sampled_01, 20000 * 0.05);
  EXPECT_GT(sampled_25, 20000 * 0.15);
  EXPECT_LT(sampled_25, 20000 * 0.35);
}

TEST(QtraceTracer, GateDropsEventsButKeepsFirstEmitClock) {
  obs::QtraceConfig config;
  config.sample_rate = 1.0;
  config.gate_time = 100.0;
  obs::QueryTracer tracer(config);

  // Emitted before the gate: no event recorded, but the latency clock
  // starts — a post-gate hit of a pre-gate query still gets a latency.
  tracer.record_query_emitted(50.0, 7, 4, 0);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_DOUBLE_EQ(tracer.latency_since_emit(7, 130.0), 80.0);
  EXPECT_DOUBLE_EQ(tracer.latency_since_emit(999, 130.0), -1.0);

  tracer.record(130.0, 7, obs::QueryHop::kHitReturned, 3, 1,
                tracer.latency_since_emit(7, 130.0));
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].hop, obs::QueryHop::kHitReturned);
  EXPECT_DOUBLE_EQ(tracer.events()[0].value, 80.0);

  // A re-emission (forwarded copy) must NOT restart the clock.
  tracer.record_query_emitted(120.0, 7, 3, 1);
  EXPECT_DOUBLE_EQ(tracer.latency_since_emit(7, 130.0), 80.0);
}

TEST(QtraceMerge, OrdersByTimeThenShardAndStampsShard) {
  std::vector<std::vector<obs::QueryHopEvent>> shards(3);
  auto ev = [](double t, std::uint64_t q) {
    obs::QueryHopEvent e;
    e.time = t;
    e.query = q;
    return e;
  };
  shards[0] = {ev(1.0, 10), ev(3.0, 11)};
  shards[1] = {ev(1.0, 20), ev(2.0, 21)};
  shards[2] = {ev(0.5, 30)};

  const auto merged = obs::merge_by_time(std::move(shards));
  ASSERT_EQ(merged.size(), 5u);
  // (0.5, s2), (1.0, s0), (1.0, s1), (2.0, s1), (3.0, s0): ties broken
  // by shard index, like trace::merge_traces.
  EXPECT_EQ(merged[0].query, 30u);
  EXPECT_EQ(merged[0].shard, 2u);
  EXPECT_EQ(merged[1].query, 10u);
  EXPECT_EQ(merged[1].shard, 0u);
  EXPECT_EQ(merged[2].query, 20u);
  EXPECT_EQ(merged[2].shard, 1u);
  EXPECT_EQ(merged[3].query, 21u);
  EXPECT_EQ(merged[4].query, 11u);
}

TEST(QtraceSidecar, RoundTripsMissingFileAndCorruption) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_qtrace_sidecar";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = obs::qtrace_sidecar_path(dir);

  std::vector<obs::QueryHopEvent> out;
  EXPECT_FALSE(obs::load_qtrace(path, out));  // not written yet
  EXPECT_TRUE(out.empty());

  std::vector<obs::QueryHopEvent> events;
  obs::QueryHopEvent e;
  e.time = 123.456;
  e.query = 0xdeadbeefULL;
  e.shard = 3;
  e.hop = obs::QueryHop::kHitReturned;
  e.ttl = 2;
  e.hops = 5;
  e.value = 0.75;
  events.push_back(e);
  events.push_back(obs::QueryHopEvent{});
  obs::save_qtrace(path, events);

  EXPECT_TRUE(obs::load_qtrace(path, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0] == events[0]);
  EXPECT_TRUE(out[1] == events[1]);
  EXPECT_EQ(obs::qtrace_digest(out), obs::qtrace_digest(events));

  // An empty sidecar is valid (presence == "tracing was on").
  obs::save_qtrace(path, {});
  EXPECT_TRUE(obs::load_qtrace(path, out));
  EXPECT_TRUE(out.empty());

  // Truncation and a foreign magic must throw, not misparse.
  obs::save_qtrace(path, events);
  std::error_code ec;
  std::filesystem::resize_file(path, 20, ec);
  ASSERT_FALSE(ec);
  EXPECT_THROW(obs::load_qtrace(path, out), std::runtime_error);
  {
    std::ofstream bad(path, std::ios::binary | std::ios::trunc);
    bad << "nope-not-a-qtrace-file";
  }
  EXPECT_THROW(obs::load_qtrace(path, out), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(QtraceSidecar, ChecksumTrailerDetectsSingleBitFlips) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_qtrace_crc";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = obs::qtrace_sidecar_path(dir);

  std::vector<obs::QueryHopEvent> events(3);
  events[0].time = 1.5;
  events[0].query = 0x1111;
  events[1].time = 2.5;
  events[1].query = 0x2222;
  events[2].time = 3.5;
  events[2].query = 0x3333;
  obs::save_qtrace(path, events);
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

  std::vector<obs::QueryHopEvent> out;
  // A flip in a record body only the trailer can catch (the framing is
  // still perfectly well-formed).
  flip(size - 8);
  EXPECT_THROW(obs::load_qtrace(path, out), std::runtime_error);
  flip(size - 8);  // restore
  EXPECT_TRUE(obs::load_qtrace(path, out));
  EXPECT_EQ(out.size(), 3u);

  // A flip in the trailer itself.
  flip(size - 2);
  EXPECT_THROW(obs::load_qtrace(path, out), std::runtime_error);
  flip(size - 2);

  // A sidecar whose checksum was cut off must not load as valid.
  std::error_code ec;
  std::filesystem::resize_file(path, size - 2, ec);
  ASSERT_FALSE(ec);
  EXPECT_THROW(obs::load_qtrace(path, out), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(QtraceSidecar, CountTheFileCannotHoldIsRefusedBeforeAllocating) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_qtrace_count";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = obs::qtrace_sidecar_path(dir);
  obs::save_qtrace(path, std::vector<obs::QueryHopEvent>(2));

  // Header bytes 8..15 hold the record count; claim 2^40 records.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const char count[8] = {0, 0, 0, 0, 0, 1, 0, 0};
    f.seekp(8);
    f.write(count, sizeof(count));
  }
  std::vector<obs::QueryHopEvent> out;
  EXPECT_THROW(obs::load_qtrace(path, out), std::runtime_error);
  EXPECT_TRUE(out.empty());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Golden pins: literal values, so a refactor of the codec, the hash or the
// sampler cannot drift silently (the tests above only compare values
// against each other).

std::uint64_t file_fnv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return trace::fnv1a_update(trace::kFnvOffsetBasis, bytes.data(),
                             bytes.size());
}

std::vector<obs::QueryHopEvent> golden_hops() {
  std::vector<obs::QueryHopEvent> events(3);
  events[0].time = 0.125;
  events[0].query = 0x0123456789abcdefULL;
  events[0].hop = obs::QueryHop::kQueryEmitted;
  events[0].ttl = 7;
  events[1].time = 2.5;
  events[1].query = 0xfedcba9876543210ULL;
  events[1].shard = 1;
  events[1].hop = obs::QueryHop::kForwarded;
  events[1].ttl = 6;
  events[1].hops = 1;
  events[2].time = 3600.75;
  events[2].query = 0x0123456789abcdefULL;
  events[2].shard = 2;
  events[2].hop = obs::QueryHop::kHitReturned;
  events[2].ttl = 3;
  events[2].hops = 4;
  events[2].value = 1.5;
  return events;
}

TEST(QtraceGolden, DigestAndSidecarBytesArePinned) {
  const auto events = golden_hops();
  EXPECT_EQ(obs::qtrace_digest(events), 0xe3cb06f4feab24a8ULL);
  EXPECT_EQ(obs::qtrace_digest({}), 0xcbf29ce484222325ULL);

  const std::string dir = ::testing::TempDir() + "/p2pgen_qtrace_golden";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = obs::qtrace_sidecar_path(dir);
  obs::save_qtrace(path, events);
  // magic + version + count, 32-byte records, CRC32 trailer.
  EXPECT_EQ(std::filesystem::file_size(path), 16u + 3u * 32u + 4u);
  EXPECT_EQ(file_fnv(path), 0x4655f8512b9b7d71ULL);
  obs::save_qtrace(path, {});
  EXPECT_EQ(file_fnv(path), 0xc1e92d195df8f60eULL);
  std::filesystem::remove_all(dir);
}

TEST(QtraceGolden, SampledSetIsPinned) {
  int sampled_01 = 0;
  int sampled_25 = 0;
  for (std::uint64_t q = 1; q <= 20000; ++q) {
    sampled_01 += obs::qtrace_sampled(q, 0.01) ? 1 : 0;
    sampled_25 += obs::qtrace_sampled(q, 0.25) ? 1 : 0;
  }
  EXPECT_EQ(sampled_01, 201);
  EXPECT_EQ(sampled_25, 4995);
  EXPECT_TRUE(obs::qtrace_sampled(0x0123456789abcdefULL, 0.5));
}

// ---------------------------------------------------------------------------
// Contracts against the real pipeline.

/// Faulted flash-crowd config: the fault layer exercises the loss /
/// corruption / dead-link hops and the arrival ramp exercises load.
behavior::TraceSimulationConfig qtrace_test_config() {
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
  return config;
}

std::string serialize(const trace::Trace& trace) {
  std::ostringstream os;
  trace::write_binary(trace, os);
  return os.str();
}

/// Every qtrace.* counter plus a flat rendering of every qtrace.*
/// histogram — the full derived-aggregate surface as one comparable map.
std::map<std::string, std::string> qtrace_aggregates(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::string> out;
  for (const auto& c : snapshot.counters) {
    if (c.name.rfind("qtrace.", 0) == 0) {
      out[c.name] = std::to_string(c.value);
    }
  }
  for (const auto& h : snapshot.histograms) {
    if (h.name.rfind("qtrace.", 0) != 0) continue;
    std::ostringstream os;
    for (const auto b : h.buckets) os << b << ",";
    os << "count=" << h.count << " sum=" << h.sum;
    out[h.name] = os.str();
  }
  return out;
}

TEST(QtraceContract, SampledTracesBitIdenticalAcrossThreadCounts) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  auto config = qtrace_test_config();
  config.qtrace.sample_rate = 0.5;

  std::vector<std::uint64_t> digests;
  std::vector<std::map<std::string, std::string>> aggregates;
  std::size_t events_seen = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    registry.reset();
    std::vector<obs::QueryHopEvent> qtrace;
    behavior::simulate_trace_sharded(model, config, 3, threads, nullptr,
                                     &qtrace);
    digests.push_back(obs::qtrace_digest(qtrace));
    aggregates.push_back(qtrace_aggregates(registry.snapshot()));
    events_seen = qtrace.size();
  }
  EXPECT_GT(events_seen, 0u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  EXPECT_FALSE(aggregates[0].empty());
  EXPECT_EQ(aggregates[0], aggregates[1]);
  EXPECT_EQ(aggregates[0], aggregates[2]);
}

TEST(QtraceContract, TracingNeverPerturbsTheSimulatedTrace) {
  // Strictly observational: full sampling produces byte-identical trace
  // output to rate 0 (where the tracer is never even constructed).
  const auto model = core::WorkloadModel::paper_default();
  auto config = qtrace_test_config();

  config.qtrace.sample_rate = 0.0;
  const std::string without =
      serialize(behavior::simulate_trace_sharded(model, config, 2, 2));
  config.qtrace.sample_rate = 1.0;
  const std::string with =
      serialize(behavior::simulate_trace_sharded(model, config, 2, 2));
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(without, with);
}

TEST(QtraceContract, DropReasonsCoverTheFaultedRun) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  registry.reset();
  const auto model = core::WorkloadModel::paper_default();
  auto config = qtrace_test_config();
  config.qtrace.sample_rate = 1.0;

  std::vector<obs::QueryHopEvent> qtrace;
  behavior::simulate_trace_sharded(model, config, 2, 2, nullptr, &qtrace);
  const auto snapshot = registry.snapshot();
  // Every query is sampled, so the event stream must reflect the whole
  // funnel: emissions, receptions, forwards and fault-layer drops.
  EXPECT_GT(snapshot.counter_value("qtrace.sampled_queries"), 0u);
  EXPECT_GT(snapshot.counter_value("qtrace.emitted.query"), 0u);
  EXPECT_GT(snapshot.counter_value("qtrace.received.query"), 0u);
  EXPECT_GT(snapshot.counter_value("qtrace.forwarded"), 0u);
  EXPECT_GT(snapshot.counter_value("qtrace.drop.loss"), 0u);
  // Events respect the (time, shard) merge order.
  for (std::size_t i = 1; i < qtrace.size(); ++i) {
    ASSERT_LE(qtrace[i - 1].time, qtrace[i].time);
    if (qtrace[i - 1].time == qtrace[i].time) {
      ASSERT_LE(qtrace[i - 1].shard, qtrace[i].shard);
    }
  }
}

TEST(QtraceContract, StreamingReplayReproducesMaterializedAggregates) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  auto config = qtrace_test_config();
  config.qtrace.sample_rate = 0.5;

  const std::string base = ::testing::TempDir() + "/p2pgen_qtrace_equiv";
  std::filesystem::remove_all(base);

  // Materialized durable run: merges + publishes in-process, and writes
  // the per-shard qtrace.bin sidecars next to the spools.
  behavior::DurabilityConfig durability;
  durability.dir = base + "/mat";
  registry.reset();
  std::vector<obs::QueryHopEvent> materialized;
  behavior::simulate_trace_durable(model, config, 2, 2, durability, nullptr,
                                   nullptr, &materialized);
  const auto mat_aggregates = qtrace_aggregates(registry.snapshot());

  // Streaming run over a fresh spool: aggregates come from replaying the
  // sidecars in merge order, not from any in-memory buffer.
  durability.dir = base + "/str";
  registry.reset();
  const auto spool_dirs =
      behavior::simulate_to_spools(model, config, 2, 2, durability);
  const auto result =
      analysis::analyze_spools(spool_dirs, geo::GeoIpDatabase::synthetic());
  const auto str_aggregates = qtrace_aggregates(registry.snapshot());

  EXPECT_GT(materialized.size(), 0u);
  EXPECT_EQ(obs::qtrace_digest(materialized), obs::qtrace_digest(result.qtrace));
  EXPECT_FALSE(mat_aggregates.empty());
  EXPECT_EQ(mat_aggregates, str_aggregates);

  // Resume of the materialized checkpoint reloads the sidecars: same
  // merged stream, same aggregates, without re-simulating anything.
  durability.dir = base + "/mat";
  durability.resume = true;
  registry.reset();
  std::vector<obs::QueryHopEvent> resumed;
  behavior::simulate_trace_durable(model, config, 2, 2, durability, nullptr,
                                   nullptr, &resumed);
  EXPECT_EQ(obs::qtrace_digest(materialized), obs::qtrace_digest(resumed));
  EXPECT_EQ(qtrace_aggregates(registry.snapshot()), mat_aggregates);
  std::filesystem::remove_all(base);
}

TEST(QtraceExport, JsonAndFlowEventsAreWellFormed) {
  std::vector<obs::QueryHopEvent> events;
  obs::QueryHopEvent a;
  a.time = 1.5;
  a.query = 0xabcULL;
  a.hop = obs::QueryHop::kQueryEmitted;
  a.ttl = 4;
  events.push_back(a);
  obs::QueryHopEvent b = a;
  b.time = 1.75;
  b.hop = obs::QueryHop::kQueryReceived;
  b.hops = 1;
  events.push_back(b);

  std::ostringstream json;
  obs::write_qtrace_json(json, events);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"qtrace\""), std::string::npos);
  EXPECT_NE(j.find("\"query_emitted\""), std::string::npos);
  EXPECT_NE(j.find("\"query_received\""), std::string::npos);
  EXPECT_NE(j.find("\"count\": 2"), std::string::npos);

  std::ostringstream flow;
  obs::write_qtrace_flow_events(flow, events, /*any_prior=*/false);
  const std::string f = flow.str();
  EXPECT_NE(f.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(f.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(f.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_EQ(f.find("\"ph\":\"t\""), std::string::npos);  // only 2 hops

  // Empty stream: emits nothing at all, so a rate-0 run's --trace-json
  // is byte-identical to one from a build without the subsystem.
  std::ostringstream empty;
  obs::write_qtrace_flow_events(empty, {}, /*any_prior=*/true);
  EXPECT_TRUE(empty.str().empty());
}

}  // namespace
}  // namespace p2pgen
