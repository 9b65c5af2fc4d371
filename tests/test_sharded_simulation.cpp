// Determinism suite for the sharded simulation engine (DESIGN.md §7):
// the merged trace must be byte-identical for any thread count, shard RNG
// streams must be pairwise disjoint, and merge_traces must be a stable
// (time, shard, position)-ordered reduction with namespaced session ids.
#include "behavior/sharded_simulation.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <variant>
#include <vector>

#include "stats/rng.hpp"
#include "trace/trace_io.hpp"
#include "trace_bytes.hpp"

namespace p2pgen {
namespace {

behavior::TraceSimulationConfig tiny_config() {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;  // ~29 minutes per shard: fast but non-trivial
  config.arrival_rate = 1.0;
  config.seed = 20040315;
  return config;
}

TEST(ShardedSimulation, ShardSeedsAreDistinctFromEachOtherAndTheMaster) {
  const std::uint64_t master = 20040315;
  std::set<std::uint64_t> seeds{master};
  for (unsigned k = 0; k < 64; ++k) {
    const auto inserted = seeds.insert(behavior::shard_seed(master, k));
    EXPECT_TRUE(inserted.second) << "shard " << k << " seed collides";
  }
  // A different master must give a completely different shard-seed set.
  for (unsigned k = 0; k < 64; ++k) {
    EXPECT_EQ(seeds.count(behavior::shard_seed(master + 1, k)), 0u);
  }
}

TEST(ShardedSimulation, ShardRngStreamsArePairwiseNonOverlapping) {
  // Disjointness of the derived streams is what lets shards run with zero
  // synchronization.  Draw a long prefix from each shard's generator and
  // require that no 64-bit output ever repeats — within a stream or
  // across streams.  (For truly overlapping xoshiro streams the shared
  // suffix would collide immediately; for independent streams a birthday
  // collision among 8*4096 draws has probability ~3e-11.)
  constexpr unsigned kShards = 8;
  constexpr std::size_t kDraws = 4096;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(kShards * kDraws);
  for (unsigned k = 0; k < kShards; ++k) {
    stats::Rng rng(behavior::shard_seed(20040315, k));
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_TRUE(seen.insert(rng.next_u64()).second)
          << "stream overlap at shard " << k << ", draw " << i;
    }
  }
}

TEST(ShardedSimulation, MergedTraceIsByteIdenticalForAnyThreadCount) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_config();
  const trace::Trace serial =
      behavior::simulate_trace_sharded(model, config, 2, 1);
  const trace::Trace two =
      behavior::simulate_trace_sharded(model, config, 2, 2);
  const trace::Trace eight =
      behavior::simulate_trace_sharded(model, config, 2, 8);

  ASSERT_GT(serial.size(), 0u);
  // Full byte equality for 1 vs 8 threads, digest equality everywhere
  // (binary_digest is what the scaling bench and CI check).
  EXPECT_EQ(trace_bytes(serial), trace_bytes(eight));
  EXPECT_EQ(trace::binary_digest(serial), trace::binary_digest(two));
  EXPECT_EQ(trace::binary_digest(serial), trace::binary_digest(eight));
}

TEST(ShardedSimulation, ReRunningIsReproducible) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_config();
  const trace::Trace a = behavior::simulate_trace_sharded(model, config, 2, 2);
  const trace::Trace b = behavior::simulate_trace_sharded(model, config, 2, 2);
  EXPECT_EQ(trace::binary_digest(a), trace::binary_digest(b));
}

TEST(ShardedSimulation, MergedTraceIsTimeOrderedAndSessionNamespaced) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_config();
  constexpr unsigned kShards = 3;
  std::vector<behavior::ShardStats> stats;
  const trace::Trace merged =
      behavior::simulate_trace_sharded(model, config, kShards, 2, &stats);

  ASSERT_EQ(stats.size(), kShards);
  std::uint64_t expected_events = 0;
  for (const auto& s : stats) expected_events += s.events;
  EXPECT_EQ(merged.size(), expected_events);

  double prev = 0.0;
  std::set<std::uint64_t> shards_seen;
  for (const auto& event : merged.events()) {
    const double t = trace::event_time(event);
    EXPECT_GE(t, prev);
    prev = t;
    const std::uint64_t sid =
        std::visit([](const auto& e) { return e.session_id; }, event);
    const std::uint64_t shard = trace::shard_of_session(sid);
    EXPECT_LT(shard, kShards);
    shards_seen.insert(shard);
  }
  // Every shard contributed (each produced tens of thousands of events).
  EXPECT_EQ(shards_seen.size(), kShards);
}

TEST(ShardedSimulation, ShardStatsMatchPerShardRuns) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_config();
  std::vector<behavior::ShardStats> stats;
  behavior::simulate_trace_sharded(model, config, 2, 2, &stats);
  for (unsigned k = 0; k < 2; ++k) {
    EXPECT_EQ(stats[k].seed, behavior::shard_seed(config.seed, k));
    behavior::ShardStats solo;
    const trace::Trace shard =
        behavior::simulate_shard(model, config, k, &solo);
    EXPECT_EQ(stats[k].events, shard.size());
    EXPECT_EQ(stats[k].peers_spawned, solo.peers_spawned);
  }
}

TEST(ShardedSimulation, ZeroShardsIsRejected) {
  EXPECT_THROW(behavior::simulate_trace_sharded(
                   core::WorkloadModel::paper_default(), tiny_config(), 0, 1),
               std::invalid_argument);
}

TEST(MergeTraces, StableOrderOnTiedTimestamps) {
  // Two synthetic shards with identical timestamps: the merge must order
  // ties by shard index (then within-shard position) and namespace the
  // session ids — the stability half of the determinism contract.
  trace::Trace shard0;
  trace::Trace shard1;
  trace::SessionStart s0{1.0, 7, 0x0A000001, false, "shard0"};
  trace::SessionStart s1{1.0, 7, 0x0A000002, false, "shard1"};
  trace::SessionEnd e0{2.0, 7, trace::EndReason::kBye};
  trace::SessionEnd e1{2.0, 7, trace::EndReason::kBye};
  shard0.append(s0);
  shard0.append(e0);
  shard1.append(s1);
  shard1.append(e1);

  std::vector<trace::Trace> shards;
  shards.push_back(std::move(shard0));
  shards.push_back(std::move(shard1));
  const trace::Trace merged = trace::merge_traces(std::move(shards));

  ASSERT_EQ(merged.size(), 4u);
  const auto& ev = merged.events();
  // Ties at t=1.0 and t=2.0 each resolve shard 0 before shard 1.
  EXPECT_EQ(std::get<trace::SessionStart>(ev[0]).user_agent, "shard0");
  EXPECT_EQ(std::get<trace::SessionStart>(ev[1]).user_agent, "shard1");
  EXPECT_EQ(std::get<trace::SessionStart>(ev[0]).session_id, 7u);
  EXPECT_EQ(std::get<trace::SessionStart>(ev[1]).session_id,
            trace::kShardSessionStride + 7u);
  EXPECT_EQ(std::get<trace::SessionEnd>(ev[2]).session_id, 7u);
  EXPECT_EQ(std::get<trace::SessionEnd>(ev[3]).session_id,
            trace::kShardSessionStride + 7u);
  EXPECT_EQ(trace::shard_of_session(
                std::get<trace::SessionEnd>(ev[3]).session_id),
            1u);
}

TEST(MergeTraces, SingleShardPassesThroughWithZeroNamespace) {
  trace::Trace only;
  only.append(trace::SessionStart{0.5, 42, 0x0A000001, true, "ua"});
  std::vector<trace::Trace> shards;
  shards.push_back(std::move(only));
  const trace::Trace merged = trace::merge_traces(std::move(shards));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(std::get<trace::SessionStart>(merged.events()[0]).session_id, 42u);
}

}  // namespace
}  // namespace p2pgen
