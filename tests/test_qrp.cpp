// Tests for the Query Routing Protocol table and its end-to-end effect:
// leaves receive forwarded queries only when their QRP table matches
// (paper Section 3.1).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "behavior/trace_simulation.hpp"
#include "gnutella/codec.hpp"
#include "gnutella/qrp.hpp"
#include "stats/rng.hpp"

namespace p2pgen::gnutella {
namespace {

TEST(QrpTable, InsertedKeywordsAlwaysMatch) {
  QrpTable table(16);
  table.insert_keywords_of("free music mp3");
  EXPECT_TRUE(table.might_match("free"));
  EXPECT_TRUE(table.might_match("free music"));
  EXPECT_TRUE(table.might_match("mp3 music free"));
}

TEST(QrpTable, ConjunctionSemantics) {
  QrpTable table(16);
  table.insert_keyword("alpha");
  table.insert_keyword("beta");
  EXPECT_TRUE(table.might_match("alpha beta"));
  // A query containing an un-inserted keyword fails the conjunction
  // (unless a hash collision happens; these words do not collide at 2^16).
  EXPECT_FALSE(table.might_match("alpha gammaqzw"));
  EXPECT_FALSE(table.might_match(""));
  EXPECT_FALSE(table.might_match("   "));
}

TEST(QrpTable, HashIsCaseInsensitive) {
  EXPECT_EQ(QrpTable::hash_keyword("MuSiC", 16), QrpTable::hash_keyword("music", 16));
  QrpTable table(16);
  table.insert_keyword("Music");
  EXPECT_TRUE(table.might_match("MUSIC"));
}

TEST(QrpTable, FalsePositiveRateIsSmallAtLowFill) {
  QrpTable table(16);
  for (int i = 0; i < 500; ++i) {
    table.insert_keyword("word" + std::to_string(i));
  }
  EXPECT_LT(table.fill_ratio(), 0.01);
  int false_positives = 0;
  constexpr int kProbes = 5000;
  for (int i = 0; i < kProbes; ++i) {
    if (table.might_match("absent" + std::to_string(i))) ++false_positives;
  }
  // ~500/65536 bits set -> fp rate below ~2 %.
  EXPECT_LT(false_positives, kProbes / 50);
}

TEST(QrpTable, MergeIsUnion) {
  QrpTable a(12);
  QrpTable b(12);
  a.insert_keyword("left");
  b.insert_keyword("right");
  a.merge(b);
  EXPECT_TRUE(a.might_match("left"));
  EXPECT_TRUE(a.might_match("right"));
  QrpTable c(13);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(QrpTable, PatchRoundTrip) {
  QrpTable table(12);
  table.insert_keywords_of("some shared keywords here");
  const auto patch = table.to_patch();
  EXPECT_EQ(patch.size(), (std::size_t{1} << 12) / 8);
  const auto restored = QrpTable::from_patch(patch);
  EXPECT_EQ(restored.log2_size(), 12u);
  EXPECT_DOUBLE_EQ(restored.fill_ratio(), table.fill_ratio());
  EXPECT_TRUE(restored.might_match("shared keywords"));
  EXPECT_THROW(QrpTable::from_patch(std::vector<std::uint8_t>(3)),
               std::invalid_argument);
}

/// Patch bytes of a table holding exactly `bits`, in the wire layout:
/// bit i is bit i % 8 of byte i / 8.
std::vector<std::uint8_t> reference_patch(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> patch((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) patch[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return patch;
}

/// A table of random keywords and the bit set they must produce.
std::pair<QrpTable, std::vector<bool>> random_table(stats::Rng& rng,
                                                    unsigned log2) {
  QrpTable table(log2);
  std::vector<bool> bits(std::size_t{1} << log2, false);
  const std::uint64_t words = rng.uniform_index(3 * bits.size() / 4 + 2);
  for (std::uint64_t w = 0; w < words; ++w) {
    const std::string word = std::to_string(rng.next_u64() % 1000000);
    table.insert_keyword(word);
    bits[QrpTable::hash_keyword(word, log2)] = true;
  }
  return {std::move(table), std::move(bits)};
}

double ones_fraction(const std::vector<bool>& bits) {
  std::size_t ones = 0;
  for (const bool b : bits) ones += b ? 1 : 0;
  return static_cast<double>(ones) / static_cast<double>(bits.size());
}

TEST(QrpTable, PatchBytesMatchBitLayoutOnRandomTables) {
  stats::Rng rng(404);
  for (const unsigned log2 : {1u, 3u, 5u, 6u, 7u, 9u, 12u, 16u}) {
    for (int round = 0; round < 6; ++round) {
      auto [table, bits] = random_table(rng, log2);
      const auto patch = table.to_patch();
      ASSERT_EQ(patch, reference_patch(bits)) << "log2 " << log2;
      EXPECT_EQ(table.fill_ratio(), ones_fraction(bits));

      if (log2 >= 3) {
        const QrpTable restored = QrpTable::from_patch(patch);
        EXPECT_EQ(restored.log2_size(), log2);
        EXPECT_EQ(restored.to_patch(), patch);
        EXPECT_EQ(restored.fill_ratio(), table.fill_ratio());
      }

      auto [other, other_bits] = random_table(rng, log2);
      std::vector<bool> both(bits.size());
      for (std::size_t i = 0; i < bits.size(); ++i) both[i] = bits[i] || other_bits[i];
      table.merge(other);
      EXPECT_EQ(table.to_patch(), reference_patch(both)) << "log2 " << log2;
      EXPECT_EQ(table.fill_ratio(), ones_fraction(both));
    }
  }
}

TEST(QrpTable, ArbitraryPatchBytesRoundTrip) {
  stats::Rng rng(405);
  for (const std::size_t bytes : {1u, 2u, 8u, 64u, 8192u}) {
    std::vector<std::uint8_t> patch(bytes);
    std::size_t ones = 0;
    for (auto& b : patch) {
      b = static_cast<std::uint8_t>(rng.next_u64());
      for (int k = 0; k < 8; ++k) ones += (b >> k) & 1u;
    }
    const QrpTable table = QrpTable::from_patch(patch);
    EXPECT_EQ(table.bit_count(), bytes * 8);
    EXPECT_EQ(table.to_patch(), patch);
    EXPECT_EQ(table.fill_ratio(),
              static_cast<double>(ones) / static_cast<double>(bytes * 8));
  }
}

TEST(QrpTable, RejectsBadSize) {
  EXPECT_THROW(QrpTable(0), std::invalid_argument);
  EXPECT_THROW(QrpTable(25), std::invalid_argument);
}

TEST(RouteTableUpdate, CodecRoundTrip) {
  stats::Rng rng(1);
  QrpTable table(12);
  table.insert_keywords_of("codec test words");
  const Message original = make_route_table_update(rng, table.to_patch());
  EXPECT_EQ(original.type(), MessageType::kRouteTableUpdate);
  const auto wire = encode(original);
  EXPECT_EQ(wire[16], 0x30);
  EXPECT_EQ(decode(wire), original);
}

TEST(QrpEndToEnd, LeafForwardingIsSuppressedByQrp) {
  // With forwarding on, the node must suppress most leaf forwards (leaf
  // tables are sparse) while still forwarding to ultrapeers.
  trace::Trace trace;
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.03;
  config.arrival_rate = 1.5;
  config.seed = 515;
  config.node.forward_fanout = 16;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();
  EXPECT_GT(sim.node().forwarded_messages(), 0u);
  EXPECT_GT(sim.node().qrp_suppressed(), 0u);
  // Suppressions should dominate leaf candidates: leaves share few
  // keyword sets relative to the query stream.
  EXPECT_GT(sim.node().qrp_suppressed(), sim.node().forwarded_messages() / 4);
  // Route-table updates were received and counted.
  EXPECT_GT(trace.stats().route_update_messages, 0u);
}

}  // namespace
}  // namespace p2pgen::gnutella
