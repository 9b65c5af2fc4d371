// Tests for the Gnutella substrate: GUIDs, messages, wire codec (including
// fuzz-style robustness), routing table, handshake, and keyword
// canonicalization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gnutella/codec.hpp"
#include "gnutella/handshake.hpp"
#include "gnutella/message.hpp"
#include "gnutella/routing.hpp"

namespace p2pgen::gnutella {
namespace {

stats::Rng test_rng(std::uint64_t seed = 99) { return stats::Rng(seed); }

TEST(Guid, GenerateFollowsConventionAndIsUnique) {
  auto rng = test_rng();
  const Guid a = Guid::generate(rng);
  const Guid b = Guid::generate(rng);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.bytes[8], 0xff);
  EXPECT_EQ(a.bytes[15], 0x00);
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(Guid::zero().is_zero());
  EXPECT_EQ(a.to_string().size(), 32u);
}

TEST(Guid, HashDistinguishes) {
  auto rng = test_rng();
  GuidHash h;
  const Guid a = Guid::generate(rng);
  const Guid b = Guid::generate(rng);
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(a));
}

TEST(Guid, HashIsPinned) {
  // GuidHash values land in every trace (MessageEvent::guid_hash) and key
  // the qtrace sampler, so they are pinned to literals.
  Guid g;
  for (std::size_t i = 0; i < g.bytes.size(); ++i) {
    g.bytes[i] = static_cast<std::uint8_t>(17 * i + 3);
  }
  EXPECT_EQ(GuidHash{}(g), 0xd7e4646f135b4d13ULL);
  EXPECT_EQ(GuidHash{}(Guid::zero()), 0xa31e272015f12c43ULL);
}

TEST(Message, TypeMatchesPayload) {
  auto rng = test_rng();
  EXPECT_EQ(make_ping(rng).type(), MessageType::kPing);
  EXPECT_EQ(make_query(rng, "abc").type(), MessageType::kQuery);
  EXPECT_EQ(make_bye(rng, 200, "x").type(), MessageType::kBye);
}

TEST(Message, ForwardingDecrementsTtlIncrementsHops) {
  auto rng = test_rng();
  Message m = make_query(rng, "hello world", {}, 7);
  const Message f = m.forwarded();
  EXPECT_EQ(f.ttl, 6);
  EXPECT_EQ(f.hops, 1);
  EXPECT_EQ(f.guid, m.guid);

  m.ttl = 0;
  EXPECT_FALSE(m.forwardable());
  EXPECT_THROW(m.forwarded(), std::logic_error);
}

TEST(CanonicalKeywords, NormalizesCaseOrderAndDuplicates) {
  EXPECT_EQ(canonical_keywords("Hello World"), "hello world");
  EXPECT_EQ(canonical_keywords("world  HELLO"), "hello world");
  EXPECT_EQ(canonical_keywords("a a a b"), "a b");
  EXPECT_EQ(canonical_keywords("  "), "");
  EXPECT_EQ(canonical_keywords("\tmixed\nwhitespace  ok"),
            "mixed ok whitespace");
}

TEST(CanonicalKeywords, PaperIdentitySemantics) {
  // "Queries are identical if they contain the same set of keywords."
  EXPECT_EQ(canonical_keywords("madonna music"), canonical_keywords("MUSIC madonna"));
  EXPECT_NE(canonical_keywords("madonna music"), canonical_keywords("madonna"));
}

// ------------------------------------------------------------------ codec

std::vector<Message> codec_corpus() {
  auto rng = test_rng(7);
  std::vector<Message> msgs;
  msgs.push_back(make_ping(rng));
  msgs.push_back(make_pong(Guid::generate(rng), 0x18010203, 42, 42 * 4096));
  msgs.push_back(make_query(rng, "free music mp3"));
  msgs.push_back(make_query(rng, "", "urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB"));
  msgs.push_back(make_query(rng, "query with sha1", "urn:sha1:AAAA"));
  {
    std::vector<QueryHitResult> results = {{1, 1000, "a.mp3"},
                                           {2, 2000, "b long name.avi"}};
    msgs.push_back(
        make_query_hit(Guid::generate(rng), 0xC0A80101, results,
                       Guid::generate(rng)));
  }
  msgs.push_back(make_bye(rng, 503, "shutting down"));
  // Edge cases:
  msgs.push_back(make_query(rng, ""));                   // empty keywords
  msgs.push_back(make_query_hit(Guid::generate(rng), 0, {}, Guid::generate(rng)));
  return msgs;
}

class CodecRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const auto corpus = codec_corpus();
  const Message& original = corpus[GetParam()];
  const auto wire = encode(original);
  ASSERT_GE(wire.size(), kHeaderSize);
  const Message decoded = decode(wire);
  EXPECT_EQ(decoded, original);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CodecRoundTrip,
                         ::testing::Range<std::size_t>(0, 9));

TEST(Codec, HeaderLayoutIsGnutella06) {
  auto rng = test_rng(8);
  const Message m = make_query(rng, "x", {}, 5);
  const auto wire = encode(m);
  EXPECT_EQ(wire[16], 0x80);  // QUERY type byte
  EXPECT_EQ(wire[17], 5);     // TTL
  EXPECT_EQ(wire[18], 0);     // hops
  // Payload length (little-endian): min_speed(2) + "x\0"(2) = 4.
  EXPECT_EQ(wire[19], 4);
  EXPECT_EQ(wire[20], 0);
  EXPECT_EQ(wire.size(), kHeaderSize + 4);
}

TEST(Codec, PongIpIsNetworkByteOrder) {
  auto rng = test_rng(9);
  const Message m = make_pong(Guid::generate(rng), 0x01020304, 0, 0);
  const auto wire = encode(m);
  // Payload: port(2 LE) then IP (big-endian).
  EXPECT_EQ(wire[kHeaderSize + 2], 0x01);
  EXPECT_EQ(wire[kHeaderSize + 3], 0x02);
  EXPECT_EQ(wire[kHeaderSize + 4], 0x03);
  EXPECT_EQ(wire[kHeaderSize + 5], 0x04);
}

TEST(Codec, TryDecodeNeedsFullDescriptor) {
  auto rng = test_rng(10);
  const auto wire = encode(make_query(rng, "hello"));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const auto partial =
        std::span<const std::uint8_t>(wire.data(), cut);
    EXPECT_FALSE(try_decode(partial).has_value()) << "cut=" << cut;
  }
  const auto full = try_decode(wire);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->second, wire.size());
}

TEST(Codec, TryDecodeStreamsBackToBack) {
  auto rng = test_rng(11);
  const auto first = encode(make_ping(rng));
  const auto second = encode(make_query(rng, "two"));
  std::vector<std::uint8_t> stream = first;
  stream.insert(stream.end(), second.begin(), second.end());

  const auto a = try_decode(stream);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first.type(), MessageType::kPing);
  const auto b = try_decode(
      std::span<const std::uint8_t>(stream).subspan(a->second));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first.type(), MessageType::kQuery);
}

TEST(Codec, RejectsUnknownTypeByte) {
  auto rng = test_rng(12);
  auto wire = encode(make_ping(rng));
  wire[16] = 0x42;
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, RejectsOversizedPayloadLength) {
  auto rng = test_rng(13);
  auto wire = encode(make_ping(rng));
  wire[22] = 0xFF;  // payload length top byte -> > kMaxPayload
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, RejectsTrailingGarbage) {
  auto rng = test_rng(14);
  auto wire = encode(make_ping(rng));
  wire.push_back(0x00);
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, FuzzBitFlipsNeverCrash) {
  // Flipping any single byte must either decode to something or throw
  // DecodeError — never crash or hang.
  const auto corpus = codec_corpus();
  for (const auto& msg : corpus) {
    const auto wire = encode(msg);
    for (std::size_t i = 0; i < wire.size(); ++i) {
      auto mutated = wire;
      mutated[i] ^= 0xFF;
      try {
        (void)decode(mutated);
      } catch (const DecodeError&) {
        // expected for many mutations
      }
    }
  }
  SUCCEED();
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  auto rng = test_rng(16);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.uniform_index(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    try {
      (void)try_decode(junk);
    } catch (const DecodeError&) {
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------- routing

TEST(RoutingTable, FirstSeenThenDuplicate) {
  auto rng = test_rng(17);
  RoutingTable table(600.0);
  const Guid g = Guid::generate(rng);
  EXPECT_TRUE(table.note_seen(g, 5, 0.0));
  EXPECT_FALSE(table.note_seen(g, 9, 1.0));
  EXPECT_EQ(table.reverse_route(g, 2.0), std::optional<PeerLink>(5));
}

TEST(RoutingTable, EntriesExpire) {
  auto rng = test_rng(18);
  RoutingTable table(600.0);
  const Guid g = Guid::generate(rng);
  table.note_seen(g, 5, 0.0);
  EXPECT_TRUE(table.reverse_route(g, 599.0).has_value());
  EXPECT_FALSE(table.reverse_route(g, 600.0).has_value());
  // Re-insertion after expiry is a fresh first-sighting.
  EXPECT_TRUE(table.note_seen(g, 7, 601.0));
  EXPECT_EQ(table.reverse_route(g, 602.0), std::optional<PeerLink>(7));
}

TEST(RoutingTable, SizeTracksLiveEntries) {
  auto rng = test_rng(19);
  RoutingTable table(100.0);
  for (int i = 0; i < 50; ++i) {
    table.note_seen(Guid::generate(rng), 1, static_cast<double>(i));
  }
  EXPECT_EQ(table.size(49.0), 50u);
  EXPECT_EQ(table.size(120.0), 29u);  // t=0..20 expired by 120 (inclusive)
  EXPECT_EQ(table.size(1000.0), 0u);
}

TEST(RoutingTable, RejectsNonPositiveExpiry) {
  EXPECT_THROW(RoutingTable(0.0), std::invalid_argument);
}

TEST(RoutingTable, RejectsNanTime) {
  RoutingTable table(600.0);
  EXPECT_THROW(table.note_seen(Guid::zero(), 1, std::nan("")),
               std::invalid_argument);
}

/// Oracle: the table as first written — an unordered_map of entries plus
/// an insertion-order deque purged on every call.
class DequeRoutingTable {
 public:
  explicit DequeRoutingTable(double expiry) : expiry_(expiry) {}

  bool note_seen(const Guid& guid, PeerLink from, double now) {
    purge(now);
    const auto [it, inserted] = entries_.try_emplace(guid, Entry{from, now});
    if (!inserted) return false;
    order_.emplace_back(now, guid);
    return true;
  }
  std::optional<PeerLink> reverse_route(const Guid& guid, double now) {
    purge(now);
    const auto it = entries_.find(guid);
    if (it == entries_.end()) return std::nullopt;
    return it->second.from;
  }
  std::size_t size(double now) {
    purge(now);
    return entries_.size();
  }

 private:
  struct Entry {
    PeerLink from = 0;
    double seen_at = 0.0;
  };
  void purge(double now) {
    while (!order_.empty() && order_.front().first + expiry_ <= now) {
      const auto& [seen_at, guid] = order_.front();
      const auto it = entries_.find(guid);
      if (it != entries_.end() && it->second.seen_at == seen_at) {
        entries_.erase(it);
      }
      order_.pop_front();
    }
  }

  double expiry_;
  std::unordered_map<Guid, Entry, GuidHash> entries_;
  std::deque<std::pair<double, Guid>> order_;
};

/// Random note_seen / reverse_route / size streams against the oracle.
/// A small GUID pool makes re-sightings (live and after expiry) common;
/// pool members share their first 8 bytes in pairs, so equal table keys
/// with different GUIDs are exercised; some steps land exactly on
/// `seen_at + expiry` of an earlier sighting, some jump past two windows.
void check_against_oracle(std::uint64_t seed, double expiry, double grid,
                          std::size_t pool_size, int steps) {
  stats::Rng rng(seed);
  std::vector<Guid> pool;
  for (std::size_t i = 0; i < pool_size; ++i) {
    Guid g = Guid::generate(rng);
    if (i % 2 == 1) std::memcpy(g.bytes.data(), pool.back().bytes.data(), 8);
    pool.push_back(g);
  }
  RoutingTable table(expiry);
  DequeRoutingTable oracle(expiry);
  std::vector<double> sightings;
  double now = rng.uniform(0.0, 100.0);
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t move = rng.uniform_index(100);
    if (move < 60) {
      // Small steps; on a grid they hit boundaries exactly.
      now += grid > 0.0 ? grid * static_cast<double>(rng.uniform_index(3))
                        : rng.uniform(0.0, expiry / 1000.0);
    } else if (move < 70 && !sightings.empty()) {
      const double boundary =
          sightings[rng.uniform_index(sightings.size())] + expiry;
      if (boundary >= now) now = boundary;
    } else if (move == 70) {
      now += 2.5 * expiry;
    }
    const Guid& guid = rng.bernoulli(0.8)
                           ? pool[rng.uniform_index(pool.size())]
                           : Guid::generate(rng);
    const std::uint64_t op = rng.uniform_index(10);
    if (op < 5) {
      const PeerLink from = rng.uniform_index(8);
      const bool fresh = oracle.note_seen(guid, from, now);
      ASSERT_EQ(table.note_seen(guid, from, now), fresh)
          << "seed " << seed << " step " << step;
      if (fresh) sightings.push_back(now);
    } else if (op < 9) {
      ASSERT_EQ(table.reverse_route(guid, now), oracle.reverse_route(guid, now))
          << "seed " << seed << " step " << step;
    } else {
      ASSERT_EQ(table.size(now), oracle.size(now))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(RoutingTable, MatchesDequeOracleOnGrid) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    check_against_oracle(seed, 10.0, 0.25, 64, 20000);
  }
}

TEST(RoutingTable, MatchesDequeOracleOffGrid) {
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    check_against_oracle(seed, 600.0, 0.0, 4000, 40000);
  }
}

// -------------------------------------------------------------- handshake

TEST(Handshake, RoundTripConnectRequest) {
  const auto hs = Handshake::connect_request("LimeWire/3.8.10", true);
  const auto parsed = Handshake::parse(hs.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_connect_request);
  EXPECT_EQ(parsed->user_agent(), "LimeWire/3.8.10");
  EXPECT_TRUE(parsed->is_ultrapeer());
}

TEST(Handshake, RoundTripOkResponse) {
  const auto hs = Handshake::ok_response("mutella-0.4.5", false);
  const auto parsed = Handshake::parse(hs.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_connect_request);
  EXPECT_EQ(parsed->status_code, 200);
  EXPECT_EQ(parsed->status_phrase, "OK");
  EXPECT_FALSE(parsed->is_ultrapeer());
}

TEST(Handshake, HeaderKeysAreCaseInsensitive) {
  HeaderMap headers;
  headers.set("User-Agent", "X");
  EXPECT_EQ(headers.get("user-agent"), std::optional<std::string>("X"));
  EXPECT_EQ(headers.get("USER-AGENT"), std::optional<std::string>("X"));
  EXPECT_TRUE(headers.contains("uSeR-aGeNt"));
}

TEST(Handshake, ParseRejectsGarbage) {
  EXPECT_FALSE(Handshake::parse("HTTP/1.1 200 OK\r\n\r\n").has_value());
  EXPECT_FALSE(Handshake::parse("").has_value());
  EXPECT_FALSE(Handshake::parse("GNUTELLA CONNECT/0.6\r\nbadheader\r\n\r\n")
                   .has_value());
}

TEST(Handshake, ParsesRefusal) {
  Handshake refusal = Handshake::ok_response("node", true);
  refusal.status_code = 503;
  refusal.status_phrase = "Busy";
  const auto parsed = Handshake::parse(refusal.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status_code, 503);
  EXPECT_EQ(parsed->status_phrase, "Busy");
}

}  // namespace
}  // namespace p2pgen::gnutella
