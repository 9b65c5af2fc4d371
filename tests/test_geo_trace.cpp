// Tests for the GeoIP substitute and the trace substrate (records, stats,
// record codec, CSV export).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "geo/geoip.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen {
namespace {

using geo::GeoIpDatabase;
using geo::IpAllocator;
using geo::Region;

TEST(GeoIp, FormatAndParseRoundTrip) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "192.168.1.42"}) {
    const auto ip = geo::parse_ip(text);
    ASSERT_TRUE(ip.has_value()) << text;
    EXPECT_EQ(geo::format_ip(*ip), text);
  }
  EXPECT_FALSE(geo::parse_ip("256.1.1.1").has_value());
  EXPECT_FALSE(geo::parse_ip("1.2.3").has_value());
  EXPECT_FALSE(geo::parse_ip("1.2.3.4.5").has_value());
  EXPECT_FALSE(geo::parse_ip("a.b.c.d").has_value());
  EXPECT_FALSE(geo::parse_ip("1.2.3.4 ").has_value());
}

TEST(GeoIp, LongestPrefixMatchWins) {
  GeoIpDatabase db;
  db.add_prefix(*geo::parse_ip("10.0.0.0"), 8, Region::kNorthAmerica);
  db.add_prefix(*geo::parse_ip("10.1.0.0"), 16, Region::kEurope);
  db.add_prefix(*geo::parse_ip("10.1.2.0"), 24, Region::kAsia);
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.9.9.9")), Region::kNorthAmerica);
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.1.9.9")), Region::kEurope);
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.1.2.9")), Region::kAsia);
  EXPECT_FALSE(db.lookup(*geo::parse_ip("11.0.0.1")).has_value());
}

TEST(GeoIp, MaskingAppliedOnInsert) {
  GeoIpDatabase db;
  db.add_prefix(*geo::parse_ip("10.1.2.3"), 8, Region::kEurope);  // host bits set
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.200.200.200")), Region::kEurope);
}

TEST(GeoIp, SyntheticDatabaseCoversAllRegions) {
  const auto db = GeoIpDatabase::synthetic();
  for (Region r : geo::kAllRegions) {
    EXPECT_FALSE(db.prefixes_for(r).empty()) << geo::region_name(r);
  }
  // Spot checks against the documented allocation.
  EXPECT_EQ(db.lookup(*geo::parse_ip("24.10.20.30")), Region::kNorthAmerica);
  EXPECT_EQ(db.lookup(*geo::parse_ip("193.99.144.80")), Region::kEurope);
  EXPECT_EQ(db.lookup(*geo::parse_ip("202.12.27.33")), Region::kAsia);
  EXPECT_EQ(db.lookup(*geo::parse_ip("200.1.1.1")), Region::kOther);
}

TEST(GeoIp, AllocatorMintsAddressesThatResolveBack) {
  const auto db = GeoIpDatabase::synthetic();
  IpAllocator allocator(db);
  stats::Rng rng(5);
  for (Region r : geo::kAllRegions) {
    for (int i = 0; i < 200; ++i) {
      const auto ip = allocator.allocate(r, rng);
      EXPECT_EQ(db.lookup(ip), r) << geo::format_ip(ip);
    }
  }
}

TEST(GeoIp, AllocatorThrowsForUncoveredRegion) {
  GeoIpDatabase db;  // empty
  IpAllocator allocator(db);
  stats::Rng rng(6);
  EXPECT_THROW(allocator.allocate(Region::kAsia, rng), std::invalid_argument);
}

TEST(Region, NamesAndOffsets) {
  EXPECT_EQ(geo::region_name(Region::kNorthAmerica), "North America");
  EXPECT_LT(geo::region_local_offset_hours(Region::kNorthAmerica), 0.0);
  EXPECT_GT(geo::region_local_offset_hours(Region::kAsia), 0.0);
}

// ------------------------------------------------------------------ trace

trace::Trace sample_trace() {
  trace::Trace t;
  t.append(trace::SessionStart{10.0, 1, 0x18000001, true, "LimeWire/3.8.10"});
  t.append(trace::MessageEvent{11.0, 1, gnutella::MessageType::kQuery, 6, 1,
                               "free music", false, 0, 0});
  t.append(trace::MessageEvent{12.0, 1, gnutella::MessageType::kQuery, 5, 3,
                               "remote query", false, 0, 0});
  t.append(trace::MessageEvent{13.0, 1, gnutella::MessageType::kPong, 6, 2, "",
                               false, 0xC1000001, 17});
  t.append(trace::MessageEvent{14.0, 1, gnutella::MessageType::kPing, 1, 1, "",
                               false, 0, 0});
  t.append(trace::MessageEvent{14.5, 1, gnutella::MessageType::kQueryHit, 5, 2,
                               "", false, 0xC1000002, 0});
  t.append(trace::SessionEnd{80.0, 1, trace::EndReason::kIdleProbe});
  t.append(trace::SessionStart{20.0, 2, 0x3A000001, false, "mutella-0.4.3"});
  t.append(trace::SessionEnd{30.0, 2, trace::EndReason::kBye});
  return t;
}

TEST(Trace, StatsCountTable1Rows) {
  const auto stats = sample_trace().stats();
  EXPECT_EQ(stats.direct_connections, 2u);
  EXPECT_EQ(stats.ultrapeer_connections, 1u);
  EXPECT_EQ(stats.leaf_connections, 1u);
  EXPECT_EQ(stats.query_messages, 2u);
  EXPECT_EQ(stats.hop1_queries, 1u);
  EXPECT_EQ(stats.ping_messages, 1u);
  EXPECT_EQ(stats.pong_messages, 1u);
  EXPECT_EQ(stats.queryhit_messages, 1u);
  EXPECT_DOUBLE_EQ(stats.first_time, 10.0);
  EXPECT_DOUBLE_EQ(stats.last_time, 80.0);
}

// Record codec: every trace record — in a spool frame, the digest and
// the streaming pass — is decoded by trace::decode_event_binary.

std::string encode(const trace::TraceEvent& event) {
  std::string bytes;
  trace::append_event_binary(event, bytes);
  return bytes;
}

trace::TraceEvent decode(const std::string& bytes) {
  return trace::decode_event_binary(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
}

/// One record of each kind, every field set to a non-default value.
trace::MessageEvent full_message() {
  return trace::MessageEvent{15.25, 7, gnutella::MessageType::kQuery,
                             4,     2, "full fields",
                             true,  0xC1000003, 42,
                             0xDEADBEEF12345678ULL};
}

/// sample_trace() plus full_message(): the codec's test inputs.
std::vector<trace::TraceEvent> codec_inputs() {
  std::vector<trace::TraceEvent> events = sample_trace().events();
  events.emplace_back(full_message());
  return events;
}

/// Expects `what()` to contain `needle`.
void expect_message(const trace::TraceIoError& e, const std::string& needle) {
  EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
      << "'" << e.what() << "' lacks '" << needle << "'";
}

TEST(TraceIo, RecordRoundTripPreservesEveryField) {
  for (const trace::TraceEvent& event : codec_inputs()) {
    const std::string bytes = encode(event);
    EXPECT_EQ(encode(decode(bytes)), bytes);
  }
  const auto start = std::get<trace::SessionStart>(
      decode(encode(sample_trace().events()[0])));
  EXPECT_EQ(start.time, 10.0);
  EXPECT_EQ(start.session_id, 1u);
  EXPECT_EQ(start.ip, 0x18000001u);
  EXPECT_TRUE(start.ultrapeer);
  EXPECT_EQ(start.user_agent, "LimeWire/3.8.10");

  const auto msg = std::get<trace::MessageEvent>(decode(encode(full_message())));
  EXPECT_EQ(msg.time, 15.25);
  EXPECT_EQ(msg.session_id, 7u);
  EXPECT_EQ(msg.type, gnutella::MessageType::kQuery);
  EXPECT_EQ(msg.ttl, 4);
  EXPECT_EQ(msg.hops, 2);
  EXPECT_EQ(msg.query, "full fields");
  EXPECT_TRUE(msg.sha1);
  EXPECT_EQ(msg.source_ip, 0xC1000003u);
  EXPECT_EQ(msg.shared_files, 42u);
  EXPECT_EQ(msg.guid_hash, 0xDEADBEEF12345678ULL);

  const auto end = std::get<trace::SessionEnd>(
      decode(encode(sample_trace().events()[6])));
  EXPECT_EQ(end.time, 80.0);
  EXPECT_EQ(end.session_id, 1u);
  EXPECT_EQ(end.reason, trace::EndReason::kIdleProbe);
}

TEST(TraceIo, CutAtEveryByteThrowsWithTheCutOffset) {
  // Cutting a record at EVERY byte position must throw a TraceIoError at
  // the cut — never crash, never return a record — and say how many
  // bytes the field it was reading still needed.
  for (const trace::TraceEvent& event : codec_inputs()) {
    const std::string bytes = encode(event);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      try {
        (void)decode(bytes.substr(0, cut));
        ADD_FAILURE() << "record cut at " << cut << " of " << bytes.size()
                      << " bytes was accepted";
      } catch (const trace::TraceIoError& e) {
        EXPECT_EQ(e.byte_offset(), cut);
        expect_message(e, "truncated record");
        expect_message(e, "byte offset " + std::to_string(cut));
        const std::string what = e.what();
        const std::size_t at = what.find("needed ");
        ASSERT_NE(at, std::string::npos) << what;
        const std::size_t needed = std::stoul(what.substr(at + 7));
        EXPECT_GE(needed, 1u) << what;
        EXPECT_LE(cut + needed, bytes.size()) << what;
      }
    }
  }
  // A SessionEnd is [kind][time][session id][reason]: cut one byte into
  // the reason and exactly that byte is missing.
  const std::string end = encode(sample_trace().events()[6]);
  try {
    (void)decode(end.substr(0, end.size() - 1));
    FAIL() << "a SessionEnd without its reason byte was accepted";
  } catch (const trace::TraceIoError& e) {
    expect_message(e, "needed 1 more byte(s)");
  }
  // Cut 3 bytes into the 8-byte session id: 5 bytes are missing.
  try {
    (void)decode(end.substr(0, 1 + 8 + 3));
    FAIL() << "a SessionEnd without its session id was accepted";
  } catch (const trace::TraceIoError& e) {
    expect_message(e, "needed 5 more byte(s)");
  }
}

TEST(TraceIo, UnknownRecordKindIsRefused) {
  for (const char kind : {'\x00', '\x04', '\x7f'}) {
    std::string bytes = encode(sample_trace().events()[6]);
    bytes[0] = kind;
    try {
      (void)decode(bytes);
      FAIL() << "record kind " << static_cast<int>(kind) << " was accepted";
    } catch (const trace::TraceIoError& e) {
      EXPECT_EQ(e.byte_offset(), 0u);
      expect_message(e, "unknown record kind");
    }
  }
}

TEST(TraceIo, UnknownEndReasonNamesTheOffset) {
  std::string bytes = encode(sample_trace().events()[6]);
  bytes.back() = '\x7f';  // the reason byte
  try {
    (void)decode(bytes);
    FAIL() << "an unknown end reason was accepted";
  } catch (const trace::TraceIoError& e) {
    EXPECT_EQ(e.byte_offset(), bytes.size() - 1);
    expect_message(e, "unknown end reason");
    expect_message(e, "byte offset " + std::to_string(bytes.size() - 1));
  }
}

TEST(TraceIo, OversizedStringIsRefused) {
  // The u32 length prefix of SessionStart::user_agent sits after
  // [kind][time][session id][ip][ultrapeer]; MessageEvent::query's after
  // [kind][time][session id][type][ttl][hops][guid hash].
  const std::uint32_t oversized = (1u << 20) + 1;
  const std::pair<trace::TraceEvent, std::size_t> cases[] = {
      {sample_trace().events()[0], 1 + 8 + 8 + 4 + 1},
      {full_message(), 1 + 8 + 8 + 1 + 1 + 1 + 8},
  };
  for (const auto& [event, length_at] : cases) {
    std::string bytes = encode(event);
    std::memcpy(bytes.data() + length_at, &oversized, sizeof(oversized));
    try {
      (void)decode(bytes);
      FAIL() << "an oversized string was accepted";
    } catch (const trace::TraceIoError& e) {
      EXPECT_EQ(e.byte_offset(), length_at);
      expect_message(e, "oversized string");
    }
  }
}

TEST(TraceIo, TrailingBytesAreRefused) {
  for (const trace::TraceEvent& event : codec_inputs()) {
    const std::string bytes = encode(event);
    try {
      (void)decode(bytes + "xy");
      FAIL() << "a record with trailing bytes was accepted";
    } catch (const trace::TraceIoError& e) {
      EXPECT_EQ(e.byte_offset(), bytes.size());
      expect_message(e, "2 trailing byte(s)");
    }
  }
}

TEST(TraceIo, CsvHasHeaderAndOneRowPerEvent) {
  const auto t = sample_trace();
  std::stringstream out;
  trace::write_csv(t, out);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(out, line)) ++rows;
  EXPECT_EQ(rows, t.size() + 1);
}

}  // namespace
}  // namespace p2pgen
