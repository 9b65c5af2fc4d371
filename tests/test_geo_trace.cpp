// Tests for the GeoIP substitute and the trace substrate (records, stats,
// binary/CSV serialization).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

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

TEST(TraceIo, BinaryRoundTripPreservesEverything) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  const auto loaded = trace::read_binary(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(trace::event_time(loaded.events()[i]),
              trace::event_time(original.events()[i]));
  }
  // Spot-check full field preservation on one of each kind.
  const auto& start = std::get<trace::SessionStart>(loaded.events()[0]);
  EXPECT_EQ(start.user_agent, "LimeWire/3.8.10");
  EXPECT_TRUE(start.ultrapeer);
  EXPECT_EQ(start.ip, 0x18000001u);
  const auto& msg = std::get<trace::MessageEvent>(loaded.events()[1]);
  EXPECT_EQ(msg.query, "free music");
  EXPECT_EQ(msg.hops, 1);
  const auto& end = std::get<trace::SessionEnd>(loaded.events()[6]);
  EXPECT_EQ(end.reason, trace::EndReason::kIdleProbe);
}

TEST(TraceIo, RejectsCorruptHeader) {
  std::stringstream buffer;
  buffer << "NOPE";
  EXPECT_THROW(trace::read_binary(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedBody) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() - 3);
  std::stringstream cut(data);
  EXPECT_THROW(trace::read_binary(cut), std::runtime_error);
}

TEST(TraceIo, TruncationAtEveryByteFailsCleanlyOrShortens) {
  // Round-trip with truncation: cutting the stream at EVERY byte position
  // must either parse as a valid shorter trace (cut exactly at a record
  // boundary) or throw a TraceIoError whose offset points inside the file
  // — never crash, never return garbage.
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  const std::string data = buffer.str();
  std::size_t clean_cuts = 0;
  std::size_t failed_cuts = 0;
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    std::stringstream in(data.substr(0, cut));
    try {
      const auto loaded = trace::read_binary(in);
      ++clean_cuts;
      EXPECT_LT(loaded.size(), original.size()) << "cut at " << cut;
    } catch (const trace::TraceIoError& e) {
      ++failed_cuts;
      EXPECT_LE(e.byte_offset(), cut) << "cut at " << cut;
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
    }
  }
  // Both outcomes occur: record boundaries read as shorter traces, cuts
  // inside a record are diagnosed.
  EXPECT_EQ(clean_cuts, original.size());  // one boundary per record
  EXPECT_GT(failed_cuts, 0u);
}

TEST(TraceIo, UnknownRecordKindNamesTheOffset) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  std::string data = buffer.str();
  data[8] = '\x7f';  // first record-kind byte (after 8-byte header)
  std::stringstream in(data);
  try {
    trace::read_binary(in);
    FAIL() << "corrupt record kind was accepted";
  } catch (const trace::TraceIoError& e) {
    EXPECT_EQ(e.byte_offset(), 8u);
    EXPECT_NE(std::string(e.what()).find("unknown record kind"),
              std::string::npos);
  }
}

TEST(TraceIo, UnknownEndReasonNamesTheOffset) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  std::string data = buffer.str();
  data.back() = '\x7f';  // the final SessionEnd's reason byte
  std::stringstream in(data);
  try {
    trace::read_binary(in);
    FAIL() << "an unknown end reason was accepted";
  } catch (const trace::TraceIoError& e) {
    EXPECT_EQ(e.byte_offset(), data.size() - 1);
    EXPECT_NE(std::string(e.what()).find("unknown end reason"),
              std::string::npos);
  }
}

TEST(TraceIo, LoadBinaryPrefixesPathOnError) {
  const std::string path = ::testing::TempDir() + "/p2pgen_trace_cut.bin";
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() - 3);  // mid-record truncation
  {
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  try {
    trace::load_binary(path);
    FAIL() << "truncated file was accepted";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_GT(e.byte_offset(), 0u);
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

TEST(TraceIo, FileRoundTripViaWriterSink) {
  const std::string path = ::testing::TempDir() + "/p2pgen_trace_test.bin";
  const auto original = sample_trace();
  {
    trace::BinaryTraceWriter writer(path);
    for (const auto& event : original.events()) writer.on_event(event);
    writer.close();
    EXPECT_EQ(writer.events_written(), original.size());
    EXPECT_THROW(writer.on_event(original.events()[0]), std::logic_error);
  }
  const auto loaded = trace::load_binary(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.stats().direct_connections, 2u);
}

}  // namespace
}  // namespace p2pgen
