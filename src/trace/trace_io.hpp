// p2pgen — trace record codec.
//
// The one binary encoding of a TraceEvent, with exact round-trip
// semantics.  The only trace file is the durable spool (trace/spool.hpp),
// which frames and checksums each record individually; the byte-identity
// digest hashes a "P2PT" stream header (magic + version) followed by the
// same records.  CSV export serves ad-hoc inspection
// (examples/trace_inspector).
#pragma once

#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace p2pgen::trace {

/// Thrown on truncated or corrupt trace input.  Carries the byte offset
/// at which the malformation was detected, so a damaged record can be
/// diagnosed instead of failing with a context-free error.
class TraceIoError : public std::runtime_error {
 public:
  TraceIoError(const std::string& what, std::uint64_t byte_offset)
      : std::runtime_error(what), byte_offset_(byte_offset) {}

  /// Offset (bytes from the start of the record or segment) of the failure.
  std::uint64_t byte_offset() const noexcept { return byte_offset_; }

 private:
  std::uint64_t byte_offset_;
};

/// One quarantined byte range of a damaged spool segment.  Every recovery
/// path in the repo — the spool salvage reader, the streaming analysis
/// and the checkpoint layer — accounts loss in this one shape, so byte
/// offsets mean the same thing everywhere.
struct SalvageRange {
  std::string file;    ///< segment file basename
  unsigned shard = 0;  ///< filled in by multi-shard consumers
  std::uint64_t byte_begin = 0;   ///< offset of the first damaged byte
  std::uint64_t byte_end = 0;     ///< resync point (one past the damage)
  /// Frames skipped inside [byte_begin, byte_end).  Exact when the
  /// damaged frame's length header survived (payload/CRC corruption);
  /// otherwise a lower bound — resync cannot count boundaries it never
  /// saw.  At least 1 for every range.
  std::uint64_t frames_lost = 0;
  /// Inferred sim-time gap window: the time of the last valid record
  /// before the damage (0 when the damage starts before any record) and
  /// of the first valid record after it (+inf when the damage ran to the
  /// end of the stream).  NaN only transiently inside the segment reader,
  /// before SalvageAssembler patches across segment boundaries.
  double time_before = 0.0;
  double time_after = std::numeric_limits<double>::infinity();
  std::string detail;  ///< what the decoder said about the first bad frame
};

/// Unified loss accounting for a salvaged read.  damaged() == false means
/// the read was bit-identical to a strict one.
struct SalvageReport {
  std::uint64_t records_recovered = 0;  ///< valid records fed downstream
  std::uint64_t frames_lost = 0;        ///< sum over ranges (lower bound)
  std::uint64_t bytes_quarantined = 0;  ///< sum of range byte widths
  std::vector<SalvageRange> ranges;     ///< in (shard, file, byte) order
  /// Gap-censoring counts, filled by the analysis layer: sessions whose
  /// lifetime intersects a gap window are excluded from filter rules and
  /// fits, counted here instead of silently mixed in.
  std::uint64_t censored_sessions = 0;
  std::uint64_t censored_queries = 0;

  bool damaged() const noexcept { return !ranges.empty(); }

  /// Folds `other` (a per-shard report) onto this one, tagging its
  /// ranges with `shard`.  Call in ascending shard order so the combined
  /// range list stays in (shard, file, byte) order.
  void merge_shard(SalvageReport&& other, unsigned shard);
};

/// Appends the binary encoding of one event to `out`.  The one record
/// encoder: binary_digest, the durable spool (trace/spool.hpp, which
/// frames and checksums each record individually), the checkpoint replay
/// check and the streaming digest all encode through it.
void append_event_binary(const TraceEvent& event, std::string& out);

/// Appends the stream header ("P2PT" magic + version) to `out` — the
/// bytes binary_digest() hashes before the first record.  Lets the
/// streaming analysis fold header-then-records into the same FNV-1a
/// digest, without materializing a Trace.
void append_header_binary(std::string& out);

/// Decodes one record produced by append_event_binary.  Throws
/// TraceIoError (with the offset within the record) on malformed or
/// truncated input, or if the buffer holds trailing bytes beyond the one
/// record.
TraceEvent decode_event_binary(const std::uint8_t* data, std::size_t size);

/// CSV export (one row per event, header included).
void write_csv(const Trace& trace, std::ostream& out);

/// FNV-1a hash of the stream header followed by every record, computed
/// streamingly (the encoded bytes are never materialized).  Two traces
/// have equal digests iff their record encodings are identical — the
/// cheap byte-identity check used by the determinism tests and the
/// parallel-scaling bench.
std::uint64_t binary_digest(const Trace& trace);

}  // namespace p2pgen::trace
