// p2pgen — durable trace spool (DESIGN.md §9).
//
// An append-only, segmented, CRC32-framed record log: the redo log the
// crash-recoverable pipeline streams every shard's trace events into.
// The paper's measurement node ran unattended for 40 days; a faithful
// long-running reproduction must survive process death mid-run, so every
// event is framed as
//
//   [u32 payload length][u32 CRC32(payload)][payload]
//
// inside numbered segment files ("P2PS" magic), and a recovery scan on
// open validates every frame in order.  A SIGKILL can tear at most the
// tail of the *last* segment: the scan truncates the torn frame(s) and
// the writer resumes appending cleanly.  Damage to an interior segment
// is not a tail — records after it would silently go missing — so it is
// a hard error, exactly like the strict trace reader.
//
// The payload of each frame is the single-record binary encoding of one
// TraceEvent (trace_io's append_event_binary), so a spool is a durable,
// per-record-checksummed form of the same stream save_binary writes.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/fnv.hpp"

namespace p2pgen::trace {

struct SegmentReadResult;  // spool_reader.hpp

/// FNV-1a 64-bit (util/fnv.hpp), the digest the whole repo uses for
/// byte-identity; re-exported here, where the spool digests use it.
using util::fnv1a_update;
using util::kFnvOffsetBasis;

struct SpoolConfig {
  /// Records per segment before the writer rolls to a new file.
  std::uint64_t segment_max_records = 1u << 20;
  /// fsync the current segment every this many appended records.
  /// 0: sync only on explicit sync()/close() — fastest, but a crash can
  /// lose everything since the last sync.
  std::uint64_t sync_interval_records = 0;
};

/// What the recovery scan found (and possibly repaired).
struct SpoolRecoveryReport {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_recovered = 0;  ///< valid frames across all segments
  std::uint64_t records_truncated = 0;  ///< damaged tail frames dropped (0 or 1)
  std::uint64_t bytes_truncated = 0;    ///< bytes dropped from the torn tail
  std::uint64_t first_bad_offset = 0;   ///< offset within bad_segment
  std::string bad_segment;              ///< path of the torn segment ("" if clean)
  bool torn = false;
};

/// Result of scanning a spool directory.
struct SpoolScan {
  std::uint64_t records = 0;
  /// FNV-1a over every valid frame payload, in order — the digest the
  /// checkpoint layer compares a deterministic replay against.
  std::uint64_t payload_digest = kFnvOffsetBasis;
  SpoolRecoveryReport report;
  std::vector<std::string> segments;        ///< segment paths, in order
  std::vector<std::uint64_t> segment_records;  ///< valid records per segment
};

/// Validates every frame of every segment under `dir` (created if
/// missing).  With `truncate_tail`, a torn tail of the last segment is
/// physically truncated so the spool is clean for appending.  Throws
/// TraceIoError if an *interior* segment is damaged.
SpoolScan scan_spool(const std::string& dir, bool truncate_tail);

/// Reads the spool's valid record prefix back as a Trace.  Never throws
/// on a torn tail (the report says what was dropped); throws TraceIoError
/// on interior damage or an undecodable (CRC-valid but malformed) record.
Trace read_spool(const std::string& dir, SpoolRecoveryReport* report = nullptr);

/// Salvage-mode spool read (DESIGN.md §14): interior damage — corrupt
/// frames, damaged headers, even whole missing segment files — is
/// resynced past and quarantined instead of thrown.  Every lost byte
/// range lands in `report` with its inferred sim-time gap window.  On a
/// clean spool the returned trace and its digest are bit-identical to
/// read_spool()'s and report->damaged() is false.
Trace read_spool_salvage(const std::string& dir,
                         SalvageReport* report = nullptr);

/// Stitches per-segment salvage results into one spool-level report.
/// Feed segments in stream (index) order; gap time windows that touch a
/// segment boundary (NaN ends from the segment reader) are patched from
/// the neighboring segments' boundary record times.  finish() closes any
/// still-open window at +inf (the damage ran to the end of the spool).
/// Used by both spool paths — read_spool_salvage() and the streaming
/// analysis — so the two report identical gaps for identical damage.
class SalvageAssembler {
 public:
  /// Accounts one segment read in salvage mode (in index order).
  void add_segment(const SegmentReadResult& segment);

  /// Accounts a whole missing segment file as one unbounded-loss gap.
  void add_missing_segment(const std::string& basename);

  /// Closes open gap windows and returns the assembled report.
  SalvageReport finish();

  /// Peek at the report assembled so far (open windows still carry NaN
  /// ends).  The streaming pass censors sessions against this mid-run;
  /// any window discovered after a session ends starts at or after that
  /// session's end, so the mid-run view and the finished view give the
  /// same overlap verdicts.
  const SalvageReport& report() const noexcept { return report_; }

 private:
  SalvageReport report_;
  double last_time_ = 0.0;  ///< last decodable record time seen so far
  bool have_last_time_ = false;
  std::vector<std::size_t> open_;  ///< ranges still awaiting a time_after
};

/// Truncates the spool to its longest clean prefix: the first damaged or
/// missing frame and *everything after it* (including later segments) is
/// removed, so a deterministic replay can regenerate the rest.  Returns
/// the number of bytes dropped.  The checkpoint layer uses this for
/// damaged spools of *unfinished* shards, where re-simulation recovers
/// the loss exactly instead of leaving a gap.
std::uint64_t truncate_spool_to_valid_prefix(const std::string& dir);

/// Thrown by SpoolWriter on a failed/short write or sync.  Carries errno
/// so the checkpoint layer can tell disk-full (ENOSPC) from other media
/// errors and turn it into a clean checkpoint-and-stop.
class SpoolWriteError : public std::runtime_error {
 public:
  SpoolWriteError(const std::string& what, int error_code)
      : std::runtime_error(what), error_code_(error_code) {}

  /// The errno captured at the failure site (0 when unavailable).
  int error_code() const noexcept { return error_code_; }

 private:
  int error_code_;
};

/// Append handle on a spool directory.  Construction runs the recovery
/// scan (truncating a torn tail) and positions after the last valid
/// record; on_event/append then frame, checksum and buffer each record,
/// and sync() (or the configured interval) makes them durable with
/// fflush + fsync.  Also usable directly as a TraceSink.
class SpoolWriter : public TraceSink {
 public:
  explicit SpoolWriter(std::string dir, SpoolConfig config = {});
  ~SpoolWriter() override;

  SpoolWriter(const SpoolWriter&) = delete;
  SpoolWriter& operator=(const SpoolWriter&) = delete;

  void on_event(const TraceEvent& event) override { append(event); }
  void append(const TraceEvent& event);

  /// Flushes buffered frames and fsyncs the current segment.
  void sync();

  /// sync() + close the segment file; further appends throw.
  void close();

  /// Valid records found on disk when the writer opened.
  std::uint64_t durable_records() const noexcept { return open_records_; }
  /// FNV-1a payload digest of those records (see SpoolScan).
  std::uint64_t open_digest() const noexcept { return open_digest_; }
  /// durable_records() + records appended through this writer.
  std::uint64_t records() const noexcept { return open_records_ + appended_; }
  /// The open-time recovery scan's findings.
  const SpoolRecoveryReport& recovery() const noexcept { return recovery_; }

 private:
  void open_segment(std::size_t index, bool fresh);
  void roll_if_needed();

  struct Impl;
  std::unique_ptr<Impl> impl_;
  SpoolConfig config_;
  std::string dir_;
  SpoolRecoveryReport recovery_;
  std::uint64_t open_records_ = 0;
  std::uint64_t open_digest_ = kFnvOffsetBasis;
  std::uint64_t appended_ = 0;
  std::uint64_t current_segment_records_ = 0;
  std::uint64_t unsynced_ = 0;
  std::size_t segment_index_ = 0;
  std::string frame_buf_;
  bool closed_ = false;
};

}  // namespace p2pgen::trace
