// p2pgen — deterministic checkpoint / resume for sharded simulations.
//
// The simulator's event queue holds arbitrary closures, so a literal
// state snapshot is impossible.  Durability instead comes from the
// determinism contract (sharded_simulation.hpp): every shard is a pure
// function of (model, config, shard_index), so the durable trace spool
// (trace/spool.hpp) acts as a redo log.  Each shard streams its events
// into an fsync'd per-shard spool; a MANIFEST records the run identity
// and which shards finished.  After a crash — SIGKILL included — resume
//
//   * loads finished shards wholly from their spools (no re-simulation),
//   * re-simulates unfinished shards from scratch, digest-verifying the
//     replayed prefix against the durable prefix recovered from the
//     spool, then appending beyond it,
//
// and the merged trace is byte-identical to an uninterrupted run, at any
// thread count.  A torn spool tail (the unsynced final frame) is
// truncated by the recovery scan; at most that one record is re-written
// by replay, never lost.
#pragma once

#include <string>
#include <vector>

#include "behavior/sharded_simulation.hpp"
#include "trace/spool.hpp"

namespace p2pgen::behavior {

/// Where and how often the durable run persists state.
struct DurabilityConfig {
  /// Checkpoint directory; holds MANIFEST plus one spool directory per
  /// shard ("shard-NNNN/").  Created if missing.
  std::string dir;

  /// fsync the shard spool every this many appended records.  0 syncs
  /// only at shard completion (fastest, loses the whole unfinished shard
  /// on a crash — it is re-simulated, so nothing is wrong, just slower).
  std::uint64_t sync_interval_records = 65536;

  /// Records per spool segment before the writer rolls to a new file.
  /// Segments are the streaming analysis's unit of memory (a decode wave
  /// holds ~thread-count of them) AND its unit of parallelism, so durable
  /// spools default to much smaller segments than the raw SpoolConfig:
  /// big enough to amortize the per-file cost, small enough that a
  /// multi-day shard spans many of them.
  std::uint64_t segment_max_records = std::uint64_t{1} << 16;

  /// Require an existing, identity-matching MANIFEST (the --resume flag):
  /// resuming against a different model/config/shard-count is refused
  /// instead of silently producing a franken-trace.
  bool resume = false;

  /// Wall-clock run-health channel (DESIGN.md §13): when > 0, a
  /// background thread rewrites "<dir>/heartbeat.json" atomically every
  /// this many wall-seconds with per-shard sim-time progress, events/sec,
  /// current + peak RSS and an ETA — what tools/runwatch.py tails while a
  /// long run is going.  Wall-clock and therefore never deterministic;
  /// it shares the observational contract (0 = off = byte-identical).
  double heartbeat_interval_seconds = 0.0;

  /// Salvage mode (DESIGN.md §14): tolerate media damage with bounded,
  /// *accounted* loss instead of refusing to run.  A damaged spool of an
  /// unfinished shard is truncated to its clean prefix and re-simulated
  /// (no loss at all); a damaged spool of a *finished* shard is read in
  /// salvage mode — the lost frames and their sim-time gap windows land
  /// in RecoverySummary::salvage for the analysis layer to censor
  /// against.  With zero damage this path is bit-identical to the
  /// default strict one.
  bool salvage = false;
};

/// What recovery found and did, summed over shards.
struct RecoverySummary {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_recovered = 0;   ///< valid records found in spools
  std::uint64_t records_truncated = 0;   ///< torn tail frames dropped
  std::uint64_t bytes_truncated = 0;
  std::uint64_t events_replayed = 0;     ///< prefix events re-simulated
  std::uint64_t checkpoints_written = 0; ///< durable sync points persisted
  std::uint64_t checkpoints_loaded = 0;  ///< shards with recovered state
  std::uint64_t shards_completed_prior = 0;  ///< loaded wholly from spool
  std::uint64_t sidecars_rebuilt = 0;    ///< damaged sidecars regenerated
  std::uint64_t spools_reset = 0;  ///< damaged unfinished spools truncated
  /// Loss accounting from salvage-mode reads of finished shards' spools
  /// (ranges tagged with their shard; empty when nothing was damaged).
  trace::SalvageReport salvage;
};

/// Thrown when the durable run checkpoints and stops *cleanly* instead
/// of crashing — disk full (ENOSPC) or another unrecoverable write error
/// on the redo log.  Everything written so far is durable, the MANIFEST
/// carries the machine-readable reason() ("enospc" / "io-error"), and a
/// later --resume continues exactly where the run stopped.
class CheckpointStopped : public std::runtime_error {
 public:
  CheckpointStopped(const std::string& what, std::string reason)
      : std::runtime_error(what), reason_(std::move(reason)) {}

  const std::string& reason() const noexcept { return reason_; }

 private:
  std::string reason_;
};

/// Machine-readable state of a checkpoint directory, as recorded in its
/// MANIFEST — what tools/runwatch.py and tools/supervise.py key off.
struct CheckpointStatus {
  unsigned n_shards = 0;
  unsigned shards_done = 0;
  bool complete = false;      ///< every shard marked done
  std::string stop_reason;    ///< "" unless the run stopped cleanly
  std::string stop_detail;    ///< human-readable failure site
};

/// Reads the MANIFEST under `dir`.  Throws std::runtime_error when there
/// is no checkpoint there or the manifest is malformed.
CheckpointStatus read_checkpoint_status(const std::string& dir);

/// Records a clean-stop reason in the MANIFEST (atomic rewrite).  The
/// durable runner calls this when it stops on a write error; exposed so
/// tests and tools can exercise the same path.  Resuming clears it.
void write_checkpoint_stop_reason(const std::string& dir,
                                  const std::string& reason,
                                  const std::string& detail);

/// Identity of a durable run: FNV-1a over the serialized model, every
/// simulation-config field that influences the trace, the fault-layer
/// digest and the shard count.  Two runs merge-compatibly iff equal.
std::uint64_t run_identity_digest(const core::WorkloadModel& model,
                                  const TraceSimulationConfig& config,
                                  unsigned n_shards);

/// True when `dir` holds a MANIFEST from a previous durable run.
bool checkpoint_exists(const std::string& dir);

/// Drop-in durable variant of simulate_trace_sharded: same merged trace,
/// byte-identical to the non-durable path, but every shard's events are
/// spooled to disk and completed shards are recorded in the MANIFEST so
/// a killed run resumes instead of restarting.  Publishes "recovery.*"
/// counters to the obs registry.  Throws std::runtime_error when
/// `durability.resume` is set but no checkpoint exists, or when the
/// existing checkpoint's identity does not match (model/config/shards).
///
/// Query-lifecycle tracing (base.qtrace.sample_rate > 0): each shard's
/// hop events are written to a "qtrace.bin" sidecar next to its spool,
/// fsync'd with its directory before the MANIFEST marks the shard done
/// (obs/sidecars.hpp), and done shards load theirs back on resume — so
/// the merged stream (published to the obs registry; optionally returned
/// via `qtrace`) is identical whether or not the run was interrupted.  A done shard without a sidecar (written
/// before tracing, or at rate 0) contributes no events; keep the
/// sampling flags consistent across resume for meaningful aggregates.
///
/// Sim-time timelines (base.timeline.tick_seconds > 0) follow the exact
/// same sidecar protocol with "timeline.bin": made durable before the
/// shard is marked done, reloaded for done shards on resume, merged
/// in (time, shard) order and published — identical across interruption.
trace::Trace simulate_trace_durable(
    const core::WorkloadModel& model, const TraceSimulationConfig& base,
    unsigned n_shards, unsigned n_threads, const DurabilityConfig& durability,
    RecoverySummary* summary = nullptr, std::vector<ShardStats>* stats = nullptr,
    std::vector<obs::QueryHopEvent>* qtrace = nullptr,
    std::vector<obs::TimelinePoint>* timeline = nullptr);

/// The durable run without the merge: every shard's events end up in its
/// fsync'd spool (resume semantics identical to simulate_trace_durable),
/// but NO shard trace is materialized in memory — the producer half of
/// the streaming pipeline, whose peak RSS must stay O(one shard's live
/// simulation), not O(trace).  Shards already marked done in the MANIFEST
/// are not even re-read here; the streaming analysis validates their
/// spools in its own single pass.  Returns the per-shard spool
/// directories in shard order (what analyze_spools expects).
std::vector<std::string> simulate_to_spools(
    const core::WorkloadModel& model, const TraceSimulationConfig& base,
    unsigned n_shards, unsigned n_threads, const DurabilityConfig& durability,
    RecoverySummary* summary = nullptr,
    std::vector<ShardStats>* stats = nullptr);

/// Per-shard spool directories of a checkpoint ("<dir>/shard-NNNN"), in
/// shard order.  Pure path arithmetic; nothing is read.
std::vector<std::string> checkpoint_shard_dirs(const std::string& dir,
                                               unsigned n_shards);

}  // namespace p2pgen::behavior
