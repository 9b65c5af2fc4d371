// p2pgen — query-lifecycle tracing (observability layer, DESIGN.md §12).
//
// Causal hop-by-hop traces of individual queries through the overlay:
// for a deterministically sampled subset of queries, every place a QUERY
// (or its QUERYHIT answer) is emitted, received, forwarded, or dropped
// records one QueryHopEvent, so a sampled query's whole journey — how
// far it propagated, where the fault layer or a degradation valve killed
// it, how long its hit took to come back — can be reconstructed after
// the run.  The aggregate counters of PR 3 say *how many* queries were
// dropped; qtrace says *which* and *where*.
//
// Design constraints, in the repo's usual order:
//
//   1. *Deterministic sampling, no RNG.*  A query is sampled iff an
//      FNV-1a mix of its GUID hash falls below sample_rate * 2^64.  The
//      decision is a pure function of (query, rate): identical across
//      thread counts, shard merges, checkpoint resume and the streaming
//      replay — the same queries are traced everywhere.
//   2. *Strictly observational.*  Recording never feeds back into the
//      simulation: a run with tracing at any rate is byte-identical
//      (trace::binary_digest) to a run without the subsystem.
//   3. *Zero-cost when disabled.*  sample_rate = 0 constructs nothing;
//      every instrumentation site is a single null-pointer check.
//   4. *Deterministic merge.*  Per-shard buffers are merged in the same
//      stable (time, shard index, position) order trace::merge_traces
//      uses, so the merged event stream — and every aggregate derived
//      from it — is bit-identical at any thread count.
//
// Like the rest of obs/, this header depends on nothing but the C++
// standard library: callers pass the query key as a plain integer (the
// gnutella::GuidHash of the message GUID) so the obs layer stays at the
// bottom of the link graph.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace p2pgen::obs {

/// Tracing knobs carried by TraceSimulationConfig.  Deliberately NOT part
/// of simulation_config_digest: tracing is observational, so two configs
/// differing only here still produce the same trace (and may share bench
/// caches and durable-run identities).
struct QtraceConfig {
  /// Fraction of queries traced, [0, 1].  0 disables the subsystem
  /// entirely; 1 traces every query.  The sampled set at rate r is a
  /// superset of the sampled set at every r' < r.
  double sample_rate = 0.0;

  /// Events before this simulation time are dropped (the warm-up gate —
  /// set by TraceSimulation to match the trace's own gate, not by users).
  double gate_time = 0.0;
};

/// One step of a sampled query's journey.  Values are wire-stable: they
/// are written to the qtrace sidecar files, so renumbering is a format
/// break (bump kQtraceFormatVersion).
enum class QueryHop : std::uint8_t {
  kQueryEmitted = 0,    ///< a peer put the QUERY on the wire
  kQueryReceived = 1,   ///< the measurement node decoded + recorded it
  kForwarded = 2,       ///< node forwarded it to one neighbor (one per send)
  kDuplicateDropped = 3,///< GUID already in the routing table: not forwarded
  kTtlExpired = 4,      ///< arrived with TTL 0: not forwardable
  kQrpSuppressed = 5,   ///< leaf skipped on a QRP table miss
  kShed = 6,            ///< degradation valve dropped it before any work
  kDropLoss = 7,        ///< fault layer lost the descriptor on the wire
  kCorrupted = 8,       ///< fault layer damaged the wire bytes in flight
  kDropDeadLink = 9,    ///< swallowed by a half-open link / crashed sender
  kHitEmitted = 10,     ///< a peer answered with a QUERYHIT
  kHitReceived = 11,    ///< the node decoded + recorded the QUERYHIT
  kHitReturned = 12,    ///< node reverse-routed the hit toward the querier
};
inline constexpr std::size_t kQueryHopCount = 13;

/// Stable lower_snake_case name of a hop kind (metric suffixes, JSON).
const char* query_hop_name(QueryHop hop) noexcept;

/// One recorded hop.  40 bytes; buffers hold millions at full sampling.
struct QueryHopEvent {
  double time = 0.0;         ///< simulation seconds
  std::uint64_t query = 0;   ///< gnutella::GuidHash of the query's GUID
  std::uint32_t shard = 0;   ///< shard index; assigned by merge_by_time
  QueryHop hop = QueryHop::kQueryEmitted;
  std::uint8_t ttl = 0;
  std::uint8_t hops = 0;
  /// kHitReturned: end-to-end latency in seconds since the query's first
  /// emission, or -1 when the emission was never observed.  -1 otherwise.
  double value = -1.0;
};

bool operator==(const QueryHopEvent& a, const QueryHopEvent& b) noexcept;

/// The deterministic sampling decision by itself: true iff `query` is
/// traced at `sample_rate`.  Pure; identical on every platform.
bool qtrace_sampled(std::uint64_t query, double sample_rate) noexcept;

/// Per-shard hop recorder.  Single-threaded like the shard simulation it
/// instruments; TraceSimulation owns one per run and hands the raw
/// pointer to the transport and the measurement node.  Only constructed
/// when sample_rate > 0, so instrumentation sites gate on the pointer.
class QueryTracer {
 public:
  explicit QueryTracer(const QtraceConfig& config);

  bool sampled(std::uint64_t query) const noexcept;

  /// Appends one hop (dropped while time < gate_time).
  void record(double time, std::uint64_t query, QueryHop hop,
              std::uint8_t ttl, std::uint8_t hops, double value = -1.0);

  /// kQueryEmitted plus the latency bookkeeping: the FIRST emission of a
  /// query starts its end-to-end clock (kept across the warm-up gate so
  /// a post-gate hit of a pre-gate query still gets a latency).
  void record_query_emitted(double time, std::uint64_t query,
                            std::uint8_t ttl, std::uint8_t hops);

  /// Seconds since the query's first observed emission; -1 if unseen.
  double latency_since_emit(std::uint64_t query, double now) const noexcept;

  const std::vector<QueryHopEvent>& events() const noexcept { return events_; }
  std::vector<QueryHopEvent> take() noexcept { return std::move(events_); }

 private:
  std::uint64_t threshold_ = 0;  ///< sampled iff mix(query) < threshold_
  bool always_ = false;          ///< sample_rate >= 1
  double gate_ = 0.0;
  std::vector<QueryHopEvent> events_;
  std::unordered_map<std::uint64_t, double> first_emit_;
};

/// FNV-1a over the serialized event stream: the bit-identity handle the
/// determinism tests and the qtrace-overhead CI job compare.
std::uint64_t qtrace_digest(const std::vector<QueryHopEvent>& events) noexcept;

/// Registers and fills the derived aggregates in the global registry:
/// per-hop counters ("qtrace.received.query", "qtrace.drop.loss", ...),
/// "qtrace.sampled_queries", and the hop-count / fan-out / hit-latency
/// histograms.  Call exactly once per analysis with the MERGED stream —
/// aggregation over the merged order is what makes the numbers identical
/// at any thread count, and it is what lets the streaming path reproduce
/// them exactly from the sidecar files.
void publish_qtrace_metrics(const std::vector<QueryHopEvent>& merged);

/// "<shard_dir>/qtrace.bin" — the per-shard sidecar the durable runner
/// writes next to the trace spool and the streaming pass reads back.
std::string qtrace_sidecar_path(const std::string& shard_dir);

/// Writes the sidecar atomically (tmp + rename).  An empty event list
/// still writes a valid zero-count file: its presence is how readers know
/// tracing was enabled for the run.
void save_qtrace(const std::string& path,
                 const std::vector<QueryHopEvent>& events);

/// Loads a sidecar into `out` (replacing its contents).  Returns false —
/// leaving `out` empty — when the file does not exist (a checkpoint from
/// before tracing, or a run with tracing off).  Throws std::runtime_error
/// on a malformed file.
bool load_qtrace(const std::string& path, std::vector<QueryHopEvent>& out);

/// One JSON object {"qtrace":[...]} with one record per hop event — the
/// measurement_pipeline --query-trace dump, stable field order.
void write_qtrace_json(std::ostream& out,
                       const std::vector<QueryHopEvent>& events);

/// chrome://tracing fragments for the merged stream: one "X" slice per
/// hop (pid 2, tid = shard, ts = simulation microseconds) plus "s"/"t"/
/// "f" flow events chaining each sampled query's hops into one arrow
/// path across shards.  Emits nothing for an empty stream; meant to be
/// passed to TraceLog::write_chrome_json as the extra-events writer.
void write_qtrace_flow_events(std::ostream& out,
                              const std::vector<QueryHopEvent>& events,
                              bool any_prior);

}  // namespace p2pgen::obs
