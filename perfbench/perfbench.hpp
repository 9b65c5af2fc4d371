// perfbench — the simulate->analyze benchmark (shared declarations).
//
// Three workloads run the p2pgen pipeline through its public entry
// points, 4 shards on min(kMaxThreads, nproc) threads:
//
//   materialized-clean   simulate_trace_sharded -> binary_digest ->
//                        build_dataset -> apply_filters ->
//                        session_measures -> fit_appendix_tables +
//                        fit_workload_model (clean overlay)
//   durable-streaming    simulate_to_spools -> analyze_spools (hostile
//                        overlay, 600 s timeline ticks)
//   reanalyze-streaming  analyze_spools over a finished checkpoint of the
//                        durable-streaming config
//
// The benchmark is a batch job: each pass is one closed pipeline from
// config to fitted model.  The simulated users' open-loop arrivals are
// part of the input (arrival_rate), not a load generator of ours.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/model_fit.hpp"
#include "behavior/trace_simulation.hpp"
#include "core/model.hpp"
#include "obs/span.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using namespace p2pgen;

enum class Workload { kMaterializedClean, kDurableStreaming, kReanalyzeStreaming };

/// Shards per pass: the pipeline shape every workload shares.
inline constexpr unsigned kShards = 4;

/// Most threads a pass runs on.  Fewer than the shards and than the
/// 4-vCPU guest the benchmark was tuned on: with every vCPU busy, a pass
/// also waits on the scheduler and on the host's other tenants, and one
/// seed's runs spread three times as wide as on 2 threads.
inline constexpr unsigned kMaxThreads = 2;

/// Parses a workload name; throws std::invalid_argument on an unknown one.
Workload parse_workload(std::string_view name);

/// The simulation config of a workload at a seed.  Clean overlay for
/// materialized-clean; the hostile-overlay fault preset of the streaming
/// bench plus the nightly's 600 s timeline ticks for the other two.
behavior::TraceSimulationConfig workload_config(Workload workload,
                                                std::uint64_t seed);

/// What a pass produced that the checks compare: the trace digest, the
/// Table-2 rows and a digest over every Appendix fit parameter and the
/// refit model.
struct PassOutputs {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  analysis::FilterReport filters;
  std::uint64_t fits_digest = 0;
  bool fits_finite = false;
};

/// Fills fits_digest / fits_finite from a pass's fits and refit model.
void record_fits(PassOutputs& out, const analysis::AppendixFits& fits,
                 const core::WorkloadModel& model);

/// The eleven Table-2 rows, comma-separated, in FilterReport order.
std::string format_filter_rows(const analysis::FilterReport& filters);

/// Correctness-check tally; every check counts towards ops_failed_frac.
class Checks {
 public:
  /// Records one check; prints `what` to stderr when it failed.
  void expect(bool ok, const std::string& what);

  /// Checks that do not need a reference: the Table-2 conservation
  /// identities and finite fits.
  void invariants(const PassOutputs& out, const std::string& label);

  /// Trace digest, Table-2 rows and fit digest equal `want`'s.
  void same(const PassOutputs& got, const PassOutputs& want,
            const std::string& label);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span ledger of the traced run: each span has a name, start,
/// end, the span that caused it and the pass ("run") it belongs to.
/// Times share obs::TraceLog's clock, so the program's built-in spans
/// line up with these.  Written out once, when the benchmark ends.
class Ledger {
 public:
  struct Span {
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint32_t run = 0;
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
  };

  /// RAII span; thread-safe (shard spans open on pool threads).
  class Scope {
   public:
    Scope(Ledger& ledger, std::string name, std::uint32_t parent,
          std::uint32_t run);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const noexcept { return id_; }

   private:
    Ledger& ledger_;
    std::uint32_t id_;
  };

  std::vector<Span> spans() const;

 private:
  std::uint32_t open(std::string name, std::uint32_t parent,
                     std::uint32_t run);
  void close(std::uint32_t id);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< id = index + 1
};

/// Counts a live pass reads from the simulation through public
/// accessors (TraceSimulation::simulator(), node(), network()) and its
/// own TraceSink wrapper.
struct LiveShard {
  double cpu_s = 0.0;  ///< the shard thread's CPU time
  std::uint64_t events = 0;
  std::uint64_t kernel_executed = 0;
  std::vector<std::uint64_t> pending_samples;
  std::uint64_t peers_spawned = 0;
  std::uint64_t messages_recorded = 0;
  std::uint64_t forward_retries = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timeline_points = 0;
  // Spool sink (durable workload only).
  std::uint64_t appends = 0;
  double append_s = 0.0;  ///< appends that neither synced nor rolled
  std::uint64_t syncs = 0;
  double sync_s = 0.0;  ///< appends that fsync'd + rolled, and close()
};

struct LiveResult {
  std::vector<LiveShard> shards;
  PassOutputs outputs;
  trace::Trace merged;  ///< the pass's merged trace, input of the replays
};

/// One pass driven shard by shard through behavior::TraceSimulation
/// (seeded with behavior::shard_seed) and a benchmark-owned sink that
/// samples the kernel and, on the durable workload, times the spool
/// writer.  Produces the same trace as the public entry points, which
/// the caller checks by digest.
LiveResult live_pass(Workload workload, const core::WorkloadModel& model,
                     const behavior::TraceSimulationConfig& config,
                     unsigned threads, const std::string& spool_root,
                     Ledger& ledger, std::uint32_t run);

/// Host-speed probe.  On a shared host the speed of a core drifts, from
/// one tenth of a second to the next and over minutes, with the load of
/// other tenants on the cores, caches and memory it shares, and a pass's
/// CPU and wall time drift with it.  The probe measures the CPU time of a
/// fixed amount of simulator-like work (an event queue, a churning hash
/// table, random accesses to a state array larger than L2, record
/// writes) run once on every core at the same time, as pass threads move
/// between cores.  A run probes between its set-ups and passes and
/// divides its reported times by its median probe over the reference
/// host's, so it reports what it would have measured on that host.  The
/// probe's wall time is not used: with every core busy it also counts
/// the guest's own other work, and it followed the passes worse than the
/// CPU time did.  The probe is benchmark code, built with the
/// benchmark's flags: no change to the program moves it.
struct ProbeTiming {
  double cpu_s = 0.0;  ///< mean over the probe threads
  std::uint64_t checksum = 0;
};

ProbeTiming run_probe();

/// Probe CPU time on the reference host (a 4-vCPU shared Xeon guest,
/// median of 130 probes on an otherwise idle guest).
inline constexpr double kReferenceProbeCpuS = 0.1174;

/// Share of a set-up's or pass's wall time spent probing after it (at
/// least one probe), so that long passes get as many probe samples per
/// second as short ones.
inline constexpr double kProbeShare = 0.1;

/// Layer replays fed from a workload's own trace.
struct ReplayResult {
  double codec_ns_per_msg = 0.0;
  double codec_bytes_per_msg = 0.0;
  std::uint64_t codec_mismatches = 0;
  double routing_ns_per_op = 0.0;
  std::uint64_t routing_peak_entries = 0;
  double kernel_ns_per_event = 0.0;
  double sampler_ns_per_session = 0.0;
};

ReplayResult replay_layers(const trace::Trace& trace,
                           const core::WorkloadModel& model,
                           std::uint64_t seed, std::uint64_t pending_depth,
                           std::uint64_t peers_spawned);

/// Self time of every span in the ledger plus the program's built-in
/// spans: a span's duration minus the union of its children's intervals.
/// Built-in spans hang under the innermost span that contains them on
/// their own thread, else under the innermost benchmark span.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<SelfTime> self_times(
    const std::vector<Ledger::Span>& bench,
    const std::vector<obs::TraceLog::Span>& builtin);

/// Writes both span sets as one JSON document.
void write_spans_json(const std::string& path,
                      const std::vector<Ledger::Span>& bench,
                      const std::vector<obs::TraceLog::Span>& builtin);

}  // namespace perfbench
