// p2pgen — deterministic sharded trace simulation.
//
// The substitute for running the paper's 40-day measurement on one core:
// N independently-seeded replica simulations ("shards") observe the same
// measurement window from N vantage points — the multi-vantage-point
// shape of the eDonkey honeypot measurements (Allali, Latapy & Magnien,
// arXiv:0904.3215) — and their traces are merged into one measurement
// log by a stable, shard-index-ordered reduction (trace::merge_traces).
//
// Determinism contract: the merged trace is a pure function of
// (model, config, n_shards).  Shard k's RNG stream is split from the
// master seed via stats::derive_stream_seed, so streams are disjoint and
// each shard is independent of every other; shards therefore run
// concurrently without synchronization, and the merged output is
// byte-identical for ANY thread count, including n_threads = 1.
//
// Replicas also answer the finite-measurement-bias problem (Benamara &
// Magnien, arXiv:1104.3694): tail estimates of heavy-tailed session
// measures need many long observation windows, not one short one —
// affordable only when the replicas run in parallel.
#pragma once

#include <array>
#include <vector>

#include "behavior/trace_simulation.hpp"
#include "geo/region.hpp"
#include "obs/sidecars.hpp"

namespace p2pgen::behavior {

/// Post-run statistics of one shard.
struct ShardStats {
  std::uint64_t seed = 0;           ///< the shard's derived master seed
  std::uint64_t peers_spawned = 0;  ///< peers the shard's overlay produced
  std::uint64_t events = 0;         ///< trace events the shard emitted
  sim::FaultCounters faults{};      ///< the shard's fault-layer counters

  // Scenario-layer and degradation counters (all zero when the scenario
  // layer is off) — the scenario runner's invariant checks sum these
  // across shards and compare them against the merged-trace analysis.
  std::uint64_t outage_crashes = 0;  ///< peers killed by regional outages
  std::array<std::uint64_t, geo::kRegionCount> outage_crashes_by_region{};
  std::uint64_t shed_connections = 0;  ///< admission-cap 503 refusals
  std::uint64_t shed_queries = 0;      ///< queries dropped by the token bucket
  std::uint64_t probe_closed_sessions = 0;  ///< idle+probe reaps
  std::uint64_t replenish_scheduled = 0;    ///< healing timers armed
  std::uint64_t replenish_spawns = 0;       ///< replacement peers requested
  /// SessionEnd histogram by trace::EndReason value.
  std::array<std::uint64_t, 4> session_ends{};

  /// The shard's query-lifecycle hop events and timeline ticks (each
  /// empty when its stream is off).  Time-ordered within the shard;
  /// obs::merge_and_publish pins the cross-shard order.
  obs::ObserverStreams observed;
};

/// Seed of shard `shard_index` under `master_seed`.  Every shard —
/// including shard 0 — gets a derived seed, so the set of shard streams
/// is uniform and pairwise disjoint from each other and from the serial
/// TraceSimulation stream of the master seed itself.
std::uint64_t shard_seed(std::uint64_t master_seed,
                         unsigned shard_index) noexcept;

/// Runs one replica shard: `base` with its seed replaced by
/// shard_seed(base.seed, shard_index).  Deterministic in
/// (model, base, shard_index); usable on any thread.
trace::Trace simulate_shard(const core::WorkloadModel& model,
                            const TraceSimulationConfig& base,
                            unsigned shard_index, ShardStats* stats = nullptr);

/// Runs one replica shard streaming its events into `sink` instead of
/// buffering a Trace — the durable-checkpoint path (trace/spool.hpp)
/// appends each event to a per-shard redo log as it is emitted.  Event
/// order and content are identical to simulate_shard's.
void simulate_shard_into(const core::WorkloadModel& model,
                         const TraceSimulationConfig& base,
                         unsigned shard_index, trace::TraceSink& sink,
                         ShardStats* stats = nullptr);

/// Runs `n_shards` replica shards on up to `n_threads` threads and merges
/// their traces (see file comment for the determinism contract).  Each
/// shard simulates the full base.duration_days window.  When `stats` is
/// non-null it receives one entry per shard, in shard order.
///
/// When base.qtrace.sample_rate > 0 and/or base.timeline.tick_seconds > 0
/// the per-shard observer streams are merged and their aggregates
/// published (obs::merge_and_publish); pass `qtrace` / `timeline` to also
/// receive the merged streams.  The merge consumes the per-shard buffers:
/// ShardStats.observed comes back empty from this entry point.
trace::Trace simulate_trace_sharded(
    const core::WorkloadModel& model, const TraceSimulationConfig& base,
    unsigned n_shards, unsigned n_threads,
    std::vector<ShardStats>* stats = nullptr,
    std::vector<obs::QueryHopEvent>* qtrace = nullptr,
    std::vector<obs::TimelinePoint>* timeline = nullptr);

/// The merge step the sharded entry points share: merges the shard traces
/// (trace::merge_traces), moves every shard's observer streams out of
/// `stats`, merges and publishes the streams `base` turns on, and hands
/// the merged streams to the non-null outputs.
trace::Trace merge_shards(const TraceSimulationConfig& base,
                          std::vector<trace::Trace> shards,
                          std::vector<ShardStats>& stats,
                          std::vector<obs::QueryHopEvent>* qtrace,
                          std::vector<obs::TimelinePoint>* timeline);

}  // namespace p2pgen::behavior
