// Materialized oracle for durable runs (tests only).
//
// behavior::simulate_to_spools leaves a run on disk as per-shard spools
// plus observer sidecars.  The tests compare it against the in-memory
// pipeline, so they read it back the plain way: every shard's spool
// with trace::read_spool (or read_spool_salvage), merged with
// trace::merge_traces, and the sidecars with obs::read_sidecars.  The
// streaming pass's gap censoring has its materialized form here too.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataset.hpp"
#include "behavior/checkpoint.hpp"
#include "obs/sidecars.hpp"
#include "trace/spool.hpp"

namespace p2pgen::oracle {

/// A durable run, read back into memory.
struct DurableRun {
  trace::Trace trace;            ///< merged shard spools
  trace::SalvageReport salvage;  ///< shard-tagged loss (salvage reads only)
  obs::ObserverStreams streams;  ///< merged qtrace / timeline sidecars
  double timeline_tick_seconds = 0.0;  ///< 0 without timeline sidecars
  behavior::RecoverySummary summary;
  std::vector<behavior::ShardStats> stats;
};

/// Reads the spools in `shard_dirs` back and merges them.  With
/// `salvage` each spool is read in salvage mode and its loss lands in
/// `report`, tagged with its shard; otherwise damage throws TraceIoError.
inline trace::Trace read_spools(const std::vector<std::string>& shard_dirs,
                                bool salvage,
                                trace::SalvageReport* report = nullptr) {
  std::vector<trace::Trace> shards(shard_dirs.size());
  trace::SalvageReport merged;
  for (std::size_t k = 0; k < shard_dirs.size(); ++k) {
    if (!salvage) {
      shards[k] = trace::read_spool(shard_dirs[k]);
      continue;
    }
    trace::SalvageReport shard_report;
    shards[k] = trace::read_spool_salvage(shard_dirs[k], &shard_report);
    merged.merge_shard(std::move(shard_report), static_cast<unsigned>(k));
  }
  if (report != nullptr) *report = std::move(merged);
  return trace::merge_traces(std::move(shards));
}

/// Runs simulate_to_spools, then reads everything it left on disk back
/// (spools in `durability.salvage` mode, sidecars merged in shard order).
inline DurableRun run_durable(const core::WorkloadModel& model,
                              const behavior::TraceSimulationConfig& config,
                              unsigned n_shards, unsigned n_threads,
                              const behavior::DurabilityConfig& durability) {
  DurableRun run;
  const std::vector<std::string> dirs =
      behavior::simulate_to_spools(model, config, n_shards, n_threads,
                                   durability, &run.summary, &run.stats);
  run.trace = read_spools(dirs, durability.salvage, &run.salvage);
  run.streams = obs::read_sidecars(dirs, &run.timeline_tick_seconds);
  return run;
}

/// Removes every session of `dataset` that overlaps a salvage gap window
/// of its shard (open interval; a window without a right end runs to
/// +inf) and accounts it in `report.censored_sessions` /
/// `report.censored_queries`.  Call before apply_filters; survivor order
/// is kept.
inline void censor_dataset(analysis::TraceDataset& dataset,
                           trace::SalvageReport& report) {
  const auto overlaps_gap = [&report](const analysis::ObservedSession& s) {
    const auto shard = static_cast<unsigned>(trace::shard_of_session(s.id));
    for (const trace::SalvageRange& range : report.ranges) {
      const double after = std::isnan(range.time_after)
                               ? std::numeric_limits<double>::infinity()
                               : range.time_after;
      if (range.shard == shard && s.end > range.time_before &&
          s.start < after) {
        return true;
      }
    }
    return false;
  };
  auto& sessions = dataset.sessions;
  const auto kept = std::remove_if(
      sessions.begin(), sessions.end(),
      [&](const analysis::ObservedSession& session) {
        if (!overlaps_gap(session)) return false;
        ++report.censored_sessions;
        report.censored_queries += session.queries.size();
        return true;
      });
  sessions.erase(kept, sessions.end());
}

}  // namespace p2pgen::oracle
