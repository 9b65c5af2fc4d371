#include "behavior/sharded_simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace p2pgen::behavior {
namespace {

/// Tag offsetting shard stream ids away from the small ids other layers
/// split off the same master seed.
constexpr std::uint64_t kShardStreamTag = 0x5348415244ULL;  // "SHARD"

void fill_stats(ShardStats& stats, TraceSimulation& simulation,
                std::uint64_t seed, std::uint64_t events) {
  stats.seed = seed;
  stats.peers_spawned = simulation.peers_spawned();
  stats.events = events;
  stats.faults = simulation.fault_counters();
  stats.outage_crashes = simulation.outage_crashes();
  stats.outage_crashes_by_region = simulation.outage_crashes_by_region();
  const MeasurementNode& node = simulation.node();
  stats.shed_connections = node.shed_connections();
  stats.shed_queries = node.shed_queries();
  stats.probe_closed_sessions = node.probe_closed_sessions();
  stats.replenish_scheduled = node.replenish_scheduled();
  stats.replenish_spawns = node.replenish_spawns();
  stats.session_ends = node.session_ends();
  stats.observed.qtrace = simulation.take_qtrace();
  stats.observed.timeline = simulation.take_timeline();
}

}  // namespace

trace::Trace merge_shards(const TraceSimulationConfig& base,
                          std::vector<trace::Trace> shards,
                          std::vector<ShardStats>& stats,
                          std::vector<obs::QueryHopEvent>* qtrace,
                          std::vector<obs::TimelinePoint>* timeline) {
  trace::Trace merged;
  {
    obs::ObsSpan span("trace.merge");
    merged = trace::merge_traces(std::move(shards));
  }
  obs::Registry::global().counter("sim.merged_events").add(merged.size());

  std::vector<obs::ObserverStreams> observed(stats.size());
  for (std::size_t k = 0; k < stats.size(); ++k) {
    observed[k] = std::move(stats[k].observed);
  }
  obs::ObserverStreams streams = obs::merge_and_publish(
      obs::SidecarSet(base.qtrace, base.timeline), std::move(observed));
  if (qtrace != nullptr) *qtrace = std::move(streams.qtrace);
  if (timeline != nullptr) *timeline = std::move(streams.timeline);
  return merged;
}

std::uint64_t shard_seed(std::uint64_t master_seed,
                         unsigned shard_index) noexcept {
  return stats::derive_stream_seed(master_seed, kShardStreamTag + shard_index);
}

trace::Trace simulate_shard(const core::WorkloadModel& model,
                            const TraceSimulationConfig& base,
                            unsigned shard_index, ShardStats* stats) {
  trace::Trace trace;
  simulate_shard_into(model, base, shard_index, trace, stats);
  return trace;
}

void simulate_shard_into(const core::WorkloadModel& model,
                         const TraceSimulationConfig& base,
                         unsigned shard_index, trace::TraceSink& sink,
                         ShardStats* stats) {
  obs::ObsSpan span("sim.shard");
  TraceSimulationConfig config = base;
  config.seed = shard_seed(base.seed, shard_index);

  // Counts events on the way through: a plain sink has no size().
  struct CountingSink final : trace::TraceSink {
    explicit CountingSink(trace::TraceSink& wrapped) : inner(wrapped) {}
    void on_event(const trace::TraceEvent& event) override {
      inner.on_event(event);
      ++events;
    }
    trace::TraceSink& inner;
    std::uint64_t events = 0;
  } counting(sink);

  TraceSimulation simulation(model, config, counting);
  simulation.run();
  simulation.publish_metrics();

  if (stats != nullptr) fill_stats(*stats, simulation, config.seed, counting.events);
}

trace::Trace simulate_trace_sharded(const core::WorkloadModel& model,
                                    const TraceSimulationConfig& base,
                                    unsigned n_shards, unsigned n_threads,
                                    std::vector<ShardStats>* stats,
                                    std::vector<obs::QueryHopEvent>* qtrace,
                                    std::vector<obs::TimelinePoint>* timeline) {
  if (n_shards == 0) {
    throw std::invalid_argument("simulate_trace_sharded: n_shards must be > 0");
  }
  std::vector<trace::Trace> shards(n_shards);
  std::vector<ShardStats> shard_stats(n_shards);

  // Shards are fully independent (disjoint RNG streams, own simulator,
  // own trace buffer), so the pool may run them in any order; the merge
  // below is what pins the output ordering.
  util::ThreadPool pool(std::min(n_threads, n_shards));
  pool.run_indexed(n_shards, [&](std::size_t k) {
    shards[k] = simulate_shard(model, base, static_cast<unsigned>(k),
                               &shard_stats[k]);
  });
  util::publish_pool_stats("pool.sim", pool.stats());
  obs::Registry::global().counter("sim.shards_run").add(n_shards);

  trace::Trace merged =
      merge_shards(base, std::move(shards), shard_stats, qtrace, timeline);
  if (stats != nullptr) *stats = std::move(shard_stats);
  return merged;
}

}  // namespace p2pgen::behavior
