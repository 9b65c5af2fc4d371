// perfbench — the live pass: shards driven through TraceSimulation with a
// benchmark-owned sink, so kernel and spool counts come from inside the
// run through public accessors only.
#include <time.h>

#include <chrono>
#include <filesystem>
#include <memory>

#include "analysis/streaming.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "geo/geoip.hpp"
#include "perfbench.hpp"
#include "trace/spool.hpp"
#include "trace/trace_io.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Pending depth is sampled once per this many trace events.
constexpr std::uint64_t kPendingSampleEvery = 1024;

/// The durable runner's spool settings: simulate_to_spools fsyncs and
/// rolls the segment by DurabilityConfig's defaults.
const behavior::DurabilityConfig kDurability{};

/// Forwards every event to the shard's trace or spool, sampling the
/// kernel's pending depth and timing each spool append.  An append that
/// reaches the sync interval also fsyncs (and, at the default sizes, rolls
/// the segment); its time is booked as sync time, every other append's as
/// append time.
class LiveSink final : public trace::TraceSink {
 public:
  LiveSink(trace::Trace* trace, trace::SpoolWriter* spool, LiveShard& stats)
      : trace_(trace), spool_(spool), stats_(stats) {}

  void attach(sim::Simulator& simulator) { simulator_ = &simulator; }

  void on_event(const trace::TraceEvent& event) override {
    if (++stats_.events % kPendingSampleEvery == 0 && simulator_ != nullptr) {
      stats_.pending_samples.push_back(simulator_->pending());
    }
    if (spool_ == nullptr) {
      trace_->on_event(event);
      return;
    }
    const auto t0 = Clock::now();
    spool_->append(event);
    const double dt = seconds_since(t0);
    if (++stats_.appends % kDurability.sync_interval_records == 0) {
      ++stats_.syncs;
      stats_.sync_s += dt;
    } else {
      stats_.append_s += dt;
    }
  }

 private:
  trace::Trace* trace_;
  trace::SpoolWriter* spool_;
  LiveShard& stats_;
  sim::Simulator* simulator_ = nullptr;
};

}  // namespace

LiveResult live_pass(Workload workload, const core::WorkloadModel& model,
                     const behavior::TraceSimulationConfig& config,
                     unsigned threads, const std::string& spool_root,
                     Ledger& ledger, std::uint32_t run) {
  const bool durable = workload == Workload::kDurableStreaming;
  LiveResult result;
  result.shards.resize(kShards);
  std::vector<trace::Trace> traces(kShards);
  if (durable) std::filesystem::remove_all(spool_root);
  const auto dirs = behavior::checkpoint_shard_dirs(spool_root, kShards);

  Ledger::Scope pass(ledger, "live.pass", 0, run);
  {
    Ledger::Scope simulate(ledger, "live.simulate_shards", pass.id(), run);
    util::ThreadPool pool(std::min(threads, kShards));
    pool.run_indexed(kShards, [&](std::size_t k) {
      Ledger::Scope shard(ledger, "live.shard", simulate.id(), run);
      LiveShard& stats = result.shards[k];
      const double cpu0 = thread_cpu_seconds();

      behavior::TraceSimulationConfig shard_config = config;
      shard_config.seed =
          behavior::shard_seed(config.seed, static_cast<unsigned>(k));
      std::unique_ptr<trace::SpoolWriter> spool;
      if (durable) {
        trace::SpoolConfig spool_config;
        spool_config.sync_interval_records = kDurability.sync_interval_records;
        spool_config.segment_max_records = kDurability.segment_max_records;
        spool = std::make_unique<trace::SpoolWriter>(dirs[k], spool_config);
      }
      LiveSink sink(&traces[k], spool.get(), stats);
      behavior::TraceSimulation simulation(model, shard_config, sink);
      sink.attach(simulation.simulator());
      simulation.run();
      if (spool) {
        const auto c0 = Clock::now();
        spool->close();
        ++stats.syncs;
        stats.sync_s += seconds_since(c0);
      }

      stats.kernel_executed = simulation.simulator().executed();
      stats.peers_spawned = simulation.peers_spawned();
      stats.messages_recorded = simulation.node().messages_recorded();
      stats.forward_retries = simulation.node().forward_retries();
      stats.delivered = simulation.network().messages_delivered();
      stats.dropped = simulation.network().messages_dropped();
      stats.timeline_points = simulation.take_timeline().size();
      stats.cpu_s = thread_cpu_seconds() - cpu0;
    });
  }

  if (!durable) {
    Ledger::Scope merge(ledger, "live.merge_traces", pass.id(), run);
    result.merged = trace::merge_traces(std::move(traces));
    result.outputs.events = result.merged.size();
    result.outputs.digest = trace::binary_digest(result.merged);
    return result;
  }

  analysis::StreamingOptions options;
  options.threads = threads;
  analysis::StreamingResult streamed;
  {
    Ledger::Scope analyze(ledger, "live.analyze_spools", pass.id(), run);
    streamed = analysis::analyze_spools(dirs, geo::GeoIpDatabase::synthetic(),
                                        options);
  }
  result.outputs.events = streamed.events;
  result.outputs.digest = streamed.trace_digest;
  result.outputs.filters = streamed.filters;
  record_fits(result.outputs, streamed.fits, streamed.model);

  // The replays need the events themselves: read the spools back.
  std::vector<trace::Trace> read_back(kShards);
  for (unsigned k = 0; k < kShards; ++k) read_back[k] = trace::read_spool(dirs[k]);
  result.merged = trace::merge_traces(std::move(read_back));
  return result;
}

}  // namespace perfbench
