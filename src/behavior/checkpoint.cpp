#include "behavior/checkpoint.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "core/model_io.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/sidecars.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_io.hpp"
#include "util/durable_file.hpp"
#include "util/fnv.hpp"
#include "util/thread_pool.hpp"

namespace p2pgen::behavior {
namespace {

namespace fs = std::filesystem;

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "p2pgen-checkpoint v1";

std::string shard_dir(const std::string& base, unsigned shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04u", shard_index);
  return (fs::path(base) / buf).string();
}

/// Durable-manifest state: the run identity plus which shards finished.
/// Rewritten through util::durable_replace after every shard completion,
/// so a crash leaves either the old or the new manifest, never a torn one.
struct Manifest {
  std::uint64_t identity = 0;
  unsigned n_shards = 0;
  std::vector<char> done;  // done[k] != 0: shard k's spool is complete
  std::string stop_reason;  // "" unless the run checkpointed-and-stopped
  std::string stop_detail;  // single-line human-readable failure site

  void write(const std::string& dir) const {
    std::ostringstream out;
    out << kManifestHeader << "\n";
    out << "identity " << identity << "\n";
    out << "shards " << n_shards << "\n";
    for (unsigned k = 0; k < n_shards; ++k) {
      if (done[k]) out << "done " << k << "\n";
    }
    if (!stop_reason.empty()) {
      out << "stopped " << stop_reason << "\n";
      if (!stop_detail.empty()) {
        std::string detail = stop_detail;
        std::replace(detail.begin(), detail.end(), '\n', ' ');
        out << "stopped_detail " << detail << "\n";
      }
    }
    const std::string text = out.str();
    util::durable_replace((fs::path(dir) / kManifestName).string(),
                          [&](std::FILE* file) {
                            std::fwrite(text.data(), 1, text.size(), file);
                          });
  }

  static Manifest read(const std::string& dir) {
    const std::string path = (fs::path(dir) / kManifestName).string();
    std::ifstream f(path);
    if (!f) throw std::runtime_error("checkpoint: cannot read " + path);
    Manifest m;
    std::string header;
    std::getline(f, header);
    if (header != kManifestHeader) {
      throw std::runtime_error("checkpoint: bad manifest header in " + path);
    }
    std::string key;
    while (f >> key) {
      if (key == "identity") {
        f >> m.identity;
      } else if (key == "shards") {
        f >> m.n_shards;
        m.done.assign(m.n_shards, 0);
      } else if (key == "done") {
        unsigned k = 0;
        f >> k;
        if (k < m.done.size()) m.done[k] = 1;
      } else if (key == "stopped") {
        f >> m.stop_reason;
      } else if (key == "stopped_detail") {
        std::getline(f, m.stop_detail);
        if (!m.stop_detail.empty() && m.stop_detail.front() == ' ') {
          m.stop_detail.erase(0, 1);
        }
      } else {
        throw std::runtime_error("checkpoint: unknown manifest key '" + key +
                                 "' in " + path);
      }
    }
    return m;
  }
};

/// Per-shard progress the heartbeat thread samples.  Written with relaxed
/// stores from the shard worker (stride 1024 in the hot path), read with
/// relaxed loads from the heartbeat thread — health telemetry, not a
/// synchronization point, so a beat may be up to a stride stale.
struct ShardProgress {
  std::atomic<std::uint64_t> sim_time_bits{0};  ///< double bits, sim seconds
  std::atomic<std::uint64_t> events{0};
  std::atomic<bool> done{false};
};

/// Internal: a sibling shard hit an unrecoverable write error, so this
/// shard should stop at its next stride.  Caught inside the shard lambda
/// — it never escapes to the pool.
struct ShardStopRequested {};

/// Cross-shard clean-stop coordination: the first shard to hit a write
/// error records why; every DurableSink polls `requested` each 1024
/// events and unwinds, leaving all spools durable at a clean prefix.
struct StopState {
  std::atomic<bool> requested{false};
  std::mutex mutex;  // guards reason/detail
  std::string reason;
  std::string detail;
};

/// Streams a resumed shard: the first `prefix_records` events are the
/// ones already durable in the spool, so they are digest-verified against
/// the recovered prefix instead of re-written; everything after is
/// appended (and periodically fsync'd) through the writer.  Divergence
/// between replay and spool means the run is NOT the one checkpointed —
/// refuse rather than splice two different traces together.
class DurableSink final : public trace::TraceSink {
 public:
  /// `trace` may be null: the spool-only (streaming) path keeps nothing
  /// in memory and the spool is the sole output.  `progress` may be null:
  /// with a heartbeat running it receives relaxed sim-time/event samples.
  DurableSink(trace::Trace* trace, trace::SpoolWriter& writer,
              unsigned shard_index, ShardProgress* progress = nullptr,
              const std::atomic<bool>* stop_requested = nullptr)
      : trace_(trace),
        writer_(writer),
        prefix_records_(writer.durable_records()),
        prefix_digest_(writer.open_digest()),
        shard_index_(shard_index),
        progress_(progress),
        stop_requested_(stop_requested) {}

  void on_event(const trace::TraceEvent& event) override {
    ++observed_;
    if ((observed_ & 1023u) == 0) {
      if (progress_ != nullptr) {
        progress_->sim_time_bits.store(
            std::bit_cast<std::uint64_t>(trace::event_time(event)),
            std::memory_order_relaxed);
        progress_->events.store(observed_, std::memory_order_relaxed);
      }
      if (stop_requested_ != nullptr &&
          stop_requested_->load(std::memory_order_relaxed)) {
        throw ShardStopRequested{};
      }
    }
    if (trace_ != nullptr) trace_->append(event);
    if (replayed_ < prefix_records_) {
      encode_buf_.clear();
      trace::append_event_binary(event, encode_buf_);
      replay_digest_ = trace::fnv1a_update(replay_digest_, encode_buf_.data(),
                                           encode_buf_.size());
      ++replayed_;
      if (replayed_ == prefix_records_ && replay_digest_ != prefix_digest_) {
        throw std::runtime_error(
            "checkpoint: replay of shard " + std::to_string(shard_index_) +
            " diverged from its durable spool (model/config changed?)");
      }
      return;
    }
    writer_.append(event);
  }

  std::uint64_t replayed() const noexcept { return replayed_; }

 private:
  trace::Trace* trace_;
  trace::SpoolWriter& writer_;
  std::uint64_t prefix_records_;
  std::uint64_t prefix_digest_;
  unsigned shard_index_;
  ShardProgress* progress_;
  const std::atomic<bool>* stop_requested_;
  std::uint64_t replayed_ = 0;
  std::uint64_t observed_ = 0;
  std::uint64_t replay_digest_ = trace::kFnvOffsetBasis;
  std::string encode_buf_;
};

/// The wall-clock run-health channel (DESIGN.md §13): a background thread
/// rewriting "<dir>/heartbeat.json" through util::durable_replace (like
/// the MANIFEST) every interval with per-shard sim-time progress, throughput,
/// current + peak RSS and an ETA — what tools/runwatch.py tails.  Strictly
/// a side channel: it only reads the relaxed atomics above and nothing the
/// simulation reads back, so the trace is byte-identical with it on or
/// off.  Write failures do not kill the run — a full disk must not take
/// down a simulation whose spools are still fine — but they are counted
/// (write_errors(), the "write_errors" JSON field and the
/// "heartbeat.write_errors" obs counter) instead of vanishing.
class HeartbeatWriter {
 public:
  HeartbeatWriter(std::string dir, double interval_seconds, unsigned n_shards,
                  double horizon_seconds)
      : dir_(std::move(dir)),
        interval_(interval_seconds),
        horizon_(horizon_seconds),
        progress_(n_shards),
        start_(std::chrono::steady_clock::now()) {
    write_once();  // a run that dies immediately still leaves one beat
    thread_ = std::thread([this] { run(); });
  }
  ~HeartbeatWriter() { stop(); }

  ShardProgress& shard(std::size_t k) noexcept { return progress_[k]; }

  /// Beats that failed to land on disk (counted, never fatal).
  std::uint64_t write_errors() const noexcept {
    return write_errors_.load(std::memory_order_relaxed);
  }

  /// Joins the writer thread and emits the final beat (idempotent).
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
    write_once();
    auto& registry = obs::Registry::global();
    if (registry.enabled() && write_errors() > 0) {
      registry.counter("heartbeat.write_errors").add(write_errors());
    }
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(interval_),
                         [this] { return stopped_; })) {
      lock.unlock();
      write_once();
      lock.lock();
    }
  }

  // Called from the constructor, the writer thread, and stop() after the
  // join — never concurrently, so rss_history_ needs no lock.
  void write_once() {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const std::uint64_t rss = obs::process_current_rss_bytes();
    const std::uint64_t peak_rss = obs::process_peak_rss_bytes();
    if (rss_history_.size() >= kMaxRssSamples) {
      rss_history_.erase(rss_history_.begin());
    }
    rss_history_.push_back({wall, rss});

    const unsigned n = static_cast<unsigned>(progress_.size());
    double sim_done_seconds = 0.0;
    std::uint64_t events_total = 0;
    unsigned shards_done = 0;

    std::ostringstream shards;
    for (unsigned k = 0; k < n; ++k) {
      const bool done = progress_[k].done.load(std::memory_order_relaxed);
      double t = done ? horizon_
                      : std::bit_cast<double>(progress_[k].sim_time_bits.load(
                            std::memory_order_relaxed));
      t = std::clamp(t, 0.0, horizon_);
      const std::uint64_t events =
          progress_[k].events.load(std::memory_order_relaxed);
      sim_done_seconds += t;
      events_total += events;
      if (done) ++shards_done;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"index\": %u, \"done\": %s, \"sim_days\": %.4f, "
                    "\"events\": %llu}",
                    k == 0 ? "" : ", ", k, done ? "true" : "false",
                    t / sim::kSecondsPerDay,
                    static_cast<unsigned long long>(events));
      shards << buf;
    }

    const double denom = horizon_ * static_cast<double>(n);
    const double progress = denom > 0.0 ? sim_done_seconds / denom : 1.0;
    const double eta = (progress > 0.0 && progress < 1.0)
                           ? wall * (1.0 - progress) / progress
                           : 0.0;

    std::ostringstream out;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"version\": 1,\n"
        "  \"wall_seconds\": %.3f,\n"
        "  \"n_shards\": %u,\n"
        "  \"shards_done\": %u,\n"
        "  \"horizon_days\": %.4f,\n"
        "  \"sim_days_completed\": %.4f,\n"
        "  \"progress\": %.6f,\n"
        "  \"eta_seconds\": %.1f,\n"
        "  \"events_total\": %llu,\n"
        "  \"events_per_sec\": %.1f,\n"
        "  \"rss_bytes\": %llu,\n"
        "  \"peak_rss_bytes\": %llu,\n"
        "  \"write_errors\": %llu,\n",
        wall, n, shards_done, horizon_ / sim::kSecondsPerDay,
        n > 0 ? sim_done_seconds / static_cast<double>(n) / sim::kSecondsPerDay
              : 0.0,
        progress, eta, static_cast<unsigned long long>(events_total),
        wall > 0.0 ? static_cast<double>(events_total) / wall : 0.0,
        static_cast<unsigned long long>(rss),
        static_cast<unsigned long long>(peak_rss),
        static_cast<unsigned long long>(
            write_errors_.load(std::memory_order_relaxed)));
    out << buf;
    out << "  \"shards\": [" << shards.str() << "],\n";
    out << "  \"rss_history\": [";
    for (std::size_t i = 0; i < rss_history_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s{\"wall_seconds\": %.3f, "
                    "\"rss_bytes\": %llu}",
                    i == 0 ? "" : ", ", rss_history_[i].wall_seconds,
                    static_cast<unsigned long long>(rss_history_[i].rss_bytes));
      out << buf;
    }
    out << "]\n}\n";

    try {
      const std::string text = out.str();
      util::durable_replace((fs::path(dir_) / "heartbeat.json").string(),
                            [&](std::FILE* file) {
                              std::fwrite(text.data(), 1, text.size(), file);
                            });
    } catch (...) {
      // Telemetry only: a failed beat must never take the run down —
      // but it must not vanish either.
      write_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  struct RssSample {
    double wall_seconds;
    std::uint64_t rss_bytes;
  };
  static constexpr std::size_t kMaxRssSamples = 4096;

  std::string dir_;
  double interval_;
  double horizon_;
  std::vector<ShardProgress> progress_;
  std::chrono::steady_clock::time_point start_;
  std::vector<RssSample> rss_history_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::atomic<std::uint64_t> write_errors_{0};
  std::thread thread_;
};

void publish_recovery_metrics(const RecoverySummary& summary) {
  auto& registry = obs::Registry::global();
  if (!registry.enabled()) return;
  registry.counter("recovery.spool.segments_scanned")
      .add(summary.segments_scanned);
  registry.counter("recovery.spool.records_recovered")
      .add(summary.records_recovered);
  registry.counter("recovery.spool.records_truncated")
      .add(summary.records_truncated);
  registry.counter("recovery.spool.bytes_truncated")
      .add(summary.bytes_truncated);
  registry.counter("recovery.events_replayed").add(summary.events_replayed);
  registry.counter("recovery.checkpoints_written")
      .add(summary.checkpoints_written);
  registry.counter("recovery.checkpoints_loaded")
      .add(summary.checkpoints_loaded);
  registry.counter("recovery.shards_completed_prior")
      .add(summary.shards_completed_prior);
  registry.counter("recovery.sidecars_rebuilt").add(summary.sidecars_rebuilt);
  registry.counter("recovery.spools_reset").add(summary.spools_reset);
}

/// The shared durable shard runner.  With `shards_out` it behaves like
/// the classic durable path (completed shards loaded from their spools,
/// running shards buffered in memory while they spool); without it the
/// spools are the only output — completed shards are not even opened,
/// and the simulation streams through a trace-less DurableSink.
void run_durable_shards(const core::WorkloadModel& model,
                        const TraceSimulationConfig& base, unsigned n_shards,
                        unsigned n_threads, const DurabilityConfig& durability,
                        RecoverySummary* summary_out,
                        std::vector<ShardStats>& shard_stats,
                        std::vector<trace::Trace>* shards_out) {
  if (n_shards == 0) {
    throw std::invalid_argument("simulate_trace_durable: n_shards must be > 0");
  }
  if (durability.dir.empty()) {
    throw std::invalid_argument("simulate_trace_durable: empty checkpoint dir");
  }
  obs::ObsSpan span("sim.durable");
  fs::create_directories(durability.dir);

  const std::uint64_t identity = run_identity_digest(model, base, n_shards);
  Manifest manifest;
  RecoverySummary summary;

  if (checkpoint_exists(durability.dir)) {
    manifest = Manifest::read(durability.dir);
    if (manifest.identity != identity) {
      throw std::runtime_error(
          "checkpoint: MANIFEST identity mismatch — the checkpoint in '" +
          durability.dir +
          "' was written by a run with a different model, config or shard "
          "count; refusing to resume");
    }
    if (manifest.n_shards != n_shards) {
      throw std::runtime_error("checkpoint: shard count mismatch");
    }
    if (!manifest.stop_reason.empty()) {
      // This run supersedes the recorded clean stop: clear it so status
      // tools stop reporting a condition that is being resumed past.
      manifest.stop_reason.clear();
      manifest.stop_detail.clear();
      manifest.write(durability.dir);
    }
  } else {
    if (durability.resume) {
      throw std::runtime_error("checkpoint: --resume requested but no "
                               "checkpoint found in '" +
                               durability.dir + "'");
    }
    manifest.identity = identity;
    manifest.n_shards = n_shards;
    manifest.done.assign(n_shards, 0);
    manifest.write(durability.dir);
    ++summary.checkpoints_written;
  }

  if (shards_out != nullptr) shards_out->resize(n_shards);
  shard_stats.assign(n_shards, ShardStats{});
  const obs::SidecarSet sidecars(base.qtrace, base.timeline);
  const double horizon =
      (base.warmup_days + base.duration_days) * sim::kSecondsPerDay;
  std::mutex manifest_mutex;  // guards manifest + summary
  StopState stop;
  // Per-shard salvage reports, merged in shard order after the pool so
  // the combined range list is deterministic at any thread count.
  std::vector<trace::SalvageReport> shard_salvage(n_shards);

  std::unique_ptr<HeartbeatWriter> heartbeat;
  if (durability.heartbeat_interval_seconds > 0.0) {
    heartbeat = std::make_unique<HeartbeatWriter>(
        durability.dir, durability.heartbeat_interval_seconds, n_shards,
        horizon);
  }

  // Tells the heartbeat a shard is finished (loaded or simulated).
  const auto beat_done = [&](std::size_t k) {
    if (heartbeat == nullptr) return;
    ShardProgress& progress = heartbeat->shard(k);
    progress.sim_time_bits.store(std::bit_cast<std::uint64_t>(horizon),
                                 std::memory_order_relaxed);
    progress.events.store(shard_stats[k].events, std::memory_order_relaxed);
    progress.done.store(true, std::memory_order_relaxed);
  };

  // Finishes a shard that is not simulated: its spool (fsync'd before the
  // manifest marked it done) already holds the whole shard trace.  Spool-
  // only mode reads nothing — the streaming analysis validates the
  // segments in its own single pass.
  const auto load_done_shard = [&](std::size_t k, bool salvage) {
    const std::string spool_dir =
        shard_dir(durability.dir, static_cast<unsigned>(k));
    if (shards_out != nullptr && salvage) {
      trace::SalvageReport report;
      (*shards_out)[k] = trace::read_spool_salvage(spool_dir, &report);
      shard_stats[k].events = (*shards_out)[k].size();
      std::lock_guard<std::mutex> lock(manifest_mutex);
      summary.records_recovered += report.records_recovered;
      shard_salvage[k] = std::move(report);
    } else if (shards_out != nullptr) {
      trace::SpoolRecoveryReport report;
      (*shards_out)[k] = trace::read_spool(spool_dir, &report);
      if (report.torn) {
        throw std::runtime_error(
            "checkpoint: completed shard " + std::to_string(k) +
            " has a torn spool — completed data should never tear");
      }
      shard_stats[k].events = (*shards_out)[k].size();
      std::lock_guard<std::mutex> lock(manifest_mutex);
      summary.segments_scanned += report.segments_scanned;
      summary.records_recovered += report.records_recovered;
    }
    beat_done(k);
    std::lock_guard<std::mutex> lock(manifest_mutex);
    ++summary.checkpoints_loaded;
    ++summary.shards_completed_prior;
  };

  // Disk full or another media write error: record why once and ask
  // every other shard to stop at its next stride.  The spool keeps its
  // durable prefix; resume continues from there.
  const auto request_stop = [&stop](int error_code, const char* what) {
    std::lock_guard<std::mutex> lock(stop.mutex);
    if (!stop.requested.exchange(true)) {
      stop.reason = error_code == ENOSPC ? "enospc" : "io-error";
      stop.detail = what;
    }
  };

  util::ThreadPool pool(std::min(n_threads, n_shards));
  pool.run_indexed(n_shards, [&](std::size_t k) {
    const unsigned index = static_cast<unsigned>(k);
    const std::string spool_dir = shard_dir(durability.dir, index);

    // Done shards normally load from their spool + sidecars and return.
    // A damaged sidecar drops through to the simulate path below, which
    // deterministically rebuilds it by replaying the shard (both sidecars
    // are pure functions of (model, config, shard seed)).
    bool rebuilding_sidecars = false;
    if (manifest.done[k]) {
      shard_stats[k].seed = shard_seed(base.seed, index);
      // Probe the sidecars first (cheap CRC pass): if one is damaged the
      // spool is consumed by the replay-rebuild instead of read here.  A
      // checkpoint written before a stream was on simply has no sidecar
      // for it; the shard contributes nothing to that stream, exactly as
      // the streaming replay will also conclude.
      rebuilding_sidecars =
          !obs::load_sidecars(spool_dir, sidecars, shard_stats[k].observed);
      if (!rebuilding_sidecars) {
        load_done_shard(k, durability.salvage);
        return;
      }
      std::lock_guard<std::mutex> lock(manifest_mutex);
      ++summary.sidecars_rebuilt;
    } else if (durability.salvage) {
      // Unfinished shard under salvage: a damaged spool here costs
      // nothing — truncate to the clean prefix and let the replay
      // regenerate the rest exactly.
      const std::uint64_t dropped =
          trace::truncate_spool_to_valid_prefix(spool_dir);
      if (dropped > 0) {
        std::lock_guard<std::mutex> lock(manifest_mutex);
        ++summary.spools_reset;
        summary.bytes_truncated += dropped;
      }
    }

    try {
      trace::SpoolConfig spool_config;
      spool_config.sync_interval_records = durability.sync_interval_records;
      spool_config.segment_max_records = durability.segment_max_records;
      std::unique_ptr<trace::SpoolWriter> writer;
      try {
        writer = std::make_unique<trace::SpoolWriter>(spool_dir, spool_config);
      } catch (const trace::TraceIoError& e) {
        if (!(rebuilding_sidecars && durability.salvage)) throw;
        // Done shard, damaged sidecars AND a damaged spool: the replay
        // rebuild is impossible (it digest-verifies against the spool).
        // The best recoverable state is empty sidecars — the loss is
        // already accounted by the spool's salvage report.
        obs::save_sidecars(spool_dir, sidecars, {});
        load_done_shard(k, /*salvage=*/true);
        return;
      }
      {
        std::lock_guard<std::mutex> lock(manifest_mutex);
        summary.segments_scanned += writer->recovery().segments_scanned;
        summary.records_recovered += writer->durable_records();
        summary.records_truncated += writer->recovery().records_truncated;
        summary.bytes_truncated += writer->recovery().bytes_truncated;
        if (writer->durable_records() > 0) ++summary.checkpoints_loaded;
      }

      DurableSink sink(shards_out != nullptr ? &(*shards_out)[k] : nullptr,
                       *writer, index,
                       heartbeat != nullptr ? &heartbeat->shard(k) : nullptr,
                       &stop.requested);
      simulate_shard_into(model, base, index, sink, &shard_stats[k]);
      writer->close();  // final fsync: the shard's redo log is complete
      // The sidecars are durable (file and directory fsync'd) before the
      // manifest marks the shard done, so a done shard always has its
      // (possibly empty) sidecars next to its spool.  Spool-only mode
      // drops the in-memory copy right away: the streaming pass reads the
      // sidecars back from disk.
      obs::save_sidecars(spool_dir, sidecars, shard_stats[k].observed);
      if (shards_out == nullptr) shard_stats[k].observed = {};
      beat_done(k);

      std::lock_guard<std::mutex> lock(manifest_mutex);
      summary.events_replayed += sink.replayed();
      manifest.done[k] = 1;
      manifest.write(durability.dir);
      ++summary.checkpoints_written;
    } catch (const trace::SpoolWriteError& e) {
      request_stop(e.error_code(), e.what());
    } catch (const std::system_error& e) {
      // A sidecar or MANIFEST rewrite (util::durable_replace) failed.
      request_stop(e.code().value(), e.what());
    } catch (const ShardStopRequested&) {
      // A sibling recorded the reason; this shard's spool is durable up
      // to its last sync, which is all a clean stop promises.
    }
  });
  util::publish_pool_stats("pool.sim", pool.stats());
  obs::Registry::global().counter("sim.shards_run").add(n_shards);
  if (heartbeat != nullptr) heartbeat->stop();  // final (completed) beat

  // Merge per-shard salvage reports in shard order: deterministic range
  // ordering at any thread count.
  for (unsigned k = 0; k < n_shards; ++k) {
    summary.salvage.merge_shard(std::move(shard_salvage[k]), k);
  }

  if (stop.requested.load(std::memory_order_relaxed)) {
    std::string reason;
    std::string detail;
    {
      std::lock_guard<std::mutex> lock(stop.mutex);
      reason = stop.reason;
      detail = stop.detail;
    }
    if (reason.empty()) reason = "io-error";  // defensive: should be set
    {
      std::lock_guard<std::mutex> lock(manifest_mutex);
      manifest.stop_reason = reason;
      manifest.stop_detail = detail;
      try {
        manifest.write(durability.dir);
      } catch (...) {
        // Manifest rewrite can itself hit the full disk; the stop still
        // propagates through the exception below.
      }
    }
    publish_recovery_metrics(summary);
    if (summary_out != nullptr) *summary_out = summary;
    throw CheckpointStopped(
        "checkpoint: run stopped cleanly (" + reason + "): " + detail, reason);
  }

  publish_recovery_metrics(summary);
  if (summary_out != nullptr) *summary_out = summary;
}

}  // namespace

std::uint64_t run_identity_digest(const core::WorkloadModel& model,
                                  const TraceSimulationConfig& config,
                                  unsigned n_shards) {
  std::ostringstream model_text;
  core::save_model(model, model_text);
  std::uint64_t d = util::fnv1a_string(util::kFnvOffsetBasis, model_text.str());
  // One shared digest covers every config field that shapes the trace —
  // scenario schedules, degradation knobs and client mix included — so
  // the durable-run identity can never drift out of sync with the config.
  d = util::fnv1a_u64(d, simulation_config_digest(config));
  return util::fnv1a_update(d, &n_shards, sizeof(n_shards));
}

bool checkpoint_exists(const std::string& dir) {
  return fs::exists(fs::path(dir) / kManifestName);
}

CheckpointStatus read_checkpoint_status(const std::string& dir) {
  const Manifest manifest = Manifest::read(dir);
  CheckpointStatus status;
  status.n_shards = manifest.n_shards;
  for (const auto done : manifest.done) {
    if (done) ++status.shards_done;
  }
  status.complete =
      manifest.n_shards > 0 && status.shards_done == manifest.n_shards;
  status.stop_reason = manifest.stop_reason;
  status.stop_detail = manifest.stop_detail;
  return status;
}

void write_checkpoint_stop_reason(const std::string& dir,
                                  const std::string& reason,
                                  const std::string& detail) {
  Manifest manifest = Manifest::read(dir);
  manifest.stop_reason = reason;
  manifest.stop_detail = detail;
  manifest.write(dir);
}

trace::Trace simulate_trace_durable(const core::WorkloadModel& model,
                                    const TraceSimulationConfig& base,
                                    unsigned n_shards, unsigned n_threads,
                                    const DurabilityConfig& durability,
                                    RecoverySummary* summary_out,
                                    std::vector<ShardStats>* stats,
                                    std::vector<obs::QueryHopEvent>* qtrace,
                                    std::vector<obs::TimelinePoint>* timeline) {
  std::vector<trace::Trace> shards;
  std::vector<ShardStats> shard_stats;
  run_durable_shards(model, base, n_shards, n_threads, durability, summary_out,
                     shard_stats, &shards);

  // Same merge + publish as simulate_trace_sharded: resumed shards
  // contribute the sidecar streams recovered above, fresh shards the ones
  // they just recorded, so an interrupted-and-resumed run's merged streams
  // are identical to an uninterrupted one's.
  trace::Trace merged =
      merge_shards(base, std::move(shards), shard_stats, qtrace, timeline);
  if (stats != nullptr) *stats = std::move(shard_stats);
  return merged;
}

std::vector<std::string> simulate_to_spools(
    const core::WorkloadModel& model, const TraceSimulationConfig& base,
    unsigned n_shards, unsigned n_threads, const DurabilityConfig& durability,
    RecoverySummary* summary_out, std::vector<ShardStats>* stats) {
  std::vector<ShardStats> shard_stats;
  run_durable_shards(model, base, n_shards, n_threads, durability, summary_out,
                     shard_stats, /*shards_out=*/nullptr);
  if (stats != nullptr) *stats = std::move(shard_stats);
  return checkpoint_shard_dirs(durability.dir, n_shards);
}

std::vector<std::string> checkpoint_shard_dirs(const std::string& dir,
                                               unsigned n_shards) {
  std::vector<std::string> dirs;
  dirs.reserve(n_shards);
  for (unsigned k = 0; k < n_shards; ++k) dirs.push_back(shard_dir(dir, k));
  return dirs;
}

}  // namespace p2pgen::behavior
