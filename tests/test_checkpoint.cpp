// Recovery suite for the deterministic checkpoint layer (DESIGN.md §9).
// The contract under test: a durable run SIGKILLed at ANY point and then
// resumed produces a merged trace byte-identical to an uninterrupted
// run, at any thread count — the spool is the redo log, the manifest
// pins run identity, and the replayed prefix is digest-verified against
// the durable one.  Also covers the neighbor-churn self-healing of the
// measurement node (deterministic, counted, off by default).
#include "behavior/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "behavior/trace_simulation.hpp"
#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"
#include "stats/rng.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"
#include "util/durable_file.hpp"

#if defined(__unix__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace p2pgen {
namespace {

namespace fs = std::filesystem;

behavior::TraceSimulationConfig tiny_fault_config() {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;  // ~29 simulated minutes per shard
  config.arrival_rate = 1.0;
  config.seed = 20040315;
  config.faults.loss_prob = 0.03;
  config.faults.corrupt_prob = 0.01;
  config.faults.duplicate_prob = 0.02;
  config.faults.crash_rate = 1.0 / 3600.0;
  config.faults.half_open_prob = 0.05;
  config.faults.half_open_after_mean = 300.0;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string serialize(const trace::Trace& trace) {
  std::ostringstream os;
  trace::write_binary(trace, os);
  return os.str();
}

TEST(Checkpoint, DurableRunMatchesPlainRunAtAnyThreadCount) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 3, 2);
  ASSERT_GT(plain.size(), 0u);

  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string dir =
        fresh_dir("threads" + std::to_string(threads));
    behavior::DurabilityConfig durability;
    durability.dir = dir;
    behavior::RecoverySummary summary;
    const trace::Trace durable = behavior::simulate_trace_durable(
        model, config, 3, threads, durability, &summary);
    EXPECT_EQ(serialize(durable), serialize(plain)) << threads << " threads";
    // A fresh run recovers nothing and replays nothing.
    EXPECT_EQ(summary.records_recovered, 0u);
    EXPECT_EQ(summary.events_replayed, 0u);
    EXPECT_EQ(summary.shards_completed_prior, 0u);
    // ... but checkpoints the manifest once per shard plus once at init.
    EXPECT_EQ(summary.checkpoints_written, 4u);
    fs::remove_all(dir);
  }
}

TEST(Checkpoint, ResumeFromCompletedCheckpointLoadsWithoutResimulating) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("complete");

  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first =
      behavior::simulate_trace_durable(model, config, 2, 2, durability);
  ASSERT_TRUE(behavior::checkpoint_exists(dir));

  durability.resume = true;
  behavior::RecoverySummary summary;
  std::vector<behavior::ShardStats> stats;
  const trace::Trace second = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, &summary, &stats);
  EXPECT_EQ(serialize(second), serialize(first));
  EXPECT_EQ(summary.shards_completed_prior, 2u);
  EXPECT_EQ(summary.events_replayed, 0u);
  EXPECT_EQ(summary.records_recovered, first.size());
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].events + stats[1].events, first.size());
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeWithoutACheckpointIsRefused) {
  const auto model = core::WorkloadModel::paper_default();
  behavior::DurabilityConfig durability;
  durability.dir = fresh_dir("norun");
  durability.resume = true;
  EXPECT_THROW(behavior::simulate_trace_durable(
                   model, tiny_fault_config(), 2, 1, durability),
               std::runtime_error);
}

TEST(Checkpoint, MismatchedIdentityIsRefused) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("identity");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  (void)behavior::simulate_trace_durable(model, config, 2, 2, durability);

  // A different seed is a different run: resuming must refuse rather
  // than splice two different traces together.
  auto other = config;
  other.seed += 1;
  EXPECT_THROW(
      behavior::simulate_trace_durable(model, other, 2, 2, durability),
      std::runtime_error);
  // So is a different shard count.
  EXPECT_THROW(
      behavior::simulate_trace_durable(model, config, 3, 2, durability),
      std::runtime_error);
  // Identity covers the fault layer too.
  auto faultless = config;
  faultless.faults = sim::FaultConfig{};
  EXPECT_THROW(
      behavior::simulate_trace_durable(model, faultless, 2, 2, durability),
      std::runtime_error);
  fs::remove_all(dir);
}

TEST(Checkpoint, RunIdentityDigestSeparatesConfigs) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::uint64_t base = behavior::run_identity_digest(model, config, 2);
  EXPECT_EQ(behavior::run_identity_digest(model, config, 2), base);

  auto seed = config;
  seed.seed += 1;
  EXPECT_NE(behavior::run_identity_digest(model, seed, 2), base);
  EXPECT_NE(behavior::run_identity_digest(model, config, 3), base);
  auto replenish = config;
  replenish.node.replenish = true;
  EXPECT_NE(behavior::run_identity_digest(model, replenish, 2), base);
}

#if defined(__unix__)
TEST(Checkpoint, ConfigAndIdentityDigestsArePinned) {
  // Literal values: the durable-run identity keys every checkpoint and
  // bench cache on disk, so a hash refactor must leave it unchanged.
  const behavior::TraceSimulationConfig defaults;
  const auto model = core::WorkloadModel::paper_default();
  EXPECT_EQ(behavior::simulation_config_digest(defaults),
            0x3f15df282c4d4ddbULL);
  EXPECT_EQ(behavior::run_identity_digest(model, defaults, 4),
            0xd5ccf4628932f69aULL);
  EXPECT_EQ(sim::fault_config_digest(defaults.faults), 0x898f07d6f6d89c5bULL);
  const auto faulted = tiny_fault_config();
  EXPECT_EQ(sim::fault_config_digest(faulted.faults), 0x0dc853200b181216ULL);
}

TEST(DurableReplace, ReplacesTheWholeFileAndLeavesNoTemporary) {
  const std::string dir = fresh_dir("durable_replace");
  fs::create_directories(dir);
  const std::string path = dir + "/file.bin";
  const auto write = [](const std::string& text) {
    return [text](std::FILE* file) {
      std::fwrite(text.data(), 1, text.size(), file);
    };
  };
  util::durable_replace(path, write("a longer first version"));
  util::durable_replace(path, write("second"));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(DurableReplace, FailuresThrowAndKeepTheOldFile) {
  const std::string dir = fresh_dir("durable_replace_fail");
  fs::create_directories(dir);
  const std::string path = dir + "/file.bin";
  util::durable_replace(path, [](std::FILE* file) {
    std::fputs("old", file);
  });
  // A writer that fails half-way must leave the old file in place.
  EXPECT_THROW(util::durable_replace(path,
                                     [](std::FILE* file) {
                                       std::fputs("torn", file);
                                       throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  std::ifstream in(path, std::ios::binary);
  std::string bytes;
  std::getline(in, bytes);
  EXPECT_EQ(bytes, "old");
  // A target directory that does not exist is an error with its errno.
  try {
    util::durable_replace(dir + "/missing/file.bin", [](std::FILE*) {});
    FAIL() << "expected std::system_error";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ENOENT);
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, SigkillAtRandomizedPointsThenResumeIsByteIdentical) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 2, 2);
  const std::string expected = serialize(plain);

  const std::string dir = fresh_dir("sigkill");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  // A small fsync cadence so even an early kill leaves a durable prefix
  // whose torn tail the recovery scan has to deal with.
  durability.sync_interval_records = 256;

  // Kill the durable run at randomized delays a few times in a row; each
  // resume picks up whatever the previous victim left behind.
  stats::Rng rng(7);
  for (int round = 0; round < 3; ++round) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: run to completion unless the parent kills us first.  Any
      // failure must not look like a pass.
      try {
        (void)behavior::simulate_trace_durable(model, config, 2, 2,
                                               durability);
        _exit(0);
      } catch (...) {
        _exit(1);
      }
    }
    const unsigned delay_ms = 30 + static_cast<unsigned>(rng.next_u64() % 300);
    ::usleep(delay_ms * 1000);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // Either we killed it mid-run or it finished cleanly first; both are
    // valid starting states for a resume.
    ASSERT_TRUE(WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) == 0));
  }

  behavior::RecoverySummary summary;
  const trace::Trace resumed = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, &summary);
  EXPECT_EQ(serialize(resumed), expected);
  // The kills above land mid-run with overwhelming probability, so the
  // resume should have found durable state; records_truncated stays
  // within one torn frame per shard per scan by construction (asserted
  // structurally in test_spool, not re-counted here).
  EXPECT_GT(summary.segments_scanned, 0u);

  // And a second resume sees both shards complete.
  behavior::RecoverySummary again;
  const trace::Trace reloaded = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, &again);
  EXPECT_EQ(serialize(reloaded), expected);
  EXPECT_EQ(again.shards_completed_prior, 2u);
  fs::remove_all(dir);
}
#endif  // defined(__unix__)

// Neighbor-churn self-healing -------------------------------------------

behavior::TraceSimulationConfig replenish_config() {
  auto config = tiny_fault_config();
  // Crash hard and often so the neighbor set decays visibly, and heal
  // with a fast backoff so the tiny window shows replenishment.
  config.faults.crash_rate = 1.0 / 120.0;
  config.node.replenish = true;
  config.node.replenish_target = 20;
  config.node.replenish_backoff_base = 0.5;
  config.node.replenish_backoff_max = 8.0;
  return config;
}

TEST(Replenish, SelfHealingIsDeterministicAndCounted) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = replenish_config();

  std::vector<std::string> bytes;
  std::uint64_t spawns = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t requests = 0;
  for (int run = 0; run < 2; ++run) {
    trace::Trace trace;
    behavior::TraceSimulation simulation(model, config, trace);
    simulation.run();
    bytes.push_back(serialize(trace));
    spawns = simulation.node().replenish_spawns();
    scheduled = simulation.node().replenish_scheduled();
    requests = 0;
    for (const auto count : simulation.node().replenish_by_reason()) {
      requests += count;
    }
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  // Crashes at this rate starve the neighbor set, so healing must have
  // actually fired — these are the recovery.replenish.* obs counters.
  EXPECT_GT(requests, 0u);
  EXPECT_GT(scheduled, 0u);
  EXPECT_GT(spawns, 0u);
  // Backoff arms one timer at a time: never more timers than requests.
  EXPECT_LE(scheduled, requests + spawns);
}

TEST(Replenish, DisabledReplenishIsByteIdenticalToPreRecoveryBehavior) {
  const auto model = core::WorkloadModel::paper_default();
  auto off = tiny_fault_config();
  auto off_with_hook = off;  // replenish stays false: the hook is inert

  trace::Trace a;
  {
    behavior::TraceSimulation simulation(model, off, a);
    simulation.run();
    EXPECT_EQ(simulation.node().replenish_spawns(), 0u);
    EXPECT_EQ(simulation.node().replenish_scheduled(), 0u);
  }
  trace::Trace b;
  {
    behavior::TraceSimulation simulation(model, off_with_hook, b);
    simulation.run();
  }
  EXPECT_EQ(serialize(a), serialize(b));
  ASSERT_GT(a.size(), 0u);
}

TEST(Replenish, DurableRunWithReplenishStillResumesByteIdentical) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = replenish_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 2, 1);

  const std::string dir = fresh_dir("replenish");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace durable =
      behavior::simulate_trace_durable(model, config, 2, 2, durability);
  EXPECT_EQ(serialize(durable), serialize(plain));

  durability.resume = true;
  const trace::Trace resumed =
      behavior::simulate_trace_durable(model, config, 2, 2, durability);
  EXPECT_EQ(serialize(resumed), serialize(plain));
  fs::remove_all(dir);
}

// Salvage-mode durability and sidecar self-healing (DESIGN.md §14) ------

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// XORs one byte of `path` in place (offset < file size).
void flip_byte(const std::string& path, std::uint64_t offset,
               unsigned char mask) {
  std::vector<char> bytes = read_bytes(path);
  ASSERT_LT(offset, bytes.size()) << path;
  bytes[offset] = static_cast<char>(bytes[offset] ^ mask);
  write_bytes(path, bytes);
}

/// Byte offset (and size through `frame_size`) of frame `n` of a spool
/// segment, walked from the length headers.
std::uint64_t nth_frame_offset(const std::string& segment_path, std::size_t n,
                               std::uint64_t* frame_size) {
  const std::vector<char> bytes = read_bytes(segment_path);
  std::uint64_t pos = trace::kSpoolHeaderBytes;
  for (std::size_t i = 0;; ++i) {
    EXPECT_LE(pos + 8, bytes.size()) << "segment has fewer than " << n
                                     << " frames";
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    if (i == n) {
      if (frame_size != nullptr) *frame_size = 8 + len;
      return pos;
    }
    pos += 8 + len;
  }
}

behavior::TraceSimulationConfig sidecar_config() {
  auto config = tiny_fault_config();
  config.qtrace.sample_rate = 1.0;
  config.timeline.tick_seconds = 60.0;
  return config;
}

TEST(CheckpointSalvage, DamagedSidecarsAreRebuiltDeterministically) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = sidecar_config();
  const std::string dir = fresh_dir("sidecar");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  std::vector<obs::QueryHopEvent> qtrace_first;
  std::vector<obs::TimelinePoint> timeline_first;
  const trace::Trace first = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, nullptr, nullptr, &qtrace_first,
      &timeline_first);
  ASSERT_FALSE(qtrace_first.empty());
  ASSERT_FALSE(timeline_first.empty());

  // Bit-flip one byte inside each sidecar of shard 0: the CRC trailer
  // must reject the load, and the resume must rebuild both by replaying
  // the shard (digest-verified against its intact spool).
  const std::string shard0 = behavior::checkpoint_shard_dirs(dir, 2)[0];
  const std::string qtrace_path = obs::qtrace_sidecar_path(shard0);
  const std::string timeline_path = obs::timeline_sidecar_path(shard0);
  flip_byte(qtrace_path, fs::file_size(qtrace_path) / 2, 0x40);
  flip_byte(timeline_path, fs::file_size(timeline_path) / 2, 0x40);

  durability.resume = true;
  behavior::RecoverySummary summary;
  std::vector<obs::QueryHopEvent> qtrace_second;
  std::vector<obs::TimelinePoint> timeline_second;
  const trace::Trace second = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, &summary, nullptr, &qtrace_second,
      &timeline_second);
  EXPECT_EQ(serialize(second), serialize(first));
  EXPECT_EQ(summary.sidecars_rebuilt, 1u);  // one shard, both its sidecars
  EXPECT_GT(summary.events_replayed, 0u);   // the rebuild is a real replay
  EXPECT_FALSE(summary.salvage.damaged());

  // The rebuilt streams are value-identical: compare their canonical
  // serialized form.
  const std::string tmp_a = ::testing::TempDir() + "/p2pgen_sidecar_a.bin";
  const std::string tmp_b = ::testing::TempDir() + "/p2pgen_sidecar_b.bin";
  obs::save_qtrace(tmp_a, qtrace_first);
  obs::save_qtrace(tmp_b, qtrace_second);
  EXPECT_EQ(read_bytes(tmp_a), read_bytes(tmp_b));
  obs::save_timeline(tmp_a, timeline_first, config.timeline.tick_seconds);
  obs::save_timeline(tmp_b, timeline_second, config.timeline.tick_seconds);
  EXPECT_EQ(read_bytes(tmp_a), read_bytes(tmp_b));

  // The rebuild rewrote valid sidecars: a further resume loads cleanly.
  behavior::RecoverySummary again;
  (void)behavior::simulate_trace_durable(model, config, 2, 2, durability,
                                         &again);
  EXPECT_EQ(again.sidecars_rebuilt, 0u);
  EXPECT_EQ(again.shards_completed_prior, 2u);
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, StopReasonRoundTripsAndResumeClearsIt) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("stopreason");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  (void)behavior::simulate_trace_durable(model, config, 2, 1, durability);

  behavior::write_checkpoint_stop_reason(dir, "enospc",
                                         "spool: short write (disk full?)");
  behavior::CheckpointStatus status = behavior::read_checkpoint_status(dir);
  EXPECT_EQ(status.n_shards, 2u);
  EXPECT_EQ(status.shards_done, 2u);
  EXPECT_TRUE(status.complete);
  EXPECT_EQ(status.stop_reason, "enospc");
  EXPECT_EQ(status.stop_detail, "spool: short write (disk full?)");

  // Resuming a stopped run means the operator fixed the cause; a stale
  // stop must not spook the next runwatch/supervise.
  durability.resume = true;
  (void)behavior::simulate_trace_durable(model, config, 2, 1, durability);
  status = behavior::read_checkpoint_status(dir);
  EXPECT_TRUE(status.complete);
  EXPECT_TRUE(status.stop_reason.empty());
  EXPECT_TRUE(status.stop_detail.empty());
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, CleanCheckpointSalvageResumeIsBitIdenticalToStrict) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_clean");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first =
      behavior::simulate_trace_durable(model, config, 3, 2, durability);

  durability.resume = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    behavior::DurabilityConfig strict = durability;
    const trace::Trace a = behavior::simulate_trace_durable(model, config, 3,
                                                            threads, strict);
    behavior::DurabilityConfig salvage = durability;
    salvage.salvage = true;
    behavior::RecoverySummary summary;
    const trace::Trace b = behavior::simulate_trace_durable(
        model, config, 3, threads, salvage, &summary);
    EXPECT_EQ(serialize(a), serialize(first)) << threads << " threads";
    EXPECT_EQ(serialize(b), serialize(first)) << threads << " threads";
    EXPECT_FALSE(summary.salvage.damaged());
    EXPECT_EQ(summary.salvage.frames_lost, 0u);
    EXPECT_EQ(summary.spools_reset, 0u);
    EXPECT_EQ(summary.sidecars_rebuilt, 0u);
  }
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, DamagedDoneSpoolLosesOnlyTheDamagedFrame) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_done");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first =
      behavior::simulate_trace_durable(model, config, 2, 2, durability);

  // One corrupted payload byte in an interior frame of shard 1's spool.
  const std::string shard1 = behavior::checkpoint_shard_dirs(dir, 2)[1];
  const std::string segment = trace::spool_segment_paths(shard1).front();
  std::uint64_t frame_size = 0;
  const std::uint64_t offset = nth_frame_offset(segment, 10, &frame_size);
  flip_byte(segment, offset + 12, 0x20);

  // Strict resume refuses: a completed shard's spool must never tear.
  durability.resume = true;
  EXPECT_THROW(
      behavior::simulate_trace_durable(model, config, 2, 2, durability),
      std::runtime_error);

  // Salvage resume completes with exactly that frame's record lost, the
  // loss quarantined and tagged with its shard and sim-time gap window.
  durability.salvage = true;
  behavior::RecoverySummary summary;
  const trace::Trace salvaged = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, &summary);
  EXPECT_EQ(salvaged.size(), first.size() - 1);
  EXPECT_TRUE(summary.salvage.damaged());
  EXPECT_EQ(summary.salvage.frames_lost, 1u);
  ASSERT_EQ(summary.salvage.ranges.size(), 1u);
  const trace::SalvageRange& range = summary.salvage.ranges[0];
  EXPECT_EQ(range.shard, 1u);
  EXPECT_EQ(range.byte_begin, offset);
  EXPECT_EQ(range.byte_end, offset + frame_size);
  EXPECT_LE(range.time_before, range.time_after);

  // The same damage salvages identically on a second resume.
  behavior::RecoverySummary again;
  const trace::Trace repeat = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, &again);
  EXPECT_EQ(serialize(repeat), serialize(salvaged));
  EXPECT_EQ(again.salvage.frames_lost, 1u);
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, DamagedUnfinishedSpoolIsTruncatedAndResimulated) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_unfinished");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  durability.segment_max_records = 512;  // several segments per shard
  const trace::Trace first =
      behavior::simulate_trace_durable(model, config, 2, 2, durability);

  // Rewrite the MANIFEST with shard 1 no longer done (as if the run was
  // killed mid-shard), then damage an interior segment of its spool.
  const std::string manifest_path = dir + "/MANIFEST";
  {
    std::ifstream in(manifest_path);
    std::ostringstream kept;
    std::string line;
    while (std::getline(in, line)) {
      if (line != "done 1") kept << line << "\n";
    }
    std::ofstream out(manifest_path, std::ios::trunc);
    out << kept.str();
  }
  const std::string shard1 = behavior::checkpoint_shard_dirs(dir, 2)[1];
  const std::vector<std::string> segments = trace::spool_segment_paths(shard1);
  ASSERT_GT(segments.size(), 2u);
  flip_byte(segments[0], trace::kSpoolHeaderBytes + 100, 0x11);

  // Strict resume refuses the interior damage outright.
  durability.resume = true;
  EXPECT_THROW(
      behavior::simulate_trace_durable(model, config, 2, 2, durability),
      std::runtime_error);

  // Salvage resume truncates the unfinished spool to its clean prefix
  // and re-simulates: byte-identical output, ZERO loss, no gap windows.
  durability.salvage = true;
  behavior::RecoverySummary summary;
  const trace::Trace resumed = behavior::simulate_trace_durable(
      model, config, 2, 2, durability, &summary);
  EXPECT_EQ(serialize(resumed), serialize(first));
  EXPECT_EQ(summary.spools_reset, 1u);
  EXPECT_GT(summary.bytes_truncated, 0u);
  EXPECT_GT(summary.events_replayed, 0u);
  EXPECT_FALSE(summary.salvage.damaged());
  fs::remove_all(dir);
}

#if defined(__unix__)
TEST(CheckpointSalvage, WriteErrorCheckpointsAndStopsCleanly) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "running as root: permission bits are not enforced";
  }
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 2, 2);

  // Shard 1's spool directory is unwritable: the first append fails the
  // way a full or failing volume would, and the run must checkpoint and
  // stop cleanly with the reason in the MANIFEST.
  const std::string dir = fresh_dir("cleanstop");
  const std::string shard1 = behavior::checkpoint_shard_dirs(dir, 2)[1];
  fs::create_directories(shard1);
  fs::permissions(shard1, fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);

  behavior::DurabilityConfig durability;
  durability.dir = dir;
  try {
    (void)behavior::simulate_trace_durable(model, config, 2, 2, durability);
    FAIL() << "expected CheckpointStopped";
  } catch (const behavior::CheckpointStopped& stopped) {
    EXPECT_EQ(stopped.reason(), "io-error");
  }
  behavior::CheckpointStatus status = behavior::read_checkpoint_status(dir);
  EXPECT_EQ(status.stop_reason, "io-error");
  EXPECT_FALSE(status.stop_detail.empty());
  EXPECT_FALSE(status.complete);

  // "Free disk space" and resume: the run completes byte-identically and
  // the stale stop reason is cleared.
  fs::permissions(shard1, fs::perms::owner_all, fs::perm_options::replace);
  durability.resume = true;
  const trace::Trace resumed =
      behavior::simulate_trace_durable(model, config, 2, 2, durability);
  EXPECT_EQ(serialize(resumed), serialize(plain));
  status = behavior::read_checkpoint_status(dir);
  EXPECT_TRUE(status.complete);
  EXPECT_TRUE(status.stop_reason.empty());
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, SidecarWriteErrorCheckpointsAndStopsCleanly) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = sidecar_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 2, 2);

  // A directory where shard 0's qtrace temporary must go: the sidecar
  // write fails (EISDIR, even as root) the way a full volume would, after
  // the shard's spool is complete but before the shard is marked done.
  const std::string dir = fresh_dir("sidecar_stop");
  const std::string blocker =
      obs::qtrace_sidecar_path(behavior::checkpoint_shard_dirs(dir, 2)[0]) +
      ".tmp";
  fs::create_directories(blocker);

  behavior::DurabilityConfig durability;
  durability.dir = dir;
  try {
    (void)behavior::simulate_trace_durable(model, config, 2, 2, durability);
    FAIL() << "expected CheckpointStopped";
  } catch (const behavior::CheckpointStopped& stopped) {
    EXPECT_EQ(stopped.reason(), "io-error");
  }
  behavior::CheckpointStatus status = behavior::read_checkpoint_status(dir);
  EXPECT_EQ(status.stop_reason, "io-error");
  EXPECT_FALSE(status.complete);

  fs::remove_all(blocker);
  durability.resume = true;
  const trace::Trace resumed =
      behavior::simulate_trace_durable(model, config, 2, 2, durability);
  EXPECT_EQ(serialize(resumed), serialize(plain));
  status = behavior::read_checkpoint_status(dir);
  EXPECT_TRUE(status.complete);
  EXPECT_TRUE(status.stop_reason.empty());
  fs::remove_all(dir);
}
#endif  // defined(__unix__)

}  // namespace
}  // namespace p2pgen
