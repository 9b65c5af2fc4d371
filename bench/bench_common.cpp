#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "analysis/parallel.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "obs/metrics.hpp"
#include "trace/spool.hpp"
#include "util/thread_pool.hpp"

namespace p2pgen::bench {
namespace {

// P2PGEN_METRICS=<path>: write the global metrics snapshot as JSON when
// the bench exits, so CI can archive pipeline health next to the tables.
void write_metrics_at_exit() {
  const char* path = std::getenv("P2PGEN_METRICS");
  if (path == nullptr) return;
  analysis::publish_analysis_pool_metrics();
  std::ofstream out(path);
  obs::Registry::global().snapshot().write_json(out);
  out << "\n";
  if (!out) std::cerr << "[bench] failed writing metrics to " << path << "\n";
}

// One attempt at the cached trace: simulate_to_spools over the cache
// checkpoint, which resumes an existing MANIFEST (a complete one
// simulates nothing; a killed cold run continues where it stopped), then
// its shard spools read back and merged.
trace::Trace read_or_build_cache(const core::WorkloadModel& model,
                                 const behavior::TraceSimulationConfig& config,
                                 const BenchScale& scale,
                                 const std::string& dir) {
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  // A cache needs shard-completion durability only: a crash re-simulates
  // the unfinished shards.
  durability.sync_interval_records = 0;
  const bool resuming = behavior::checkpoint_exists(dir);
  if (resuming && behavior::read_checkpoint_status(dir).complete) {
    std::cerr << "[bench] loading cached trace from " << dir << "\n";
  } else {
    std::cerr << "[bench] " << (resuming ? "resuming" : "simulating")
              << " " << scale.shards << " shard(s) of " << scale.days
              << " day(s) each on " << scale.threads
              << " thread(s) (master seed " << scale.seed << ") into " << dir
              << "\n";
  }
  const std::vector<std::string> shard_dirs = behavior::simulate_to_spools(
      model, config, scale.shards, scale.threads, durability);
  std::vector<trace::Trace> shards;
  shards.reserve(shard_dirs.size());
  for (const std::string& shard_dir : shard_dirs) {
    shards.push_back(trace::read_spool(shard_dir));
  }
  return trace::merge_traces(std::move(shards));
}

}  // namespace

BenchScale bench_scale() {
  // Every bench goes through bench_scale(), so this is the one choke
  // point to arm the exit hook (once per process).
  static const bool metrics_hook_armed = [] {
    if (std::getenv("P2PGEN_METRICS") != nullptr) {
      std::atexit(write_metrics_at_exit);
    }
    return true;
  }();
  (void)metrics_hook_armed;

  BenchScale scale;
  scale.threads = util::ThreadPool::recommended_threads();
  if (const char* shards = std::getenv("P2PGEN_SHARDS")) {
    const long n = std::atol(shards);
    if (n > 0) scale.shards = static_cast<unsigned>(std::min(n, 4096L));
  }
  if (const char* full = std::getenv("P2PGEN_FULL"); full && full[0] == '1') {
    scale.days = 40.0;
    scale.full = true;
    return scale;
  }
  if (const char* days = std::getenv("P2PGEN_DAYS")) {
    const double d = std::atof(days);
    if (d > 0.0) scale.days = d;
  }
  return scale;
}

behavior::TraceSimulationConfig bench_simulation_config(
    const BenchScale& scale) {
  behavior::TraceSimulationConfig config;
  config.duration_days = scale.days;
  config.warmup_days = 1.0;  // let the slot population reach equilibrium
  config.arrival_rate = scale.arrival_rate;
  config.seed = scale.seed;
  return config;
}

std::string bench_cache_dir(const BenchScale& scale) {
  std::ostringstream os;
  os << "p2pgen_bench_cache_" << std::hex << std::setfill('0') << std::setw(16)
     << behavior::run_identity_digest(core::WorkloadModel::paper_default(),
                                      bench_simulation_config(scale),
                                      scale.shards);
  return os.str();
}

const trace::Trace& bench_trace() {
  static const trace::Trace trace = [] {
    const BenchScale scale = bench_scale();
    analysis::set_analysis_threads(scale.threads);
    const behavior::TraceSimulationConfig config =
        bench_simulation_config(scale);
    const core::WorkloadModel model = core::WorkloadModel::paper_default();

    trace::Trace merged;
    bool cached = false;
    if (std::getenv("P2PGEN_NO_CACHE") == nullptr) {
      const std::string dir = bench_cache_dir(scale);
      // A damaged cache (a torn or corrupt spool) is removed and rebuilt
      // once; if that fails too, the trace is simulated in memory.
      for (int attempt = 0; attempt < 2 && !cached; ++attempt) {
        try {
          merged = read_or_build_cache(model, config, scale, dir);
          cached = true;
        } catch (const std::exception& e) {
          std::cerr << "[bench] trace cache " << dir << " failed: " << e.what()
                    << "\n";
          std::error_code ignored;
          std::filesystem::remove_all(dir, ignored);
        }
      }
    }
    if (!cached) {
      std::cerr << "[bench] simulating " << scale.shards << " shard(s) of "
                << scale.days << " day(s) each on " << scale.threads
                << " thread(s) (master seed " << scale.seed
                << ") without the cache\n";
      merged = behavior::simulate_trace_sharded(model, config, scale.shards,
                                                scale.threads);
    }
    std::cerr << "[bench] standard trace: " << merged.size() << " events, "
              << scale.shards << " shard(s)\n";
    return merged;
  }();
  return trace;
}

const BenchData& bench_data() {
  static const BenchData data = [] {
    BenchData d{analysis::build_dataset(bench_trace(),
                                        geo::GeoIpDatabase::synthetic()),
                {}};
    d.report = analysis::apply_filters(d.dataset);
    return d;
  }();
  return data;
}

const analysis::SessionMeasures& bench_measures() {
  static const analysis::SessionMeasures measures =
      analysis::session_measures(bench_data().dataset);
  return measures;
}

void print_header(const std::string& experiment, const std::string& what) {
  const BenchScale scale = bench_scale();
  std::cout << "==============================================================\n"
            << experiment << " — " << what << "\n"
            << "(Klemm et al., IMC'04 reproduction; simulated scale: "
            << scale.days << " days"
            << (scale.shards > 1
                    ? " x " + std::to_string(scale.shards) + " shards"
                    : std::string())
            << (scale.full ? " [paper scale]" : "") << ")\n"
            << "==============================================================\n";
}

void print_ccdf_family(const std::string& x_label,
                       const std::vector<std::string>& labels,
                       const std::vector<const std::vector<double>*>& samples,
                       double lo_floor, std::size_t points) {
  // Shared grid spanning all samples; ECDF construction (the sort) fans
  // across the analysis pool.
  double lo = lo_floor;
  double hi = lo_floor * 10.0;
  const std::vector<stats::Ecdf> ecdfs = analysis::build_ecdfs(samples);
  for (const auto* sample : samples) {
    if (sample != nullptr && !sample->empty()) {
      hi = std::max(hi, *std::max_element(sample->begin(), sample->end()));
    }
  }
  const auto grid = stats::log_space(lo, hi, points);

  std::cout << std::left << std::setw(14) << x_label;
  for (const auto& label : labels) std::cout << std::setw(16) << label;
  std::cout << "\n";
  std::cout << std::setw(14) << "(n =";
  for (const auto& e : ecdfs) {
    std::cout << std::setw(16) << e.size();
  }
  std::cout << ")\n";
  for (double x : grid) {
    std::cout << std::setw(14) << std::setprecision(5) << x;
    for (const auto& e : ecdfs) {
      if (e.empty()) {
        std::cout << std::setw(16) << "-";
      } else {
        std::cout << std::setw(16) << std::setprecision(4) << e.ccdf(x);
      }
    }
    std::cout << "\n";
  }
}

void print_compare(const std::string& label, double paper, double measured) {
  std::cout << "  " << std::left << std::setw(44) << label << " paper "
            << std::right << std::setw(10) << std::setprecision(4) << paper
            << "   measured " << std::setw(10) << std::setprecision(4)
            << measured << "\n";
}

}  // namespace p2pgen::bench
