// perfbench — the simulate->analyze benchmark binary.
//
//   perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --dir <work dir> [--spans-out <file>]
//                 [--pin-digest <hex> --pin-filters <11 rows> --pin-fits <hex>]
//   perfbench prepare --seed <n> --dir <checkpoint dir>
//   perfbench probe <seconds>
//
// `run` sets up kSetups times over the seed's input (median = setup_s),
// then runs whole pipeline passes until --seconds have been measured and
// reports throughput over the median pass.  Host-speed probes (`probe`,
// a child process; see run_probe) run between the set-ups and passes,
// and the reported times are scaled by their median to the reference
// host's speed.
// Every pass is checked; the checks' tally is the result's
// attempted/failed.  With --trace 1 it instead reports the per-layer
// ledger: untraced passes alternating with traced passes (benchmark spans
// around each public call plus the program's built-in spans), then one
// live pass and the layer replays.
//
// `prepare` builds a durable-streaming checkpoint and prints its
// materialized oracle; reanalyze-streaming runs it as a child process so
// the oracle's O(trace) memory stays out of the measured process.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/dataset.hpp"
#include "analysis/measures.hpp"
#include "analysis/parallel.hpp"
#include "analysis/streaming.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "geo/geoip.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "trace/spool.hpp"
#include "trace/trace_io.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 20040315;
/// Fewest measured passes per run, however short --seconds is (a traced
/// run splits them between untraced and traced passes).
constexpr int kMinPasses = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Starts a new peak-RSS window: Linux resets the process's high-water
/// mark (VmHWM) to its current RSS on a write of "5" to clear_refs.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS of the process since the last reset_peak_rss(), in bytes.
std::uint64_t window_peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

analysis::FilterReport parse_filter_rows(const std::string& text) {
  std::vector<std::uint64_t> v;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) v.push_back(std::stoull(item));
  if (v.size() != 11) throw std::invalid_argument("expected 11 Table-2 rows");
  analysis::FilterReport f;
  f.initial_queries = v[0];
  f.initial_sessions = v[1];
  f.rule1_removed = v[2];
  f.rule2_removed = v[3];
  f.rule3_removed_queries = v[4];
  f.rule3_removed_sessions = v[5];
  f.final_queries = v[6];
  f.final_sessions = v[7];
  f.rule4_excluded = v[8];
  f.rule5_excluded = v[9];
  f.interarrival_queries = v[10];
  return f;
}

struct Args {
  std::string mode;
  std::string workload_name = "materialized-clean";
  Workload workload = Workload::kMaterializedClean;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string spans_out;
  std::optional<PassOutputs> pins;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench run|prepare|probe ...");
  Args args;
  args.mode = argv[1];
  std::map<std::string, std::string> kv;
  for (int i = 2; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  auto get = [&](const char* key) -> const std::string* {
    auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  };
  if (const auto* v = get("--workload")) args.workload_name = *v;
  args.workload = parse_workload(args.workload_name);
  if (const auto* v = get("--seed")) args.seed = std::stoull(*v);
  if (const auto* v = get("--seconds")) args.seconds = std::stod(*v);
  if (const auto* v = get("--trace")) args.trace = *v == "1";
  if (const auto* v = get("--dir")) args.dir = *v;
  if (const auto* v = get("--spans-out")) args.spans_out = *v;
  if (args.dir.empty()) throw std::invalid_argument("--dir is required");
  const auto* pin_digest = get("--pin-digest");
  const auto* pin_filters = get("--pin-filters");
  const auto* pin_fits = get("--pin-fits");
  if (pin_digest && pin_filters && pin_fits) {
    PassOutputs pins;
    pins.digest = std::stoull(*pin_digest, nullptr, 16);
    pins.filters = parse_filter_rows(*pin_filters);
    pins.fits_digest = std::stoull(*pin_fits, nullptr, 16);
    args.pins = pins;
  } else if (pin_digest || pin_filters || pin_fits) {
    throw std::invalid_argument("pins need --pin-digest, --pin-filters and --pin-fits");
  }
  return args;
}

/// A ledger span that is a no-op when the pass is untraced.
class MaybeSpan {
 public:
  MaybeSpan(Ledger* ledger, const char* name, std::uint32_t parent,
            std::uint32_t run) {
    if (ledger != nullptr) scope_.emplace(*ledger, name, parent, run);
  }
  std::uint32_t id() const noexcept { return scope_ ? scope_->id() : 0; }

 private:
  std::optional<Ledger::Scope> scope_;
};

/// Everything a pass needs besides its outputs.
struct Context {
  Workload workload;
  core::WorkloadModel model = core::WorkloadModel::paper_default();
  behavior::TraceSimulationConfig config;
  unsigned threads = 1;
  geo::GeoIpDatabase geodb = geo::GeoIpDatabase::synthetic();
  std::string spool_dir;  ///< durable-streaming output
  std::vector<std::string> checkpoint_dirs;  ///< reanalyze-streaming input
};

/// One whole pipeline pass through the public entry points.
/// `tracked_sessions` receives the streaming pass's session-table
/// high-water mark.
PassOutputs run_pass(const Context& ctx, Ledger* ledger, std::uint32_t run,
                     std::uint64_t* tracked_sessions = nullptr) {
  const behavior::TraceSimulationConfig& config = ctx.config;
  PassOutputs out;
  MaybeSpan pass(ledger, "pass", 0, run);
  if (ctx.workload == Workload::kMaterializedClean) {
    trace::Trace trace;
    {
      MaybeSpan s(ledger, "simulate_trace_sharded", pass.id(), run);
      trace = behavior::simulate_trace_sharded(ctx.model, config, kShards,
                                               ctx.threads);
    }
    out.events = trace.size();
    {
      MaybeSpan s(ledger, "binary_digest", pass.id(), run);
      out.digest = trace::binary_digest(trace);
    }
    analysis::TraceDataset dataset;
    {
      MaybeSpan s(ledger, "build_dataset", pass.id(), run);
      dataset = analysis::build_dataset(trace, ctx.geodb);
    }
    {
      MaybeSpan s(ledger, "apply_filters", pass.id(), run);
      out.filters = analysis::apply_filters(dataset);
    }
    analysis::SessionMeasures measures;
    {
      MaybeSpan s(ledger, "session_measures", pass.id(), run);
      measures = analysis::session_measures(dataset);
    }
    analysis::AppendixFits fits;
    core::WorkloadModel refit;
    {
      MaybeSpan s(ledger, "fit_appendix_tables", pass.id(), run);
      fits = analysis::fit_appendix_tables(measures);
    }
    {
      MaybeSpan s(ledger, "fit_workload_model", pass.id(), run);
      refit = analysis::fit_workload_model(dataset);
    }
    record_fits(out, fits, refit);
    return out;
  }

  std::vector<std::string> dirs;
  if (ctx.workload == Workload::kReanalyzeStreaming) dirs = ctx.checkpoint_dirs;
  if (ctx.workload == Workload::kDurableStreaming) {
    MaybeSpan s(ledger, "simulate_to_spools", pass.id(), run);
    behavior::DurabilityConfig durability;
    durability.dir = ctx.spool_dir;
    dirs = behavior::simulate_to_spools(ctx.model, config, kShards,
                                        ctx.threads, durability);
  }
  analysis::StreamingOptions options;
  options.threads = ctx.threads;
  analysis::StreamingResult result;
  {
    MaybeSpan s(ledger, "analyze_spools", pass.id(), run);
    result = analysis::analyze_spools(dirs, ctx.geodb, options);
  }
  out.events = result.events;
  out.digest = result.trace_digest;
  out.filters = result.filters;
  record_fits(out, result.fits, result.model);
  if (tracked_sessions != nullptr) {
    *tracked_sessions = result.streaming.max_tracked_sessions;
  }
  return out;
}

// ---- prepare: checkpoint + materialized oracle ----------------------------

void print_oracle(std::ostream& os, const PassOutputs& o) {
  os << "oracle " << o.events << ' ' << hex(o.digest) << ' '
     << hex(o.fits_digest) << ' ' << (o.fits_finite ? 1 : 0) << ' '
     << format_filter_rows(o.filters) << "\n";
}

PassOutputs parse_oracle(const std::string& text) {
  std::istringstream is(text);
  std::string tag, digest, fits, rows;
  PassOutputs o;
  int finite = 0;
  is >> tag >> o.events >> digest >> fits >> finite >> rows;
  if (!is || tag != "oracle") throw std::runtime_error("malformed oracle: " + text);
  o.digest = std::stoull(digest, nullptr, 16);
  o.fits_digest = std::stoull(fits, nullptr, 16);
  o.fits_finite = finite == 1;
  o.filters = parse_filter_rows(rows);
  return o;
}

int prepare(const Args& args, unsigned threads) {
  const auto config = workload_config(Workload::kDurableStreaming, args.seed);
  const auto model = core::WorkloadModel::paper_default();
  fs::remove_all(args.dir);
  behavior::DurabilityConfig durability;
  durability.dir = args.dir;
  const auto dirs = behavior::simulate_to_spools(model, config, kShards,
                                                 threads, durability);
  std::vector<trace::Trace> shards(dirs.size());
  for (std::size_t k = 0; k < dirs.size(); ++k) shards[k] = trace::read_spool(dirs[k]);
  const trace::Trace trace = trace::merge_traces(std::move(shards));
  PassOutputs o;
  o.events = trace.size();
  o.digest = trace::binary_digest(trace);
  analysis::TraceDataset dataset =
      analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  o.filters = analysis::apply_filters(dataset);
  const auto fits = analysis::fit_appendix_tables(analysis::session_measures(dataset));
  record_fits(o, fits, analysis::fit_workload_model(dataset));
  print_oracle(std::cout, o);
  return 0;
}

/// Runs this binary as a child process with `argv_text` (argv_text[0] is
/// the binary) and returns its standard output; throws if it fails.
std::string run_child(std::vector<std::string> argv_text) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (auto& s : argv_text) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, argv_text[0].c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string output;
  if (rc == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (rc != 0) throw std::runtime_error("posix_spawn failed for " + argv_text[1]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(argv_text[1] + " child failed");
  }
  return output;
}

/// Runs `self prepare` as a child process and returns its oracle.
PassOutputs spawn_prepare(const std::string& self, std::uint64_t seed,
                          const std::string& dir) {
  return parse_oracle(run_child({self, "prepare", "--seed", std::to_string(seed),
                                 "--dir", dir}));
}

/// `probe <seconds>`: host-speed probes until `seconds` have passed (at
/// least one), each printed as "probe <cpu s> <checksum>".
int probe(double seconds) {
  const auto start = Clock::now();
  std::cout << std::setprecision(17);
  do {
    const ProbeTiming t = run_probe();
    std::cout << "probe " << t.cpu_s << ' ' << t.checksum << "\n";
  } while (seconds_since(start) < seconds);
  return 0;
}

/// Probes the host for `seconds` in a child process, so the probe's
/// allocations leave the measured process's heap and peak RSS as they
/// were.  Returns the probes' CPU times.
std::vector<double> spawn_probe(const std::string& self, double seconds) {
  std::istringstream is(run_child({self, "probe", std::to_string(seconds)}));
  std::vector<double> cpu_s;
  std::string tag;
  ProbeTiming t;
  while (is >> tag >> t.cpu_s >> t.checksum) {
    if (tag != "probe") throw std::runtime_error("malformed probe output");
    cpu_s.push_back(t.cpu_s);
  }
  if (cpu_s.empty()) throw std::runtime_error("probe printed nothing");
  return cpu_s;
}

// ---- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool present = true;  ///< false: the layer does no work on this workload
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << checks.attempted()
     << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::uint64_t pool_counter_sum(const obs::MetricsSnapshot& delta,
                               const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& c : delta.counters) {
    if (c.name.rfind("pool.", 0) == 0 && c.name.size() > suffix.size() &&
        c.name.compare(c.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += c.value;
    }
  }
  return total;
}

/// Host-speed probes of a --trace 0 run (see run_probe): before the
/// first set-up and after every set-up and pass.  The --trace 1 ledger is
/// not scaled, so it does not probe.
class HostProbes {
 public:
  explicit HostProbes(std::string self) : self_(std::move(self)) {}

  /// Probes after a set-up or pass that took `wall_s`.
  void probe(double wall_s) {
    for (double c : spawn_probe(self_, kProbeShare * wall_s)) cpu_s_.push_back(c);
  }

  /// How much slower than the reference host this run's host was: the
  /// median probe over the reference probe.  A median over the whole
  /// run, so a probe caught by a burst of outside load does not count.
  double slowdown() const { return median(cpu_s_) / kReferenceProbeCpuS; }
  std::size_t count() const noexcept { return cpu_s_.size(); }

 private:
  std::string self_;
  std::vector<double> cpu_s_;
};

/// Per-pass figures of a measured phase.
struct Measured {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::uint64_t events = 0;
  std::vector<double> spool_bytes;
  std::vector<double> tracked_sessions;  ///< streaming session-table peaks
  std::vector<double> peak_rss_bytes;    ///< process peak RSS during each pass
  std::uint64_t pool_tasks = 0;          ///< summed over the passes
  std::uint64_t pool_steals = 0;

  /// Events of one pass over the median pass time: robust to a pass
  /// slowed by outside load.
  double events_per_s() const {
    return static_cast<double>(events) / median(wall_s);
  }
  /// Process CPU seconds of the median pass per million events.
  double cpu_s_per_mevent() const {
    return median(cpu_s) / (static_cast<double>(events) * 1e-6);
  }
};

/// Runs checked passes until `seconds` have been measured, each compared
/// with the set-up reference and followed by host probes if given.  Given a
/// ledger, every other pass is traced (ledger spans, obs::TraceLog on,
/// pool counters collected) and lands in `traced`, so drift of the host
/// over the run falls on both halves alike.
void measure(const Context& ctx, const PassOutputs& reference, double seconds,
             Checks& checks, HostProbes* probes, Measured& untraced,
             Ledger* ledger = nullptr, Measured* traced = nullptr) {
  obs::TraceLog& log = obs::TraceLog::global();
  const auto start = Clock::now();
  for (int pass = 0; pass < kMinPasses || seconds_since(start) < seconds; ++pass) {
    const bool tracing = ledger != nullptr && pass % 2 == 1;
    Measured& m = tracing ? *traced : untraced;
    // Traced passes are ledger runs 1, 2, ...
    const std::uint32_t run = tracing ? static_cast<std::uint32_t>(m.wall_s.size() + 1) : 0;
    if (!ctx.spool_dir.empty()) fs::remove_all(ctx.spool_dir);
    obs::MetricsSnapshot before;
    if (tracing) before = obs::Registry::global().snapshot();
    log.set_enabled(tracing);
    std::uint64_t tracked = 0;
    reset_peak_rss();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const PassOutputs out = run_pass(ctx, tracing ? ledger : nullptr, run, &tracked);
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_seconds() - cpu0;
    m.peak_rss_bytes.push_back(static_cast<double>(window_peak_rss_bytes()));
    log.set_enabled(false);
    // Drained after every pass, so a traced pass's delta holds only its own.
    analysis::publish_analysis_pool_metrics();
    if (tracing) {
      const obs::MetricsSnapshot delta = obs::Registry::global().delta(before);
      m.pool_tasks += pool_counter_sum(delta, ".tasks_executed");
      m.pool_steals += pool_counter_sum(delta, ".steals");
    }
    if (probes != nullptr) probes->probe(wall);
    m.wall_s.push_back(wall);
    m.cpu_s.push_back(cpu);
    m.events = out.events;
    if (!ctx.spool_dir.empty()) {
      m.spool_bytes.push_back(static_cast<double>(dir_bytes(ctx.spool_dir)));
    }
    m.tracked_sessions.push_back(static_cast<double>(tracked));
    const std::string label = std::string(tracing ? "traced" : "measured") +
                              " pass " + std::to_string(pass);
    checks.invariants(out, label);
    checks.same(out, reference, label + " vs set-up reference");
    // Hand freed heap back to the system between passes, so every pass
    // starts from a footprint like a fresh process's and its peak RSS
    // does not depend on how many passes came before.
    ::malloc_trim(0);
  }
}

double mib(double bytes) { return bytes / kMiB; }

/// Per-pass figures of the traced passes, from the ledger and the
/// program's built-in spans (assigned to the pass whose window holds
/// their start).
class PassSpans {
 public:
  PassSpans(const std::vector<Ledger::Span>& bench,
            const std::vector<obs::TraceLog::Span>& builtin)
      : bench_(bench), builtin_(builtin) {
    for (const auto& s : bench) {
      if (s.name == "pass") windows_.emplace_back(s.start_us, s.end_us);
    }
  }

  std::size_t passes() const noexcept { return windows_.size(); }

  /// Median over passes of the summed duration of benchmark spans `name`.
  double bench_median(const std::string& name) const {
    std::vector<double> per(windows_.size(), 0.0);
    for (const auto& s : bench_) {
      if (s.name == name && s.run >= 1 && s.run <= per.size()) {
        per[s.run - 1] += static_cast<double>(s.end_us - s.start_us) * 1e-6;
      }
    }
    return median(per);
  }

  /// Durations (s) of built-in spans `name`, grouped by pass.
  std::vector<std::vector<double>> builtin(const std::string& name) const {
    std::vector<std::vector<double>> per(windows_.size());
    for (const auto& s : builtin_) {
      if (s.name != name) continue;
      for (std::size_t r = 0; r < windows_.size(); ++r) {
        if (windows_[r].first <= s.start_us && s.start_us <= windows_[r].second) {
          per[r].push_back(static_cast<double>(s.duration_us) * 1e-6);
          break;
        }
      }
    }
    return per;
  }

  double builtin_sum_median(const std::string& name) const {
    std::vector<double> sums;
    for (const auto& d : builtin(name)) {
      double t = 0.0;
      for (double x : d) t += x;
      sums.push_back(t);
    }
    return median(sums);
  }

  double wall_s() const {
    double t = 0.0;
    for (const auto& [a, b] : windows_) t += static_cast<double>(b - a) * 1e-6;
    return t;
  }

 private:
  const std::vector<Ledger::Span>& bench_;
  const std::vector<obs::TraceLog::Span>& builtin_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows_;
};

void print_metric(const std::string& name, double value, const std::string& unit,
                  const char* note = "") {
  std::cout << "  " << std::left << std::setw(42) << name << std::right
            << std::setw(16) << std::setprecision(6) << value << " " << unit
            << note << "\n";
}

/// The --trace 1 run: untraced and traced passes in turn, one live pass,
/// the layer replays, and the per-layer metrics.
int traced_run(const Context& ctx, const Args& args, const PassOutputs& reference,
               Checks& checks, double checkpoint_bytes) {
  const bool materialized = ctx.workload == Workload::kMaterializedClean;
  const bool durable = ctx.workload == Workload::kDurableStreaming;
  const bool reanalyze = ctx.workload == Workload::kReanalyzeStreaming;

  Ledger ledger;
  Measured untraced;
  Measured traced;
  obs::TraceLog& log = obs::TraceLog::global();
  log.clear();
  measure(ctx, reference, args.seconds, checks, nullptr, untraced, &ledger, &traced);
  const std::vector<obs::TraceLog::Span> builtin = log.spans();
  log.clear();

  std::optional<LiveResult> live;
  ReplayResult replay;
  std::uint64_t pending_p50 = 0;
  std::uint64_t pending_max = 0;
  if (!reanalyze) {
    live = live_pass(ctx.workload, ctx.model, ctx.config, ctx.threads,
                     args.dir + "/live", ledger,
                     static_cast<std::uint32_t>(traced.wall_s.size() + 1));
    if (durable) {
      checks.same(live->outputs, reference, "live pass");
    } else {
      checks.expect(live->outputs.digest == reference.digest,
                    "live pass: trace digest differs");
    }
    std::vector<double> pending;
    for (const auto& sh : live->shards) {
      for (auto p : sh.pending_samples) {
        pending.push_back(static_cast<double>(p));
        pending_max = std::max(pending_max, p);
      }
    }
    pending_p50 = static_cast<std::uint64_t>(median(pending));
    std::uint64_t peers = 0;
    for (const auto& sh : live->shards) peers += sh.peers_spawned;
    replay = replay_layers(live->merged, ctx.model, ctx.config.seed, pending_p50,
                           peers);
    checks.expect(replay.codec_mismatches == 0,
                  "codec replay: decoded messages differ from encoded ones");
  }
  const std::vector<Ledger::Span> bench = ledger.spans();
  const PassSpans spans(bench, builtin);
  const double passes = static_cast<double>(std::max<std::size_t>(1, spans.passes()));

  // Live-pass sums.
  LiveShard sum;
  if (live) {
    for (const auto& sh : live->shards) {
      sum.cpu_s += sh.cpu_s;
      sum.events += sh.events;
      sum.kernel_executed += sh.kernel_executed;
      sum.peers_spawned += sh.peers_spawned;
      sum.messages_recorded += sh.messages_recorded;
      sum.forward_retries += sh.forward_retries;
      sum.delivered += sh.delivered;
      sum.dropped += sh.dropped;
      sum.timeline_points += sh.timeline_points;
      sum.appends += sh.appends;
      sum.append_s += sh.append_s;
      sum.syncs += sh.syncs;
      sum.sync_s += sh.sync_s;
    }
  }
  std::vector<double> shard_max, shard_imbalance;
  for (const auto& d : spans.builtin("sim.shard")) {
    if (d.empty()) continue;
    double mx = 0.0, total = 0.0;
    for (double x : d) {
      mx = std::max(mx, x);
      total += x;
    }
    shard_max.push_back(mx);
    shard_imbalance.push_back(mx / (total / static_cast<double>(d.size())));
  }
  const double events = static_cast<double>(std::max<std::uint64_t>(1, sum.events));
  const double decode_s = spans.builtin_sum_median("streaming.decode_wave");
  const double streaming_busy = spans.bench_median("analyze_spools");
  const double drain_s = spans.builtin_sum_median("pool.worker_drain") +
                         spans.builtin_sum_median("pool.caller_drain");
  const double pass_wall = spans.wall_s() / passes;
  const double spool_bytes = durable ? median(traced.spool_bytes) : checkpoint_bytes;
  const double overhead = 1.0 - traced.events_per_s() / untraced.events_per_s();

  const bool sim = !reanalyze;
  std::vector<Metric> layers = {
      {"behavior.shard.busy_s", median(shard_max), "s", sim},
      {"behavior.shard.cpu_s_per_mevent", sum.cpu_s / events * 1e6, "s/Mevent", sim},
      {"behavior.shard.imbalance", median(shard_imbalance), "ratio", sim},
      {"behavior.peers_spawned", static_cast<double>(sum.peers_spawned), "count", sim},
      {"behavior.node.messages_recorded", static_cast<double>(sum.messages_recorded), "count", sim},
      {"behavior.node.forward_retries", static_cast<double>(sum.forward_retries), "count", sim},
      {"sim.kernel.events_per_trace_event", static_cast<double>(sum.kernel_executed) / events, "ratio", sim},
      {"sim.kernel.pending_p50", static_cast<double>(pending_p50), "count", sim},
      {"sim.kernel.pending_max", static_cast<double>(pending_max), "count", sim},
      {"sim.kernel.ns_per_event", replay.kernel_ns_per_event, "ns", sim},
      {"sim.transport.delivered_ratio",
       sum.delivered + sum.dropped > 0
           ? static_cast<double>(sum.delivered) / static_cast<double>(sum.delivered + sum.dropped)
           : 0.0,
       "ratio", sim},
      {"gnutella.codec.ns_per_msg", replay.codec_ns_per_msg, "ns", sim},
      {"gnutella.codec.bytes_per_msg", replay.codec_bytes_per_msg, "B", sim},
      {"gnutella.routing.ns_per_op", replay.routing_ns_per_op, "ns", sim},
      {"gnutella.routing.peak_entries", static_cast<double>(replay.routing_peak_entries), "count", sim},
      {"core.sampler.ns_per_session", replay.sampler_ns_per_session, "ns", sim},
      {"trace.merge.busy_s", spans.builtin_sum_median("trace.merge"), "s", materialized},
      {"trace.digest.busy_s", spans.bench_median("binary_digest"), "s", materialized},
      {"trace.spool.append_ns",
       sum.appends > sum.syncs ? sum.append_s * 1e9 / static_cast<double>(sum.appends - sum.syncs) : 0.0,
       "ns", durable},
      {"trace.spool.sync_s", sum.sync_s, "s", durable},
      {"trace.spool.syncs", static_cast<double>(sum.syncs), "count", durable},
      {"trace.spool.bytes", spool_bytes, "B", !materialized},
      {"trace.spool.read_mib_per_s", decode_s > 0.0 ? mib(spool_bytes) / decode_s : 0.0, "MiB/s", !materialized},
      {"analysis.dataset.busy_s", spans.bench_median("build_dataset"), "s", materialized},
      {"analysis.filters.busy_s", spans.bench_median("apply_filters"), "s", materialized},
      {"analysis.measures.busy_s", spans.bench_median("session_measures"), "s", materialized},
      {"analysis.fits.busy_s",
       spans.bench_median("fit_appendix_tables") + spans.bench_median("fit_workload_model"), "s",
       materialized},
      {"analysis.streaming.busy_s", streaming_busy, "s", !materialized},
      {"analysis.streaming.decode_s", decode_s, "s", !materialized},
      {"analysis.streaming.consumer_s",
       std::max(0.0, streaming_busy - decode_s - spans.builtin_sum_median("streaming.fits")), "s",
       !materialized},
      {"analysis.streaming.max_tracked_sessions", median(traced.tracked_sessions), "count", !materialized},
      {"util.pool.tasks", static_cast<double>(traced.pool_tasks) / passes, "count", true},
      {"util.pool.steals", static_cast<double>(traced.pool_steals) / passes, "count", true},
      {"util.pool.idle_frac",
       pass_wall > 0.0 ? 1.0 - drain_s / (static_cast<double>(ctx.threads) * pass_wall) : 0.0, "ratio", true},
      {"obs.timeline.points", static_cast<double>(sum.timeline_points), "count", durable},
      {"obs.tracing.overhead_frac", overhead, "ratio", true},
      {"spool_mib", mib(spool_bytes), "MiB", !materialized},
      {"ops_failed_frac", 0.0, "ratio", true},
  };
  for (auto& l : layers) {
    if (!l.present) l.value = 0.0;
  }
  layers.back().value = static_cast<double>(checks.failed()) /
                        static_cast<double>(std::max<std::uint64_t>(1, checks.attempted()));

  std::cout << "tracing overhead: untraced " << untraced.events_per_s()
            << " events/s (" << untraced.wall_s.size() << " passes), traced "
            << traced.events_per_s() << " events/s (" << traced.wall_s.size()
            << " passes, interleaved)\n";
  std::cout << "self time (span minus child spans), summed over " << spans.passes()
            << " traced passes" << (live ? " and the live pass" : "") << ":\n";
  for (const SelfTime& t : self_times(bench, builtin)) {
    std::cout << "  " << std::left << std::setw(32) << t.name << std::right
              << std::setw(6) << t.count << " spans  total " << std::setw(10)
              << std::setprecision(4) << t.total_s << " s  self " << std::setw(10)
              << t.self_s << " s\n";
  }
  std::cout << "per-layer metrics (" << args.workload_name << "):\n";
  for (const auto& l : layers) {
    print_metric(l.name, l.value, l.unit, l.present ? "" : "  (absent: layer does no work here)");
  }
  if (!args.spans_out.empty()) write_spans_json(args.spans_out, bench, builtin);
  print_result(checks, layers);
  return 0;
}

int run(const Args& args, unsigned threads, const std::string& self) {
  const bool reanalyze = args.workload == Workload::kReanalyzeStreaming;
  Context ctx;
  ctx.workload = args.workload;
  ctx.config = workload_config(reanalyze ? Workload::kDurableStreaming : args.workload,
                               args.seed);
  ctx.threads = threads;
  fs::create_directories(args.dir);
  if (args.workload == Workload::kDurableStreaming) ctx.spool_dir = args.dir + "/spool";

  // Set-up, kSetups times over the same input: a warm-up pass whose
  // outputs become the reference, or (reanalyze) a checkpoint built from
  // scratch and its materialized oracle.  Nothing is cached, so set-up
  // means the same every time; every set-up must reproduce the first.
  Checks checks;
  std::vector<double> setup_s;
  PassOutputs reference;
  const std::string checkpoint = args.dir + "/checkpoint";
  HostProbes probes(self);
  HostProbes* host = args.trace ? nullptr : &probes;
  if (host != nullptr) host->probe(0.0);
  for (int k = 0; k < kSetups; ++k) {
    if (!ctx.spool_dir.empty()) fs::remove_all(ctx.spool_dir);
    const auto t0 = Clock::now();
    const PassOutputs out = reanalyze ? spawn_prepare(self, args.seed, checkpoint)
                                      : run_pass(ctx, nullptr, 0);
    setup_s.push_back(seconds_since(t0));
    if (host != nullptr) host->probe(setup_s.back());
    ::malloc_trim(0);
    const std::string label = "set-up " + std::to_string(k);
    checks.invariants(out, label);
    if (k == 0) {
      reference = out;
    } else {
      checks.same(out, reference, label + " vs set-up 0");
    }
  }
  double checkpoint_bytes = 0.0;
  if (reanalyze) {
    ctx.checkpoint_dirs = behavior::checkpoint_shard_dirs(checkpoint, kShards);
    checkpoint_bytes = static_cast<double>(dir_bytes(checkpoint));
  }
  if (args.pins) checks.same(reference, *args.pins, "pinned values");

  std::cout << "workload " << args.workload_name << ", seed " << args.seed << ", "
            << kShards << " shards on " << threads << " thread(s)\n"
            << "set-up (" << kSetups << " times): "
            << (reanalyze ? "checkpoint built from scratch + materialized oracle (child process)"
                          : "one warm-up pass, its outputs are the reference")
            << "; median " << median(setup_s) << " s as measured\n"
            << "reference: " << reference.events << " events, trace digest "
            << hex(reference.digest) << ", fits digest " << hex(reference.fits_digest)
            << ", Table-2 rows " << format_filter_rows(reference.filters) << "\n";

  int rc = 0;
  if (args.trace) {
    rc = traced_run(ctx, args, reference, checks, checkpoint_bytes);
  } else {
    Measured m;
    measure(ctx, reference, args.seconds, checks, host, m);
    // Times scaled to the reference host's speed (see HostProbes).
    const double slowdown = probes.slowdown();
    const double spool = mib(reanalyze ? checkpoint_bytes : median(m.spool_bytes));
    const double failed_frac = static_cast<double>(checks.failed()) /
                               static_cast<double>(checks.attempted());
    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s) / slowdown, "s"},
        {"events_per_s", m.events_per_s() * slowdown, "1/s"},
        {"cpu_s_per_mevent", m.cpu_s_per_mevent() / slowdown, "s/Mevent"},
        {"peak_rss_mib", mib(median(m.peak_rss_bytes)), "MiB"},
    };
    std::vector<double> walls = m.wall_s;
    std::sort(walls.begin(), walls.end());
    std::cout << "measured: " << walls.size() << " passes, wall s min " << walls.front()
              << " median " << median(walls) << " max " << walls.back() << ", "
              << m.events_per_s() << " events/s, " << m.cpu_s_per_mevent()
              << " s/Mevent\n"
              << "host: " << probes.count() << " probes, slowdown vs reference host "
              << slowdown << "\n"
              << "end-to-end metrics (times scaled to the reference host):\n";
    for (const auto& x : metrics) print_metric(x.name, x.value, x.unit);
    print_metric("spool_mib", spool, "MiB");
    print_metric("ops_failed_frac", failed_frac, "ratio",
                 (" (" + std::to_string(checks.failed()) + " of " +
                  std::to_string(checks.attempted()) + " checks)").c_str());
    print_result(checks, metrics);
  }
  fs::remove_all(args.dir);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const unsigned threads =
        std::max(1u, std::min(kMaxThreads, std::thread::hardware_concurrency()));
    if (argc >= 3 && std::string_view(argv[1]) == "probe") return probe(std::stod(argv[2]));
    const Args args = parse_args(argc, argv);
    analysis::set_analysis_threads(threads);
    if (args.mode == "prepare") return prepare(args, threads);
    if (args.mode != "run") throw std::invalid_argument("unknown mode " + args.mode);
    return run(args, threads, argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "[perfbench] error: " << e.what() << "\n";
    return 1;
  }
}
