// p2pgen trace inspector — CLI over measurement trace spools.
//
// A trace is a spool directory (trace/spool.hpp): CRC-framed records in
// numbered segment files, the one on-disk trace format.
//
//   trace_inspector simulate <dir> [days] [seed]   run the measurement
//                                                  simulation into a spool
//   trace_inspector stats <dir>                    Table-1 style counters
//   trace_inspector filters <dir>                  Table-2 filter report
//   trace_inspector sessions <dir> [n]             longest n sessions
//   trace_inspector figures <dir> <out-dir>        export figure CSVs + gnuplot
//   trace_inspector csv <dir>                      dump as CSV to stdout
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "analysis/filters.hpp"
#include "analysis/report.hpp"
#include "behavior/trace_simulation.hpp"
#include "geo/geoip.hpp"
#include "trace/spool.hpp"

namespace {

using namespace p2pgen;

int usage() {
  std::cerr
      << "usage:\n"
         "  trace_inspector simulate <dir> [days] [seed]\n"
         "  trace_inspector stats <dir>\n"
         "  trace_inspector filters <dir>\n"
         "  trace_inspector sessions <dir> [n]\n"
         "  trace_inspector figures <dir> <out-dir>\n"
         "  trace_inspector csv <dir>\n";
  return 2;
}

int cmd_simulate(const std::string& dir, double days, std::uint64_t seed) {
  behavior::TraceSimulationConfig config;
  config.duration_days = days;
  config.seed = seed;
  trace::SpoolWriter writer(dir);
  if (writer.durable_records() != 0) {
    throw std::runtime_error(dir + " already holds a spool of " +
                             std::to_string(writer.durable_records()) +
                             " records; simulate into an empty directory");
  }
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                writer);
  std::cerr << "simulating " << days << " day(s), seed " << seed << "...\n";
  sim.run();
  writer.close();
  std::cerr << "wrote " << writer.records() << " events to " << dir << "\n";
  // Session-teardown histogram straight from the node's per-reason
  // counters — no second pass over the spool needed.
  const auto& ends = sim.node().session_ends();
  const std::uint64_t total =
      std::max<std::uint64_t>(1, ends[0] + ends[1] + ends[2] + ends[3]);
  static constexpr const char* kReasonNames[] = {"bye", "idle-probe",
                                                 "teardown", "error"};
  std::cerr << "session teardown histogram:\n";
  for (std::size_t r = 0; r < 4; ++r) {
    std::cerr << "  " << kReasonNames[r] << ": " << ends[r] << " ("
              << 100.0 * static_cast<double>(ends[r]) /
                     static_cast<double>(total)
              << "%)\n";
  }
  return 0;
}

/// Reads the spool under `dir`; a torn tail (the unsynced last frame of
/// a killed writer) is dropped and reported on stderr.
trace::Trace load_spool(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error(dir + " is not a spool directory");
  }
  trace::SpoolRecoveryReport report;
  trace::Trace trace = trace::read_spool(dir, &report);
  if (report.torn) {
    std::cerr << "warning: dropped a torn tail of " << report.bytes_truncated
              << " byte(s) in " << report.bad_segment << "\n";
  }
  return trace;
}

int cmd_stats(const trace::Trace& trace) {
  const auto s = trace.stats();
  std::cout << "trace period (days):     " << (s.last_time - s.first_time) / 86400.0
            << "\n"
            << "events:                  " << trace.size() << "\n"
            << "QUERY messages:          " << s.query_messages << "\n"
            << "QUERYHIT messages:       " << s.queryhit_messages << "\n"
            << "PING messages:           " << s.ping_messages << "\n"
            << "PONG messages:           " << s.pong_messages << "\n"
            << "BYE messages:            " << s.bye_messages << "\n"
            << "direct connections:      " << s.direct_connections << "\n"
            << "  ultrapeer / leaf:      " << s.ultrapeer_connections << " / "
            << s.leaf_connections << "\n"
            << "hop-1 queries:           " << s.hop1_queries << "\n";
  return 0;
}

int cmd_filters(const trace::Trace& trace) {
  auto dataset = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  const auto r = analysis::apply_filters(dataset);
  std::cout << "initial queries/sessions:   " << r.initial_queries << " / "
            << r.initial_sessions << "\n"
            << "rule 1 (SHA1):              " << r.rule1_removed << "\n"
            << "rule 2 (repeats):           " << r.rule2_removed << "\n"
            << "rule 3 (<64 s):             " << r.rule3_removed_queries
            << " queries, " << r.rule3_removed_sessions << " sessions\n"
            << "final queries/sessions:     " << r.final_queries << " / "
            << r.final_sessions << "\n"
            << "rule 4 (interarrival <1 s): " << r.rule4_excluded << "\n"
            << "rule 5 (identical gaps):    " << r.rule5_excluded << "\n"
            << "interarrival sample size:   " << r.interarrival_queries << "\n";
  return 0;
}

int cmd_sessions(const trace::Trace& trace, std::size_t n) {
  auto dataset = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  analysis::apply_filters(dataset);
  std::vector<const analysis::ObservedSession*> sessions;
  for (const auto& s : dataset.sessions) {
    if (s.has_end) sessions.push_back(&s);
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const auto* a, const auto* b) {
              return a->duration() > b->duration();
            });
  std::cout << "id        start(s)    dur(s)     region          ua                    queries\n";
  for (std::size_t i = 0; i < std::min(n, sessions.size()); ++i) {
    const auto& s = *sessions[i];
    std::cout << s.id << "    " << s.start << "    " << s.duration() << "    "
              << (s.region ? geo::region_name(*s.region) : "unknown") << "    "
              << s.user_agent << "    " << s.counted_queries() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string dir = argv[2];
  try {
    if (command == "simulate") {
      const double days = argc > 3 ? std::atof(argv[3]) : 0.5;
      const std::uint64_t seed =
          argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 20040315;
      return cmd_simulate(dir, days, seed);
    }
    const trace::Trace trace = load_spool(dir);
    if (command == "stats") return cmd_stats(trace);
    if (command == "filters") return cmd_filters(trace);
    if (command == "sessions") {
      return cmd_sessions(trace,
                          argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3]))
                                   : 20);
    }
    if (command == "figures") {
      if (argc < 4) return usage();
      auto dataset =
          analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
      analysis::apply_filters(dataset);
      const auto inventory = analysis::export_figure_data(dataset, argv[3]);
      std::cerr << "wrote " << inventory.files.size() << " files to "
                << inventory.directory << "\n";
      return 0;
    }
    if (command == "csv") {
      trace::write_csv(trace, std::cout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
