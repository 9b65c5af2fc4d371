#include "analysis/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "analysis/measures.hpp"
#include "analysis/popularity_analysis.hpp"
#include "stats/ecdf.hpp"

namespace p2pgen::analysis {
namespace {

std::ofstream open_csv(FigureExport& inventory, const std::string& name) {
  const std::string path = inventory.directory + "/" + name;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("report: cannot open " + path);
  inventory.files.push_back(name);
  return out;
}

void write_ccdf_rows(std::ofstream& out, const std::string& label,
                     const std::vector<double>& sample, double lo_floor) {
  if (sample.size() < 2) return;
  const stats::Ecdf ecdf(sample);
  for (const auto& point : ecdf.ccdf_log_grid(64, lo_floor)) {
    out << label << ',' << point.x << ',' << point.y << '\n';
  }
}

constexpr const char* kGnuplotScript = R"(# p2pgen — renders the paper's figures from the exported CSVs.
# usage: gnuplot plots.gp     (produces fig*.png in this directory)
set datafile separator ','
set terminal pngcairo size 900,600
set key outside

set output 'fig1_geography.png'
set title 'Figure 1: geographic distribution (all peers vs one-hop)'
set xlabel 'hour of day'; set ylabel 'fraction of peers'
set yrange [0:1]; set xrange [0:23]
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$2==r" fig1_geography.csv' using 1:3 with lines title 'all peers r'.r, \
  for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$2==r" fig1_geography.csv' using 1:4 with points title '1-hop r'.r

set output 'fig5_passive_duration.png'
set title 'Figure 5(a): passive session duration CCDF'
set xlabel 'duration (min)'; set ylabel 'P[X > x]'
set logscale xy; set yrange [0.01:1]; set xrange [1:*]
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$1==r" fig5_passive_duration.csv' using 2:3 with lines title 'region '.r

set output 'fig6_queries.png'
set title 'Figure 6(a): queries per active session CCDF'
set xlabel '#queries'; set ylabel 'P[X > x]'
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$1==r" fig6_queries.csv' using 2:3 with lines title 'region '.r

set output 'fig7_first_query.png'
set title 'Figure 7(a): time until first query CCDF'
set xlabel 'time (s)'; set ylabel 'P[X > x]'
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$1==r" fig7_first_query.csv' using 2:3 with lines title 'region '.r

set output 'fig8_interarrival.png'
set title 'Figure 8(a): query interarrival CCDF'
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$1==r" fig8_interarrival.csv' using 2:3 with lines title 'region '.r

set output 'fig9_after_last.png'
set title 'Figure 9(a): time after last query CCDF'
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$1==r" fig9_after_last.csv' using 2:3 with lines title 'region '.r

set output 'fig11_popularity.png'
set title 'Figure 11: per-day query popularity'
set xlabel 'rank'; set ylabel 'frequency'
plot for [c in "na_only eu_only intersection"] \
  '< awk -F, -v c='.c.' "$1==c" fig11_popularity.csv' using 2:3 with points title c

unset logscale
set output 'fig4_passive.png'
set title 'Figure 4: fraction of passive peers'
set xlabel 'hour'; set ylabel 'passive fraction'
set yrange [0:1]; set xrange [0:23]
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$2==r" fig4_passive.csv' using 1:4 with lines title 'region '.r

set output 'fig3_load.png'
set title 'Figure 3: query load per 30-minute bin'
set xlabel 'hour'; set ylabel '#queries'; set autoscale y
plot for [r in "0 1 2"] \
  '< awk -F, -v r='.r.' "$2==r" fig3_load.csv' using 1:4 with lines title 'avg r'.r
)";

}  // namespace

FigureExport export_figure_data(const TraceDataset& dataset,
                                const std::string& directory) {
  FigureExport inventory;
  inventory.directory = directory;

  // Figure 1.
  {
    auto out = open_csv(inventory, "fig1_geography.csv");
    out << "hour,region,all_peers,one_hop\n";
    const auto geo = geographic_distribution(dataset);
    for (std::size_t h = 0; h < 24; ++h) {
      for (std::size_t r = 0; r < kRegions; ++r) {
        out << h << ',' << r << ',' << geo.allpeers[r][h] << ','
            << geo.onehop[r][h] << '\n';
      }
    }
  }
  // Figure 2.
  {
    auto out = open_csv(inventory, "fig2_shared_files.csv");
    out << "shared_files,all_peers,one_hop\n";
    const auto dist = shared_files_distribution(dataset);
    for (int k = 0; k <= 100; ++k) {
      out << k << ',' << dist.allpeers[static_cast<std::size_t>(k)] << ','
          << dist.onehop[static_cast<std::size_t>(k)] << '\n';
    }
  }
  // Figure 3.
  {
    auto out = open_csv(inventory, "fig3_load.csv");
    out << "bin_start_hour,region,min,mean,max\n";
    const auto load = query_load(dataset);
    for (std::size_t r = 0; r < kRegions; ++r) {
      for (std::size_t b = 0; b < load.bins[r].size(); ++b) {
        out << (static_cast<double>(b) * 0.5) << ',' << r << ','
            << load.bins[r][b].min << ',' << load.bins[r][b].mean << ','
            << load.bins[r][b].max << '\n';
      }
    }
  }
  // Figure 4.
  {
    auto out = open_csv(inventory, "fig4_passive.csv");
    out << "hour,region,min,mean,max\n";
    const auto pf = passive_fraction(dataset);
    for (std::size_t h = 0; h < 24; ++h) {
      for (std::size_t r = 0; r < kRegions; ++r) {
        const auto& bin = pf.bins[r][h];
        out << h << ',' << r << ',' << bin.min << ',' << bin.mean << ','
            << bin.max << '\n';
      }
    }
  }
  // Figures 5-9 (CCDF families by region).
  {
    const auto m = session_measures(dataset);
    {
      auto out = open_csv(inventory, "fig5_passive_duration.csv");
      out << "region,x_minutes,ccdf\n";
      for (std::size_t r = 0; r < 3; ++r) {
        std::vector<double> minutes;
        minutes.reserve(m.passive_duration_by_region[r].size());
        for (double s : m.passive_duration_by_region[r]) {
          minutes.push_back(s / 60.0);
        }
        write_ccdf_rows(out, std::to_string(r), minutes, 1.0);
      }
    }
    {
      auto out = open_csv(inventory, "fig6_queries.csv");
      out << "region,x,ccdf\n";
      for (std::size_t r = 0; r < 3; ++r) {
        write_ccdf_rows(out, std::to_string(r), m.queries_by_region[r], 1.0);
      }
    }
    {
      auto out = open_csv(inventory, "fig7_first_query.csv");
      out << "region,x_seconds,ccdf\n";
      for (std::size_t r = 0; r < 3; ++r) {
        write_ccdf_rows(out, std::to_string(r), m.first_query_by_region[r],
                        1.0);
      }
    }
    {
      auto out = open_csv(inventory, "fig8_interarrival.csv");
      out << "region,x_seconds,ccdf\n";
      for (std::size_t r = 0; r < 3; ++r) {
        write_ccdf_rows(out, std::to_string(r), m.interarrival_by_region[r],
                        1.0);
      }
    }
    {
      auto out = open_csv(inventory, "fig9_after_last.csv");
      out << "region,x_seconds,ccdf\n";
      for (std::size_t r = 0; r < 3; ++r) {
        write_ccdf_rows(out, std::to_string(r), m.after_last_by_region[r],
                        1.0);
      }
    }
  }
  // Figure 11.
  {
    auto out = open_csv(inventory, "fig11_popularity.csv");
    out << "class,rank,frequency\n";
    const DailyQueryTables tables(dataset);
    const auto pop = popularity_distributions(tables);
    auto dump = [&out](const char* label, const ClassPopularity& cp) {
      for (std::size_t rank = 1; rank <= cp.pmf.size(); ++rank) {
        out << label << ',' << rank << ',' << cp.pmf[rank - 1] << '\n';
      }
    };
    dump("na_only", pop.na_only);
    dump("eu_only", pop.eu_only);
    dump("intersection", pop.intersection);
  }
  // gnuplot script.
  {
    auto out = open_csv(inventory, "plots.gp");
    out << kGnuplotScript;
  }
  return inventory;
}

void RobustnessReport::add_trace(const trace::Trace& trace) {
  for (const auto& event : trace.events()) {
    const auto* end = std::get_if<trace::SessionEnd>(&event);
    if (end == nullptr) continue;
    switch (end->reason) {
      case trace::EndReason::kBye: ++bye_ends; break;
      case trace::EndReason::kTeardown: ++teardown_ends; break;
      case trace::EndReason::kIdleProbe: ++probe_ends; break;
      case trace::EndReason::kError: ++error_ends; break;
    }
  }
}

void RobustnessReport::fill_from_metrics(const obs::MetricsSnapshot& delta) {
  transport_delivered = delta.counter_value("transport.messages_delivered");
  transport_dropped = delta.counter_value("transport.messages_dropped");
  decode_errors = delta.counter_value("node.decode_errors");
  clean_bytes_before_error = delta.counter_value("node.clean_bytes_before_error");
  forward_retries = delta.counter_value("node.forward_retries");
  forward_retries_exhausted =
      delta.counter_value("node.forward_retries_exhausted");
}

bool RobustnessReport::any_faults() const noexcept {
  return injected.messages_lost > 0 || injected.messages_corrupted > 0 ||
         injected.messages_duplicated > 0 || injected.messages_delayed > 0 ||
         injected.node_crashes > 0 || injected.half_open_links > 0 ||
         injected.sends_into_dead_link > 0 || decode_errors > 0 ||
         forward_retries > 0 || error_ends > 0;
}

void print_robustness_report(std::ostream& out,
                             const RobustnessReport& report) {
  auto row = [&out](const char* label, std::uint64_t value) {
    out << "  " << label;
    for (std::size_t i = std::char_traits<char>::length(label); i < 34; ++i) {
      out << ' ';
    }
    out << value << "\n";
  };
  out << "robustness report (fault layer + measurement node):\n";
  row("injected message loss:", report.injected.messages_lost);
  row("injected corruptions:", report.injected.messages_corrupted);
  row("injected duplicates:", report.injected.messages_duplicated);
  row("injected delays (jitter):", report.injected.messages_delayed);
  row("injected peer crashes:", report.injected.node_crashes);
  row("half-open link directions:", report.injected.half_open_links);
  row("sends into dead links:", report.injected.sends_into_dead_link);
  row("transport delivered:", report.transport_delivered);
  row("transport dropped:", report.transport_dropped);
  row("decode errors caught:", report.decode_errors);
  row("clean bytes before error:", report.clean_bytes_before_error);
  row("forward retries:", report.forward_retries);
  row("forward retries exhausted:", report.forward_retries_exhausted);
  row("shed connections (admission):", report.shed_connections);
  row("shed queries (overload):", report.shed_queries);
  row("regional outage crashes:", report.outage_crashes);
  row("session ends: BYE:", report.bye_ends);
  row("session ends: teardown:", report.teardown_ends);
  row("session ends: idle probe:", report.probe_ends);
  row("session ends: decode error:", report.error_ends);
}

PipelineReport PipelineReport::capture(const RobustnessReport& robustness,
                                       const FilterReport& filters) {
  PipelineReport report;
  report.robustness = robustness;
  report.filters = filters;
  report.metrics = obs::Registry::global().snapshot();
  return report;
}

void PipelineReport::write_json(std::ostream& out) const {
  const auto field = [&out](const char* name, std::uint64_t value,
                            bool last = false) {
    out << "    \"" << name << "\": " << value << (last ? "\n" : ",\n");
  };
  out << "{\n  \"robustness\": {\n";
  field("injected_messages_lost", robustness.injected.messages_lost);
  field("injected_messages_corrupted", robustness.injected.messages_corrupted);
  field("injected_messages_duplicated",
        robustness.injected.messages_duplicated);
  field("injected_messages_delayed", robustness.injected.messages_delayed);
  field("injected_node_crashes", robustness.injected.node_crashes);
  field("injected_half_open_links", robustness.injected.half_open_links);
  field("sends_into_dead_link", robustness.injected.sends_into_dead_link);
  field("transport_delivered", robustness.transport_delivered);
  field("transport_dropped", robustness.transport_dropped);
  field("decode_errors", robustness.decode_errors);
  field("clean_bytes_before_error", robustness.clean_bytes_before_error);
  field("forward_retries", robustness.forward_retries);
  field("forward_retries_exhausted", robustness.forward_retries_exhausted);
  field("shed_connections", robustness.shed_connections);
  field("shed_queries", robustness.shed_queries);
  field("outage_crashes", robustness.outage_crashes);
  field("bye_ends", robustness.bye_ends);
  field("teardown_ends", robustness.teardown_ends);
  field("probe_ends", robustness.probe_ends);
  field("error_ends", robustness.error_ends, true);
  out << "  },\n  \"filters\": {\n";
  field("initial_queries", filters.initial_queries);
  field("initial_sessions", filters.initial_sessions);
  field("rule1_removed", filters.rule1_removed);
  field("rule2_removed", filters.rule2_removed);
  field("rule3_removed_queries", filters.rule3_removed_queries);
  field("rule3_removed_sessions", filters.rule3_removed_sessions);
  field("final_queries", filters.final_queries);
  field("final_sessions", filters.final_sessions);
  field("rule4_excluded", filters.rule4_excluded);
  field("rule5_excluded", filters.rule5_excluded);
  field("interarrival_queries", filters.interarrival_queries, true);
  char num[64];
  // Salvage loss accounting (DESIGN.md §14).  Always present so report
  // diffs across strict/salvage runs compare field-by-field; all-zero
  // with an empty ranges array when nothing was damaged.  Open windows
  // (+inf after a gap that ran to the end of a spool) are clamped to the
  // trace end for display — the report stays plain finite JSON.
  out << "  },\n  \"gaps\": {\n";
  field("censored_sessions", salvage.censored_sessions);
  field("censored_queries", salvage.censored_queries);
  field("frames_lost", salvage.frames_lost);
  field("bytes_quarantined", salvage.bytes_quarantined);
  out << "    \"ranges\": [";
  for (std::size_t i = 0; i < salvage.ranges.size(); ++i) {
    const trace::SalvageRange& range = salvage.ranges[i];
    double gap_end = range.time_after;
    if (!std::isfinite(gap_end)) gap_end = salvage_trace_end;
    double gap_begin = range.time_before;
    if (!std::isfinite(gap_begin)) gap_begin = 0.0;
    out << (i == 0 ? "\n      {" : ",\n      {") << "\"shard\": "
        << range.shard << ", \"segment\": \"" << range.file
        << "\", \"byte_begin\": " << range.byte_begin
        << ", \"byte_end\": " << range.byte_end
        << ", \"frames_lost\": " << range.frames_lost;
    std::snprintf(num, sizeof(num), "%.9f", gap_begin);
    out << ", \"gap_begin\": " << num;
    std::snprintf(num, sizeof(num), "%.9f", gap_end);
    out << ", \"gap_end\": " << num << "}";
  }
  out << (salvage.ranges.empty() ? "]\n" : "\n    ]\n");
  out << "  },\n  \"timeline\": {\n";
  obs::write_timeline_json_members(out, timeline, timeline_tick_seconds,
                                   "    ");
  out << "  },\n  \"metrics\": ";
  metrics.write_json(out);
  out << "\n}\n";
}

void PipelineReport::write_prometheus(std::ostream& out) const {
  metrics.write_prometheus(out);
}

}  // namespace p2pgen::analysis
