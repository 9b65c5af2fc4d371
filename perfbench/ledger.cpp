// perfbench — workload configs, correctness checks and the span ledger.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/model_io.hpp"
#include "perfbench.hpp"
#include "trace/spool.hpp"

namespace perfbench {

Workload parse_workload(std::string_view name) {
  if (name == "materialized-clean") return Workload::kMaterializedClean;
  if (name == "durable-streaming") return Workload::kDurableStreaming;
  if (name == "reanalyze-streaming") return Workload::kReanalyzeStreaming;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

behavior::TraceSimulationConfig workload_config(Workload workload,
                                                std::uint64_t seed) {
  behavior::TraceSimulationConfig config;
  // No warm-up, as in the nightly run and measurement_pipeline's default:
  // every simulated second is counted in the trace.
  config.duration_days = 0.125;
  config.warmup_days = 0.0;
  config.arrival_rate = 1.2;
  config.seed = seed;
  if (workload == Workload::kMaterializedClean) return config;
  config.faults.loss_prob = 0.03;
  config.faults.corrupt_prob = 0.01;
  config.faults.duplicate_prob = 0.02;
  config.faults.jitter_seconds = 0.5;
  config.faults.crash_rate = 1.0 / 3600.0;
  config.faults.half_open_prob = 0.05;
  config.faults.half_open_after_mean = 300.0;
  config.node.forward_fanout = 4;
  config.node.forward_retry_max = 3;
  config.timeline.tick_seconds = 600.0;
  return config;
}

namespace {

struct FitHasher {
  std::uint64_t hash = trace::kFnvOffsetBasis;
  bool finite = true;

  void add(double v) {
    finite = finite && std::isfinite(v);
    hash = trace::fnv1a_update(hash, &v, sizeof(v));
  }
  void add(const stats::LogNormalFit& f) {
    add(f.mu);
    add(f.sigma);
  }
  void add(const stats::BimodalLogNormalFit& f) {
    add(f.split);
    add(f.body_lo);
    add(f.body_weight);
    add(f.body);
    add(f.tail);
  }
  void add(const stats::BimodalWeibullLogNormalFit& f) {
    add(f.split);
    add(f.body_weight);
    add(f.body.alpha);
    add(f.body.lambda);
    add(f.tail);
  }
  void add(const stats::BimodalLogNormalParetoFit& f) {
    add(f.split);
    add(f.body_weight);
    add(f.body);
    add(f.tail_alpha);
  }
  template <typename T, std::size_t N>
  void add(const std::array<T, N>& values) {
    for (const T& v : values) add(v);
  }
};

}  // namespace

std::string format_filter_rows(const analysis::FilterReport& f) {
  std::ostringstream os;
  os << f.initial_queries << ',' << f.initial_sessions << ','
     << f.rule1_removed << ',' << f.rule2_removed << ','
     << f.rule3_removed_queries << ',' << f.rule3_removed_sessions << ','
     << f.final_queries << ',' << f.final_sessions << ',' << f.rule4_excluded
     << ',' << f.rule5_excluded << ',' << f.interarrival_queries;
  return os.str();
}

void record_fits(PassOutputs& out, const analysis::AppendixFits& fits,
                 const core::WorkloadModel& model) {
  FitHasher h;
  h.add(fits.passive);
  h.add(fits.queries);
  h.add(fits.first_query);
  h.add(fits.interarrival);
  h.add(fits.after_last);
  std::ostringstream text;
  core::save_model(model, text);
  const std::string s = text.str();
  out.fits_digest = trace::fnv1a_update(h.hash, s.data(), s.size());
  // Truncation bounds print as "inf" legitimately; a NaN never does.
  out.fits_finite = h.finite && s.find("nan") == std::string::npos;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "[perfbench] CHECK FAILED: " << what << "\n";
  }
}

void Checks::invariants(const PassOutputs& out, const std::string& label) {
  const analysis::FilterReport& f = out.filters;
  expect(f.initial_queries == f.rule1_removed + f.rule2_removed +
                                  f.rule3_removed_queries + f.final_queries,
         label + ": Table-2 query rows do not add up");
  expect(f.initial_sessions == f.rule3_removed_sessions + f.final_sessions,
         label + ": Table-2 session rows do not add up");
  expect(f.final_queries ==
             f.rule4_excluded + f.rule5_excluded + f.interarrival_queries,
         label + ": rules 4/5 do not partition the surviving queries");
  expect(out.events > 0 && f.final_sessions > 0,
         label + ": empty trace or no surviving session");
  expect(out.fits_finite, label + ": a fit parameter is not finite");
}

void Checks::same(const PassOutputs& got, const PassOutputs& want,
                  const std::string& label) {
  expect(got.digest == want.digest, label + ": trace digest differs");
  expect(format_filter_rows(got.filters) == format_filter_rows(want.filters),
         label + ": Table-2 rows differ (" + format_filter_rows(got.filters) +
             " vs " + format_filter_rows(want.filters) + ")");
  expect(got.fits_digest == want.fits_digest,
         label + ": Appendix fits differ");
}

// ---- span ledger ----------------------------------------------------------

Ledger::Scope::Scope(Ledger& ledger, std::string name, std::uint32_t parent,
                     std::uint32_t run)
    : ledger_(ledger), id_(ledger.open(std::move(name), parent, run)) {}

Ledger::Scope::~Scope() { ledger_.close(id_); }

std::uint32_t Ledger::open(std::string name, std::uint32_t parent,
                           std::uint32_t run) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.run = run;
  span.start_us = obs::TraceLog::now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Ledger::close(std::uint32_t id) {
  const std::uint64_t now = obs::TraceLog::now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_us = now;
}

std::vector<Ledger::Span> Ledger::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

/// One node of the combined span tree.
struct Node {
  const std::string* name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
};

/// Length of the union of `intervals` clipped to [lo, hi].
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> v,
                      std::uint64_t lo, std::uint64_t hi) {
  std::sort(v.begin(), v.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;
  for (auto [a, b] : v) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    total += b - a;
    cursor = b;
  }
  return total;
}

bool contains(const Node& outer, std::uint64_t start, std::uint64_t end) {
  return outer.start <= start && end <= outer.end;
}

}  // namespace

std::vector<SelfTime> self_times(
    const std::vector<Ledger::Span>& bench,
    const std::vector<obs::TraceLog::Span>& builtin) {
  std::vector<Node> nodes;
  nodes.reserve(bench.size() + builtin.size());
  for (const auto& s : bench) nodes.push_back({&s.name, s.start_us, s.end_us, {}});
  for (const auto& s : bench) {
    if (s.parent != 0) {
      nodes[s.parent - 1].children.emplace_back(s.start_us, s.end_us);
    }
  }
  const std::size_t n_bench = nodes.size();
  for (const auto& s : builtin) {
    nodes.push_back({&s.name, s.start_us, s.start_us + s.duration_us, {}});
  }
  for (std::size_t i = 0; i < builtin.size(); ++i) {
    const auto& s = builtin[i];
    const Node& self = nodes[n_bench + i];
    std::size_t parent = nodes.size();
    std::uint64_t parent_len = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t j = 0; j < builtin.size(); ++j) {
      const Node& cand = nodes[n_bench + j];
      if (j == i || builtin[j].tid != s.tid ||
          !contains(cand, self.start, self.end)) {
        continue;
      }
      const std::uint64_t len = cand.end - cand.start;
      // Spans are recorded when they close, so of two equal intervals
      // the later-recorded one is the outer.
      if (len < parent_len && !(len == self.end - self.start && j < i)) {
        parent = n_bench + j;
        parent_len = len;
      }
    }
    if (parent == nodes.size()) {
      for (std::size_t j = 0; j < n_bench; ++j) {
        const std::uint64_t len = nodes[j].end - nodes[j].start;
        if (contains(nodes[j], self.start, self.end) && len < parent_len) {
          parent = j;
          parent_len = len;
        }
      }
    }
    if (parent != nodes.size()) {
      nodes[parent].children.emplace_back(self.start, self.end);
    }
  }

  std::vector<SelfTime> out;
  for (const Node& node : nodes) {
    auto it = std::find_if(out.begin(), out.end(), [&](const SelfTime& t) {
      return t.name == *node.name;
    });
    if (it == out.end()) {
      out.push_back({*node.name, 0, 0.0, 0.0});
      it = out.end() - 1;
    }
    const std::uint64_t len = node.end - node.start;
    ++it->count;
    it->total_s += static_cast<double>(len) * 1e-6;
    it->self_s +=
        static_cast<double>(len - covered(node.children, node.start, node.end)) *
        1e-6;
  }
  return out;
}

void write_spans_json(const std::string& path,
                      const std::vector<Ledger::Span>& bench,
                      const std::vector<obs::TraceLog::Span>& builtin) {
  std::ofstream out(path);
  out << "{\"bench\":[";
  for (std::size_t i = 0; i < bench.size(); ++i) {
    const auto& s = bench[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us << "}";
  }
  out << "],\n\"builtin\":[";
  for (std::size_t i = 0; i < builtin.size(); ++i) {
    const auto& s = builtin[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"tid\":" << s.tid
        << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.start_us + s.duration_us << "}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
