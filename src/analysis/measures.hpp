// p2pgen — workload measures (paper Section 4, Figures 1–9).
//
// Each function reduces a (filtered) TraceDataset to the data behind one
// figure: hourly geography (Fig. 1), shared-files distributions (Fig. 2),
// diurnal query load (Fig. 3), passive fractions (Fig. 4), and the
// conditioned sample sets whose CCDFs are Figures 5–9.  Sample extraction
// and presentation are separated so the bench binaries can print curves
// and the model fitter can consume the same samples.
#pragma once

#include <array>
#include <vector>

#include "analysis/dataset.hpp"
#include "core/conditions.hpp"
#include "stats/histogram.hpp"

namespace p2pgen::analysis {

using core::DayPeriod;
using core::Region;

inline constexpr std::size_t kRegions = geo::kRegionCount;
inline constexpr std::size_t kKeyPeriodCount = core::kKeyPeriods.size();

/// Figure 1: fraction of peers per region per hour, for one-hop peers
/// (connected-session occupancy) and all peers (PONG/QUERYHIT addresses).
struct GeographyByHour {
  /// [region][hour] fractions; rows over regions sum to <= 1 (the
  /// remainder is unknown-origin).
  std::array<std::array<double, 24>, kRegions> onehop{};
  std::array<std::array<double, 24>, kRegions> allpeers{};
};
GeographyByHour geographic_distribution(const TraceDataset& dataset);

/// Figure 2: fraction of peers reporting k shared files, k = 0..100.
struct SharedFilesDistribution {
  std::array<double, 101> onehop{};
  std::array<double, 101> allpeers{};
};
SharedFilesDistribution shared_files_distribution(const TraceDataset& dataset);

/// Figure 3: kept queries per 30-minute bin, min/mean/max across days,
/// per region.
struct LoadByTime {
  std::array<std::vector<stats::DayBinSeries::BinStats>, kRegions> bins{};
};
LoadByTime query_load(const TraceDataset& dataset);

/// Figure 4: fraction of passive sessions among sessions starting in each
/// 1-hour bin, min/mean/max across days, per region.
struct PassiveFraction {
  struct Bin {
    double min = 1.0;
    double mean = 0.0;
    double max = 0.0;
  };
  std::array<std::array<Bin, 24>, kRegions> bins{};
  /// Overall passive fraction per region (all hours pooled).
  std::array<double, kRegions> overall{};
};
PassiveFraction passive_fraction(const TraceDataset& dataset);

/// Figures 5–9: the conditioned sample sets.  Durations/times in seconds.
struct SessionMeasures {
  // Figure 5 — passive session durations.
  std::array<std::vector<double>, kRegions> passive_duration_by_region{};
  std::array<std::array<std::vector<double>, kKeyPeriodCount>, kRegions>
      passive_duration_by_key_period{};
  std::array<std::array<std::vector<double>, core::kDayPeriodCount>, kRegions>
      passive_duration_by_day_period{};  // for Table A.1 fits

  // Figure 6 — #queries per active session (all five rules applied, the
  // count Section 4.5 bases the remaining analysis on).
  std::array<std::vector<double>, kRegions> queries_by_region{};
  std::array<std::array<std::vector<double>, kKeyPeriodCount>, kRegions>
      queries_by_key_period{};

  // Figure 7 — time until first kept query after session start.
  std::array<std::vector<double>, kRegions> first_query_by_region{};
  std::array<std::array<std::vector<double>, core::kFirstQueryClassCount>,
             kRegions>
      first_query_by_class{};
  std::array<std::array<std::vector<double>, kKeyPeriodCount>, kRegions>
      first_query_by_key_period{};
  std::array<std::array<std::array<std::vector<double>,
                                   core::kFirstQueryClassCount>,
                        core::kDayPeriodCount>,
             kRegions>
      first_query_by_period_class{};  // for Table A.3 fits

  // Figure 8 — query interarrival times (rules 4/5 exclusions applied).
  std::array<std::vector<double>, kRegions> interarrival_by_region{};
  std::array<std::array<std::vector<double>, core::kInterarrivalClassCount>,
             kRegions>
      interarrival_by_class{};
  std::array<std::array<std::vector<double>, kKeyPeriodCount>, kRegions>
      interarrival_by_key_period{};
  std::array<std::array<std::vector<double>, core::kDayPeriodCount>, kRegions>
      interarrival_by_day_period{};  // for Table A.4 fits

  // Figure 9 — time after the last kept query until session end.
  std::array<std::vector<double>, kRegions> after_last_by_region{};
  std::array<std::array<std::vector<double>, core::kLastQueryClassCount>,
             kRegions>
      after_last_by_class{};
  std::array<std::array<std::vector<double>, kKeyPeriodCount>, kRegions>
      after_last_by_key_period{};
  std::array<std::array<std::array<std::vector<double>,
                                   core::kLastQueryClassCount>,
                        core::kDayPeriodCount>,
             kRegions>
      after_last_by_period_class{};  // for Table A.5 fits
};
SessionMeasures session_measures(const TraceDataset& dataset);

/// Figure 6(c): #queries per active session when rules 4/5 are NOT
/// applied (all rule-1-3 survivors count).
std::array<std::vector<double>, kRegions> queries_without_rules45(
    const TraceDataset& dataset);

/// Key-period index of an absolute time (0..3) or nullopt.
std::optional<std::size_t> key_period_of(double t);

// ---------------------------------------------------------------------------
// Streaming-shareable accumulators.  Each holds the exact intermediate
// state of one materialized measure function above.  The materialized
// functions and the streaming pass (analysis/streaming.hpp) both feed
// them — one session / one sample at a time, in the same order — so the
// float arithmetic is literally the same code, which is what makes the
// two paths bit-identical rather than merely close.

/// Figure 1 state.  Session occupancy is an order-sensitive float sum:
/// callers must add sessions in SessionStart order.  Address samples are
/// exact +1.0 counts and may arrive in any order relative to sessions.
struct GeographyAccumulator {
  std::array<std::array<double, 24>, kRegions> region_seconds{};
  std::array<double, 24> total_seconds{};
  std::array<std::array<double, 24>, kRegions> sample_counts{};
  std::array<double, 24> sample_totals{};

  /// One-hop connected occupancy of one session, split at hour boundaries.
  void add_session(const ObservedSession& session, double trace_end);
  /// One PONG/QUERYHIT address sample.
  void add_sample(const AddressSample& sample);
  /// Adds the address-sample counts of `other` (exact sums, so samples
  /// counted in separate accumulators add up to the same values).
  void add_samples_of(const GeographyAccumulator& other);
  GeographyByHour finalize() const;
};

/// Figure 2 state (exact +1.0 counts; order-insensitive).
struct SharedFilesAccumulator {
  std::array<double, 101> onehop_counts{};
  std::array<double, 101> allpeers_counts{};
  double onehop_total = 0.0;
  double allpeers_total = 0.0;

  void add_onehop(std::uint32_t shared_files);
  void add_allpeer(std::uint32_t shared_files);
  /// Adds the counts of `other` (exact sums).
  void add(const SharedFilesAccumulator& other);
  SharedFilesDistribution finalize() const;
};

/// Figure 3 state.  Feed each surviving session after filtering.
class LoadAccumulator {
 public:
  LoadAccumulator();
  void add_session(const ObservedSession& session);
  LoadByTime finalize() const;

 private:
  std::array<stats::DayBinSeries, kRegions> series_;
};

/// Figure 4 state.  Feed each surviving session after filtering.
class PassiveAccumulator {
 public:
  PassiveAccumulator();
  void add_session(const ObservedSession& session);
  PassiveFraction finalize() const;

 private:
  std::array<stats::DayBinSeries, kRegions> passive_;
  std::array<stats::DayBinSeries, kRegions> total_;
};

/// Adds one (filtered) session's conditioned samples to `m` — the serial
/// inner loop of session_measures(), exposed so the streaming pass can
/// feed sessions in emission order and land every sample in the same
/// vector position a materialized pass would.
void accumulate_session_measures(SessionMeasures& m,
                                 const ObservedSession& session);

}  // namespace p2pgen::analysis
