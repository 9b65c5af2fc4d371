// p2pgen — declarative scenario specifications.
//
// A ScenarioSpec is the single declarative description of one adversarial
// (or benign) workload: base-parameter overrides, a client mix, a base
// fault regime, and the time-varying schedules of behavior/schedule.hpp.
// Specs come from JSON files (--scenario=storm.json) or from the curated
// matrix (curated.hpp); either way they are applied to a base
// TraceSimulationConfig with apply(), which leaves every field the spec
// does not mention untouched.  The scenario digest is simply
// simulation_config_digest(apply(base)): two scenarios that would shape
// the same trace share a digest, and any meaningful difference changes it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "behavior/schedule.hpp"
#include "behavior/trace_simulation.hpp"

namespace p2pgen::scenario {

/// One declarative scenario.  Every field is optional in the JSON form;
/// unset optionals leave the base configuration's value in place.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;

  // Base-parameter overrides ---------------------------------------------
  std::optional<double> duration_days;
  std::optional<double> warmup_days;
  std::optional<double> arrival_rate;
  std::optional<double> diurnal_amplitude;
  std::optional<std::uint64_t> seed;

  /// Client population name (ClientPopulation::named).
  std::optional<std::string> client_mix;

  // Fault layer ----------------------------------------------------------
  /// Base fault regime (applies before the first fault_schedule boundary).
  std::optional<sim::FaultConfig> faults;
  behavior::FaultSchedule fault_schedule{};

  // Load shape -----------------------------------------------------------
  behavior::ArrivalSchedule arrival_schedule{};
  std::vector<behavior::RegionalOutage> outages{};

  // Node overrides (degradation / healing / forwarding) ------------------
  struct NodeOverrides {
    std::optional<std::size_t> max_connections;
    std::optional<int> forward_fanout;
    std::optional<int> forward_retry_max;
    std::optional<double> forward_retry_base;
    std::optional<double> forward_retry_max_delay;
    std::optional<bool> replenish;
    std::optional<std::size_t> replenish_target;
    std::optional<double> replenish_backoff_base;
    std::optional<double> replenish_backoff_max;
    std::optional<std::size_t> max_pending_handshakes;
    std::optional<double> query_shed_rate;
    std::optional<double> query_shed_burst;
  };
  NodeOverrides node{};

  /// Checks every field the spec sets: schedule monotonicity, probability
  /// ranges, known client mix, sensible override values.  Throws
  /// std::invalid_argument naming the offending field.
  void validate() const;

  /// Returns `base` with this spec's overrides and schedules applied.
  /// Calls validate() first.
  behavior::TraceSimulationConfig apply(
      behavior::TraceSimulationConfig base) const;

  /// Parses a spec from JSON text.  Unknown keys are an error (a typoed
  /// knob must never silently become a benign run).  Throws
  /// std::invalid_argument / JsonError with the key path in the message.
  static ScenarioSpec from_json(const std::string& text);

  /// Reads and parses a JSON spec file.
  static ScenarioSpec from_json_file(const std::string& path);
};

/// The scenario's identity under a given base configuration:
/// simulation_config_digest of the applied config.  Printed by the
/// pipeline next to the trace digest and recorded in BENCH_scenarios.json.
std::uint64_t scenario_digest(const ScenarioSpec& spec,
                              const behavior::TraceSimulationConfig& base);

/// Region from its JSON-form name: "north_america", "europe", "asia",
/// "other".  Throws std::invalid_argument on any other name.
geo::Region parse_region(const std::string& name);

}  // namespace p2pgen::scenario
