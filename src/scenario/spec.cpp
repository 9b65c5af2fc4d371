#include "scenario/spec.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "behavior/client_profile.hpp"
#include "scenario/json.hpp"

namespace p2pgen::scenario {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("scenario spec: " + what);
}

double number_at(const Json& value, const std::string& path) {
  if (!value.is_number()) fail("\"" + path + "\" must be a number");
  return value.as_number();
}

double nonneg_at(const Json& value, const std::string& path) {
  const double v = number_at(value, path);
  if (!(v >= 0.0) || !std::isfinite(v)) {
    fail("\"" + path + "\" must be finite and >= 0");
  }
  return v;
}

std::string string_at(const Json& value, const std::string& path) {
  if (!value.is_string()) fail("\"" + path + "\" must be a string");
  return value.as_string();
}

bool bool_at(const Json& value, const std::string& path) {
  if (!value.is_bool()) fail("\"" + path + "\" must be a boolean");
  return value.as_bool();
}

std::uint64_t u64_at(const Json& value, const std::string& path) {
  const double v = number_at(value, path);
  if (!(v >= 0.0) || v != std::floor(v) || v > 1.8e19) {
    fail("\"" + path + "\" must be a nonnegative integer");
  }
  return static_cast<std::uint64_t>(v);
}

std::size_t size_at(const Json& value, const std::string& path) {
  return static_cast<std::size_t>(u64_at(value, path));
}

int int_at(const Json& value, const std::string& path) {
  const std::uint64_t v = u64_at(value, path);
  if (v > 1u << 30) fail("\"" + path + "\" is implausibly large");
  return static_cast<int>(v);
}

/// Rejects keys outside `known` so a typoed knob never silently yields a
/// benign run.
void check_keys(const Json::Object& object, const std::string& path,
                std::initializer_list<const char*> known) {
  for (const auto& [key, value] : object) {
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) fail("unknown key \"" + (path.empty() ? key : path + "." + key) + "\"");
  }
}

sim::FaultConfig parse_faults(const Json& value, const std::string& path) {
  if (!value.is_object()) fail("\"" + path + "\" must be an object");
  check_keys(value.as_object(), path,
             {"loss_prob", "corrupt_prob", "duplicate_prob", "jitter_seconds",
              "crash_rate", "half_open_prob", "half_open_after_mean"});
  sim::FaultConfig faults;
  if (const Json* v = value.find("loss_prob")) faults.loss_prob = number_at(*v, path + ".loss_prob");
  if (const Json* v = value.find("corrupt_prob")) faults.corrupt_prob = number_at(*v, path + ".corrupt_prob");
  if (const Json* v = value.find("duplicate_prob")) faults.duplicate_prob = number_at(*v, path + ".duplicate_prob");
  if (const Json* v = value.find("jitter_seconds")) faults.jitter_seconds = number_at(*v, path + ".jitter_seconds");
  if (const Json* v = value.find("crash_rate")) faults.crash_rate = number_at(*v, path + ".crash_rate");
  if (const Json* v = value.find("half_open_prob")) faults.half_open_prob = number_at(*v, path + ".half_open_prob");
  if (const Json* v = value.find("half_open_after_mean")) {
    faults.half_open_after_mean = number_at(*v, path + ".half_open_after_mean");
  }
  return faults;
}

behavior::ArrivalSchedule parse_arrival_schedule(const Json& value) {
  if (!value.is_array()) fail("\"arrival_schedule\" must be an array of points");
  behavior::ArrivalSchedule schedule;
  std::size_t i = 0;
  for (const Json& entry : value.as_array()) {
    const std::string path = "arrival_schedule[" + std::to_string(i++) + "]";
    if (!entry.is_object()) fail("\"" + path + "\" must be an object");
    check_keys(entry.as_object(), path, {"at_days", "multiplier"});
    behavior::ArrivalPoint point;
    if (const Json* v = entry.find("at_days")) point.at_days = number_at(*v, path + ".at_days");
    if (const Json* v = entry.find("multiplier")) point.multiplier = number_at(*v, path + ".multiplier");
    schedule.points.push_back(point);
  }
  return schedule;
}

behavior::FaultSchedule parse_fault_schedule(const Json& value) {
  if (!value.is_array()) fail("\"fault_phases\" must be an array of phases");
  behavior::FaultSchedule schedule;
  std::size_t i = 0;
  for (const Json& entry : value.as_array()) {
    const std::string path = "fault_phases[" + std::to_string(i++) + "]";
    if (!entry.is_object()) fail("\"" + path + "\" must be an object");
    check_keys(entry.as_object(), path, {"at_days", "faults"});
    behavior::FaultPhase phase;
    if (const Json* v = entry.find("at_days")) phase.at_days = number_at(*v, path + ".at_days");
    if (const Json* v = entry.find("faults")) phase.faults = parse_faults(*v, path + ".faults");
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

std::vector<behavior::RegionalOutage> parse_outages(const Json& value) {
  if (!value.is_array()) fail("\"outages\" must be an array");
  std::vector<behavior::RegionalOutage> outages;
  std::size_t i = 0;
  for (const Json& entry : value.as_array()) {
    const std::string path = "outages[" + std::to_string(i++) + "]";
    if (!entry.is_object()) fail("\"" + path + "\" must be an object");
    check_keys(entry.as_object(), path,
               {"at_days", "duration_days", "region", "severity",
                "arrival_suppression"});
    behavior::RegionalOutage outage;
    if (const Json* v = entry.find("at_days")) outage.at_days = number_at(*v, path + ".at_days");
    if (const Json* v = entry.find("duration_days")) {
      outage.duration_days = number_at(*v, path + ".duration_days");
    }
    if (const Json* v = entry.find("region")) {
      outage.region = parse_region(string_at(*v, path + ".region"));
    }
    if (const Json* v = entry.find("severity")) outage.severity = number_at(*v, path + ".severity");
    if (const Json* v = entry.find("arrival_suppression")) {
      outage.arrival_suppression = number_at(*v, path + ".arrival_suppression");
    }
    outages.push_back(outage);
  }
  return outages;
}

ScenarioSpec::NodeOverrides parse_node(const Json& value) {
  if (!value.is_object()) fail("\"node\" must be an object");
  check_keys(value.as_object(), "node",
             {"max_connections", "forward_fanout", "forward_retry_max",
              "forward_retry_base", "forward_retry_max_delay", "replenish",
              "replenish_target", "replenish_backoff_base",
              "replenish_backoff_max", "max_pending_handshakes",
              "query_shed_rate", "query_shed_burst"});
  ScenarioSpec::NodeOverrides node;
  if (const Json* v = value.find("max_connections")) node.max_connections = size_at(*v, "node.max_connections");
  if (const Json* v = value.find("forward_fanout")) node.forward_fanout = int_at(*v, "node.forward_fanout");
  if (const Json* v = value.find("forward_retry_max")) node.forward_retry_max = int_at(*v, "node.forward_retry_max");
  if (const Json* v = value.find("forward_retry_base")) node.forward_retry_base = nonneg_at(*v, "node.forward_retry_base");
  if (const Json* v = value.find("forward_retry_max_delay")) {
    node.forward_retry_max_delay = nonneg_at(*v, "node.forward_retry_max_delay");
  }
  if (const Json* v = value.find("replenish")) node.replenish = bool_at(*v, "node.replenish");
  if (const Json* v = value.find("replenish_target")) node.replenish_target = size_at(*v, "node.replenish_target");
  if (const Json* v = value.find("replenish_backoff_base")) {
    node.replenish_backoff_base = nonneg_at(*v, "node.replenish_backoff_base");
  }
  if (const Json* v = value.find("replenish_backoff_max")) {
    node.replenish_backoff_max = nonneg_at(*v, "node.replenish_backoff_max");
  }
  if (const Json* v = value.find("max_pending_handshakes")) {
    node.max_pending_handshakes = size_at(*v, "node.max_pending_handshakes");
  }
  if (const Json* v = value.find("query_shed_rate")) node.query_shed_rate = nonneg_at(*v, "node.query_shed_rate");
  if (const Json* v = value.find("query_shed_burst")) node.query_shed_burst = nonneg_at(*v, "node.query_shed_burst");
  return node;
}

}  // namespace

geo::Region parse_region(const std::string& name) {
  if (name == "north_america") return geo::Region::kNorthAmerica;
  if (name == "europe") return geo::Region::kEurope;
  if (name == "asia") return geo::Region::kAsia;
  if (name == "other") return geo::Region::kOther;
  throw std::invalid_argument(
      "scenario spec: unknown region \"" + name +
      "\" (known: north_america, europe, asia, other)");
}

void ScenarioSpec::validate() const {
  if (name.empty()) fail("\"name\" must not be empty");
  if (duration_days && !(*duration_days > 0.0)) fail("\"duration_days\" must be > 0");
  if (warmup_days && !(*warmup_days >= 0.0)) fail("\"warmup_days\" must be >= 0");
  if (arrival_rate && !(*arrival_rate > 0.0)) fail("\"arrival_rate\" must be > 0");
  if (diurnal_amplitude &&
      (!(*diurnal_amplitude >= 0.0) || *diurnal_amplitude > 1.0)) {
    fail("\"diurnal_amplitude\" must be in [0, 1]");
  }
  if (client_mix) {
    bool known = false;
    for (const auto& mix : behavior::ClientPopulation::known_mixes()) {
      if (mix == *client_mix) {
        known = true;
        break;
      }
    }
    if (!known) {
      fail("unknown client_mix \"" + *client_mix + "\"");
    }
  }
  // The schedule layer's validation covers ranges and monotonicity and
  // already names the offending field.
  if (faults) behavior::validate(*faults);
  behavior::validate(fault_schedule);
  behavior::validate(arrival_schedule);
  for (const auto& outage : outages) behavior::validate(outage);
  if (node.forward_retry_max && *node.forward_retry_max < 0) {
    fail("\"node.forward_retry_max\" must be >= 0");
  }
}

behavior::TraceSimulationConfig ScenarioSpec::apply(
    behavior::TraceSimulationConfig base) const {
  validate();
  if (duration_days) base.duration_days = *duration_days;
  if (warmup_days) base.warmup_days = *warmup_days;
  if (arrival_rate) base.arrival_rate = *arrival_rate;
  if (diurnal_amplitude) base.diurnal_amplitude = *diurnal_amplitude;
  if (seed) base.seed = *seed;
  if (client_mix) base.client_mix = *client_mix;
  if (faults) base.faults = *faults;
  if (!fault_schedule.empty()) base.fault_schedule = fault_schedule;
  if (!arrival_schedule.empty()) base.arrival_schedule = arrival_schedule;
  if (!outages.empty()) base.outages = outages;

  if (node.max_connections) base.node.max_connections = *node.max_connections;
  if (node.forward_fanout) base.node.forward_fanout = *node.forward_fanout;
  if (node.forward_retry_max) base.node.forward_retry_max = *node.forward_retry_max;
  if (node.forward_retry_base) base.node.forward_retry_base = *node.forward_retry_base;
  if (node.forward_retry_max_delay) {
    base.node.forward_retry_max_delay = *node.forward_retry_max_delay;
  }
  if (node.replenish) base.node.replenish = *node.replenish;
  if (node.replenish_target) base.node.replenish_target = *node.replenish_target;
  if (node.replenish_backoff_base) {
    base.node.replenish_backoff_base = *node.replenish_backoff_base;
  }
  if (node.replenish_backoff_max) {
    base.node.replenish_backoff_max = *node.replenish_backoff_max;
  }
  if (node.max_pending_handshakes) {
    base.node.max_pending_handshakes = *node.max_pending_handshakes;
  }
  if (node.query_shed_rate) base.node.query_shed_rate = *node.query_shed_rate;
  if (node.query_shed_burst) base.node.query_shed_burst = *node.query_shed_burst;
  return base;
}

ScenarioSpec ScenarioSpec::from_json(const std::string& text) {
  const Json root = Json::parse(text);
  if (!root.is_object()) fail("document must be a JSON object");
  check_keys(root.as_object(), "",
             {"name", "description", "duration_days", "warmup_days",
              "arrival_rate", "diurnal_amplitude", "seed", "client_mix",
              "faults", "fault_phases", "arrival_schedule", "outages",
              "node"});

  ScenarioSpec spec;
  if (const Json* v = root.find("name")) spec.name = string_at(*v, "name");
  if (const Json* v = root.find("description")) spec.description = string_at(*v, "description");
  if (const Json* v = root.find("duration_days")) spec.duration_days = number_at(*v, "duration_days");
  if (const Json* v = root.find("warmup_days")) spec.warmup_days = number_at(*v, "warmup_days");
  if (const Json* v = root.find("arrival_rate")) spec.arrival_rate = number_at(*v, "arrival_rate");
  if (const Json* v = root.find("diurnal_amplitude")) {
    spec.diurnal_amplitude = number_at(*v, "diurnal_amplitude");
  }
  if (const Json* v = root.find("seed")) spec.seed = u64_at(*v, "seed");
  if (const Json* v = root.find("client_mix")) spec.client_mix = string_at(*v, "client_mix");
  if (const Json* v = root.find("faults")) spec.faults = parse_faults(*v, "faults");
  if (const Json* v = root.find("fault_phases")) spec.fault_schedule = parse_fault_schedule(*v);
  if (const Json* v = root.find("arrival_schedule")) spec.arrival_schedule = parse_arrival_schedule(*v);
  if (const Json* v = root.find("outages")) spec.outages = parse_outages(*v);
  if (const Json* v = root.find("node")) spec.node = parse_node(*v);

  spec.validate();
  return spec;
}

ScenarioSpec ScenarioSpec::from_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(text.str());
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string(e.what()) + " (in " + path + ")");
  }
}

std::uint64_t scenario_digest(const ScenarioSpec& spec,
                              const behavior::TraceSimulationConfig& base) {
  return behavior::simulation_config_digest(spec.apply(base));
}

}  // namespace p2pgen::scenario
