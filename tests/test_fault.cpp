// Tests for the fault-injection layer: transport-level fault semantics
// (loss, corruption, duplication, jitter, crashes, half-open links), the
// zero-probability determinism guarantee, and the hardened measurement
// node's behavior under a hostile overlay.
#include <gtest/gtest.h>

#include <algorithm>

#include <sstream>
#include <vector>

#include "analysis/report.hpp"
#include "behavior/trace_simulation.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "trace_bytes.hpp"

namespace p2pgen {
namespace {

// ------------------------------------------------------- transport level

/// Minimal node that records everything the transport delivers to it.
class Recorder : public sim::Node {
 public:
  explicit Recorder(sim::Network& network) : network_(network) {
    id_ = network.add_node(*this);
  }

  sim::NodeId id() const { return id_; }

  void on_connection_open(sim::ConnId, sim::NodeId) override { ++opens; }
  void on_connection_closed(sim::ConnId) override { ++closes; }
  void on_handshake(sim::ConnId, const gnutella::Handshake&) override {}
  void on_message(sim::ConnId, const gnutella::Message& message) override {
    arrivals.push_back(network_.simulator().now());
    messages.push_back(message);
  }
  void on_wire(sim::ConnId conn,
               const std::vector<std::uint8_t>& bytes) override {
    ++wire_deliveries;
    sim::Node::on_wire(conn, bytes);  // lenient default: decode or drop
  }
  void on_crashed() override { ++crash_notices; }

  std::vector<double> arrivals;
  std::vector<gnutella::Message> messages;
  int opens = 0;
  int closes = 0;
  int wire_deliveries = 0;
  int crash_notices = 0;

 private:
  sim::Network& network_;
  sim::NodeId id_ = 0;
};

struct FaultNetworkFixture : ::testing::Test {
  sim::Simulator simulator;
  sim::Network network{simulator};
  Recorder a{network};
  Recorder b{network};
  stats::Rng rng{7};

  sim::ConnId connect_with(const sim::FaultConfig& config,
                           sim::FaultInjector& injector) {
    (void)config;
    network.set_fault_injector(&injector);
    return network.connect(a.id(), b.id());
  }
};

TEST_F(FaultNetworkFixture, LossProbabilityOneDropsEveryDescriptor) {
  sim::FaultConfig config;
  config.loss_prob = 1.0;
  sim::FaultInjector injector(config, 1);
  const auto conn = connect_with(config, injector);
  for (int i = 0; i < 20; ++i) {
    network.send(conn, a.id(), gnutella::make_ping(rng));
  }
  simulator.run_until(10.0);
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(injector.counters().messages_lost, 20u);
  EXPECT_EQ(network.messages_dropped(), 20u);
}

TEST_F(FaultNetworkFixture, DuplicateProbabilityOneDeliversTwice) {
  sim::FaultConfig config;
  config.duplicate_prob = 1.0;
  sim::FaultInjector injector(config, 2);
  const auto conn = connect_with(config, injector);
  for (int i = 0; i < 10; ++i) {
    network.send(conn, a.id(), gnutella::make_ping(rng));
  }
  simulator.run_until(10.0);
  EXPECT_EQ(b.messages.size(), 20u);
  EXPECT_EQ(injector.counters().messages_duplicated, 10u);
}

TEST_F(FaultNetworkFixture, CorruptionTakesTheWirePath) {
  sim::FaultConfig config;
  config.corrupt_prob = 1.0;
  sim::FaultInjector injector(config, 3);
  const auto conn = connect_with(config, injector);
  constexpr int kSent = 50;
  for (int i = 0; i < kSent; ++i) {
    network.send(conn, a.id(), gnutella::make_ping(rng));
  }
  simulator.run_until(10.0);
  // Every descriptor was delivered as raw (damaged) wire data...
  EXPECT_EQ(b.wire_deliveries, kSent);
  EXPECT_EQ(injector.counters().messages_corrupted,
            static_cast<std::uint64_t>(kSent));
  // ...and the lenient default decoder dropped at least some of it (a
  // flip can land in a payload byte and still decode, but 50 descriptors
  // with 1-4 flipped bytes each cannot all survive a strict codec).
  EXPECT_LT(b.messages.size(), static_cast<std::size_t>(kSent));
}

TEST_F(FaultNetworkFixture, JitterDelaysTheStreamButKeepsFifoOrder) {
  sim::FaultConfig config;
  config.jitter_seconds = 2.0;
  sim::FaultInjector injector(config, 4);
  const auto conn = connect_with(config, injector);
  for (int i = 0; i < 10; ++i) {
    network.send(conn, a.id(), gnutella::make_ping(rng));
  }
  simulator.run_until(10.0);
  ASSERT_EQ(b.messages.size(), 10u);
  const double latency = sim::Network::Config().latency_seconds;
  for (const double at : b.arrivals) {
    EXPECT_GE(at, latency);
    EXPECT_LT(at, latency + 2.0);
  }
  // The connection models a TCP stream: jitter stretches it but the
  // descriptors arrive in send order.
  EXPECT_TRUE(std::is_sorted(b.arrivals.begin(), b.arrivals.end()));
  EXPECT_EQ(injector.counters().messages_delayed, 10u);
}

TEST_F(FaultNetworkFixture, ByeOutrunsTheCloseEvenUnderJitter) {
  // A jittered BYE immediately followed by close() must still reach the
  // other end before the teardown notification (FIFO floors): otherwise
  // every fault run would record zero kBye session ends.
  sim::FaultConfig config;
  config.jitter_seconds = 5.0;
  sim::FaultInjector injector(config, 12);
  const auto conn = connect_with(config, injector);
  simulator.run_until(1.0);
  network.send(conn, a.id(), gnutella::make_bye(rng, 200, "bye"));
  network.close(conn);
  simulator.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].type(), gnutella::MessageType::kBye);
  EXPECT_EQ(b.closes, 1);
}

TEST_F(FaultNetworkFixture, CrashedNodeIsDeafMuteAndGetsNoCloseEvent) {
  sim::FaultConfig config;  // crashes triggered manually here
  sim::FaultInjector injector(config, 5);
  network.set_fault_injector(&injector);
  const auto conn = network.connect(a.id(), b.id());
  simulator.run_until(1.0);

  network.crash_node(b.id());
  EXPECT_TRUE(network.is_crashed(b.id()));
  EXPECT_EQ(b.crash_notices, 1);
  EXPECT_EQ(injector.counters().node_crashes, 1u);

  // Sends *from* the dead process are swallowed...
  network.send(conn, b.id(), gnutella::make_ping(rng));
  // ...and deliveries *to* it vanish.
  network.send(conn, a.id(), gnutella::make_ping(rng));
  simulator.run_until(2.0);
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(injector.counters().sends_into_dead_link, 1u);

  // A graceful close still notifies the live end but never the corpse.
  network.close(conn);
  simulator.run_until(3.0);
  EXPECT_EQ(a.closes, 1);
  EXPECT_EQ(b.closes, 0);
}

TEST_F(FaultNetworkFixture, HalfOpenLinkKillsExactlyOneDirection) {
  sim::FaultConfig config;
  sim::FaultInjector injector(config, 6);
  network.set_fault_injector(&injector);
  const auto conn = network.connect(a.id(), b.id());
  simulator.run_until(1.0);

  network.half_open(conn, /*from_a=*/true);
  EXPECT_EQ(injector.counters().half_open_links, 1u);

  network.send(conn, a.id(), gnutella::make_ping(rng));  // swallowed
  network.send(conn, b.id(), gnutella::make_ping(rng));  // still works
  simulator.run_until(2.0);
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(a.messages.size(), 1u);
  EXPECT_EQ(injector.counters().sends_into_dead_link, 1u);
}

TEST_F(FaultNetworkFixture, ProtectedNodeIsImmuneToCrashes) {
  network.protect_node(a.id());
  network.crash_node(a.id());
  EXPECT_FALSE(network.is_crashed(a.id()));
  EXPECT_EQ(a.crash_notices, 0);
}

TEST_F(FaultNetworkFixture, CrashRateKillsAnUnprotectedEndpoint) {
  sim::FaultConfig config;
  config.crash_rate = 0.5;  // mean 2 s to link crash
  sim::FaultInjector injector(config, 8);
  network.protect_node(a.id());
  network.set_fault_injector(&injector);
  network.connect(a.id(), b.id());
  simulator.run_until(60.0);
  EXPECT_FALSE(network.is_crashed(a.id()));
  EXPECT_TRUE(network.is_crashed(b.id()));
  EXPECT_EQ(injector.counters().node_crashes, 1u);
}

TEST(FaultDeterminism, ZeroConfigInjectorIsByteIdenticalToNoInjector) {
  // Acceptance criterion: an installed injector whose config is all-zero
  // must not perturb the simulation at all — same deliveries, same times.
  auto run = [](bool with_injector) {
    sim::Simulator simulator;
    sim::Network network(simulator);
    Recorder a(network);
    Recorder b(network);
    sim::FaultInjector injector{sim::FaultConfig{}, 99};
    if (with_injector) network.set_fault_injector(&injector);
    const auto conn = network.connect(a.id(), b.id());
    stats::Rng rng(11);
    for (int i = 0; i < 50; ++i) {
      simulator.schedule_at(0.1 * i, [&network, &rng, conn, &a] {
        network.send(conn, a.id(), gnutella::make_query(rng, "zero faults"));
      });
    }
    simulator.run_until(30.0);
    return b.arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------------- measurement-node level

behavior::TraceSimulationConfig faulty_config(double days,
                                              sim::FaultConfig faults) {
  behavior::TraceSimulationConfig config;
  config.duration_days = days;
  config.arrival_rate = 1.5;
  config.seed = 77;
  config.faults = faults;
  return config;
}

TEST(TraceSimulationFaults, AllZeroProbabilitiesAreByteIdentical) {
  // Acceptance criterion: TraceSimulation always installs the fault
  // layer, so a config with every probability at zero must reproduce the
  // default-config trace byte for byte.
  auto run = [](sim::FaultConfig faults) {
    trace::Trace trace;
    behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                  faulty_config(0.02, faults), trace);
    sim.run();
    return trace_bytes(trace);
  };
  sim::FaultConfig zero;
  zero.half_open_after_mean = 7.0;  // irrelevant while half_open_prob == 0
  const std::string baseline = run(sim::FaultConfig{});
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, run(zero));
}

TEST(TraceSimulationFaults, HostileOverlayExercisesEveryHardeningPath) {
  sim::FaultConfig faults;
  faults.loss_prob = 0.05;
  faults.corrupt_prob = 0.05;
  faults.duplicate_prob = 0.05;
  faults.jitter_seconds = 0.5;
  faults.crash_rate = 1.0 / 1800.0;
  faults.half_open_prob = 0.1;
  faults.half_open_after_mean = 60.0;

  trace::Trace trace;
  auto config = faulty_config(0.05, faults);
  config.node.forward_fanout = 4;
  config.node.forward_retry_max = 2;
  config.node.forward_retry_base = 1.0;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();

  const auto& injected = sim.fault_counters();
  EXPECT_GT(injected.messages_lost, 0u);
  EXPECT_GT(injected.messages_corrupted, 0u);
  EXPECT_GT(injected.messages_duplicated, 0u);
  EXPECT_GT(injected.messages_delayed, 0u);
  EXPECT_GT(injected.node_crashes, 0u);
  EXPECT_GT(injected.half_open_links, 0u);

  // The hardened node caught malformed descriptors and dropped only the
  // affected connections, recording abnormal-close events.
  const auto& node = sim.node();
  EXPECT_GT(node.decode_errors(), 0u);

  analysis::RobustnessReport report;
  report.injected = injected;
  report.decode_errors = node.decode_errors();
  report.clean_bytes_before_error = node.clean_bytes_before_error();
  report.forward_retries = node.forward_retries();
  report.forward_retries_exhausted = node.forward_retries_exhausted();
  report.add_trace(trace);
  EXPECT_TRUE(report.any_faults());
  // Every DecodeError tears down exactly one session with kError.
  EXPECT_EQ(report.error_ends, node.decode_errors());
  // Crashed peers look exactly like silent departures: idle-probe reaps.
  EXPECT_GT(report.probe_ends, 0u);
  EXPECT_EQ(report.probe_ends, node.probe_closed_sessions());

  // The run is reproducible, hostile overlay included.
  trace::Trace again;
  behavior::TraceSimulation sim2(core::WorkloadModel::paper_default(), config,
                                 again);
  sim2.run();
  EXPECT_EQ(trace_bytes(trace), trace_bytes(again));
}

TEST(TraceSimulationFaults, ReportPrinterCoversEveryRow) {
  analysis::RobustnessReport report;
  report.injected.messages_lost = 3;
  report.decode_errors = 2;
  report.probe_ends = 1;
  std::ostringstream out;
  analysis::print_robustness_report(out, report);
  const std::string text = out.str();
  EXPECT_NE(text.find("injected message loss:"), std::string::npos);
  EXPECT_NE(text.find("decode errors caught:"), std::string::npos);
  EXPECT_NE(text.find("session ends: idle probe:"), std::string::npos);
  EXPECT_TRUE(report.any_faults());
  EXPECT_FALSE(analysis::RobustnessReport{}.any_faults());
}

}  // namespace
}  // namespace p2pgen
