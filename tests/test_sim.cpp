// Tests for the discrete-event kernel and the overlay transport.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace p2pgen::sim {
namespace {

TEST(Simulator, ExecutesInTimeThenIdOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });  // same time, later id
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(0.5, chain);
  };
  sim.schedule_after(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 49.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));     // double cancel is a no-op
  EXPECT_FALSE(sim.cancel(99999));  // unknown id
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  // The next event may reuse the fired event's storage; the stale id must
  // not reach it.
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelOwnEventFromItsHandlerIsNoop) {
  Simulator sim;
  std::uint64_t self = 0;
  bool cancelled = true;
  self = sim.schedule_at(1.0, [&] { cancelled = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, RejectsPastSchedulingAndNullHandlers) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(1.0, nullptr), std::invalid_argument);
}

// ------------------------------------------------- kernel differential test

/// Reference kernel: a multimap in (time, insertion) order — equal keys
/// keep insertion order, which is id order — plus an id -> entry index.
class ReferenceKernel {
 public:
  SimTime now() const { return now_; }
  std::uint64_t schedule_at(SimTime at, std::function<void()> handler) {
    const std::uint64_t id = next_id_++;
    index_[id] = events_.emplace(at, std::make_pair(id, std::move(handler)));
    return id;
  }
  bool cancel(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    events_.erase(it->second);
    index_.erase(it);
    return true;
  }
  void run_until(SimTime until) {
    while (!events_.empty() && events_.begin()->first <= until) {
      auto node = events_.extract(events_.begin());
      index_.erase(node.mapped().first);
      now_ = node.key();
      ++executed_;
      node.mapped().second();
    }
    if (until > now_ && std::isfinite(until)) now_ = until;
  }
  std::size_t pending() const { return events_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  using Events =
      std::multimap<SimTime, std::pair<std::uint64_t, std::function<void()>>>;
  SimTime now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  Events events_;
  std::map<std::uint64_t, Events::iterator> index_;
};

/// One observation: what happened (0 fire, 1 cancel, 2 step), its subject
/// (label or cancel result), and the kernel's now / pending / executed.
using Observation = std::tuple<int, std::uint64_t, SimTime, std::size_t, std::uint64_t>;

/// Drives a kernel through a seeded random interleaving of schedule,
/// cancel and run_until, with handlers that schedule and cancel too.
/// Times sit on a 0.5 s grid so equal timestamps are common; cancels pick
/// any id issued so far, so they hit pending, fired, cancelled and
/// currently-running events alike.
template <typename Kernel>
std::vector<Observation> drive(std::uint64_t seed) {
  Kernel kernel;
  stats::Rng rng(seed);
  std::vector<std::uint64_t> ids;  // by label, in scheduling order
  std::vector<Observation> log;
  auto observe = [&](int what, std::uint64_t subject) {
    log.emplace_back(what, subject, kernel.now(), kernel.pending(),
                     kernel.executed());
  };
  auto delay = [&] { return 0.5 * static_cast<double>(rng.uniform_index(4)); };
  auto cancel_any = [&] {
    if (ids.empty()) return;
    observe(1, kernel.cancel(ids[rng.uniform_index(ids.size())]) ? 1 : 0);
  };
  std::function<void(SimTime)> schedule = [&](SimTime at) {
    const std::uint64_t label = ids.size();
    ids.push_back(0);
    ids[label] = kernel.schedule_at(at, [&, label] {
      observe(0, label);
      if (rng.bernoulli(0.45)) schedule(kernel.now() + delay());
      if (rng.bernoulli(0.3)) cancel_any();
    });
  };
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.uniform_index(20);
    if (op < 9) {
      schedule(kernel.now() + delay());
    } else if (op < 14) {
      cancel_any();
    } else if (op == 14) {
      observe(1, kernel.cancel(0) ? 1 : 0);  // never a valid id
    } else {
      kernel.run_until(kernel.now() + delay());
    }
    observe(2, static_cast<std::uint64_t>(step));
  }
  kernel.run_until(std::numeric_limits<SimTime>::infinity());
  observe(2, 0);
  return log;
}

TEST(Simulator, MatchesMultimapReferenceOnRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto expected = drive<ReferenceKernel>(seed);
    const auto actual = drive<Simulator>(seed);
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "seed " << seed << " step " << i;
    }
    EXPECT_GT(std::get<4>(expected.back()), 1000u) << "seed " << seed;
  }
}

TEST(TimeHelpers, DayAndHourArithmetic) {
  EXPECT_DOUBLE_EQ(time_of_day(0.0), 0.0);
  EXPECT_DOUBLE_EQ(time_of_day(86400.0 + 3600.0), 3600.0);
  EXPECT_EQ(hour_of_day(3600.0 * 25), 1);
  EXPECT_EQ(hour_of_day(86399.0), 23);
  EXPECT_EQ(day_index(86399.0), 0);
  EXPECT_EQ(day_index(86400.0), 1);
}

// ---------------------------------------------------------------- network

/// Records everything it sees.
class RecorderNode : public Node {
 public:
  struct Seen {
    ConnId conn;
    gnutella::MessageType type;
  };

  void on_connection_open(ConnId conn, NodeId peer) override {
    opens.push_back({conn, peer});
  }
  void on_connection_closed(ConnId conn) override { closes.push_back(conn); }
  void on_handshake(ConnId conn, const gnutella::Handshake& hs) override {
    handshakes.emplace_back(conn, hs.user_agent());
  }
  void on_message(ConnId conn, const gnutella::Message& msg) override {
    messages.push_back({conn, msg.type()});
  }

  std::vector<std::pair<ConnId, NodeId>> opens;
  std::vector<ConnId> closes;
  std::vector<std::pair<ConnId, std::string>> handshakes;
  std::vector<Seen> messages;
};

struct NetworkFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Config{0.05, true}};
  RecorderNode a;
  RecorderNode b;
  NodeId ida = net.add_node(a);
  NodeId idb = net.add_node(b);
};

TEST_F(NetworkFixture, ConnectNotifiesBothEnds) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  ASSERT_EQ(a.opens.size(), 1u);
  ASSERT_EQ(b.opens.size(), 1u);
  EXPECT_EQ(a.opens[0].second, idb);
  EXPECT_EQ(b.opens[0].second, ida);
  EXPECT_TRUE(net.is_open(conn));
  EXPECT_EQ(net.peer_of(conn, ida), idb);
}

TEST_F(NetworkFixture, MessagesDeliverWithLatency) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  stats::Rng rng(1);
  net.send(conn, ida, gnutella::make_query(rng, "hi"));
  sim.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].type, gnutella::MessageType::kQuery);
  EXPECT_TRUE(a.messages.empty());
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_GT(net.wire_bytes(), 0u);
}

TEST_F(NetworkFixture, GracefulCloseDeliversInFlightMessages) {
  // TCP FIN semantics: a BYE sent right before close() still arrives.
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  stats::Rng rng(2);
  net.send(conn, ida, gnutella::make_bye(rng, 200, "bye"));
  net.close(conn);
  sim.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].type, gnutella::MessageType::kBye);
  EXPECT_EQ(a.closes.size(), 1u);
  EXPECT_EQ(b.closes.size(), 1u);
  EXPECT_FALSE(net.is_open(conn));
}

TEST_F(NetworkFixture, SendOnClosedConnectionIsDropped) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  net.close(conn);
  stats::Rng rng(3);
  net.send(conn, ida, gnutella::make_ping(rng));  // still in map, not open
  sim.run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_GE(net.messages_dropped(), 1u);
}

TEST_F(NetworkFixture, DoubleCloseIsNoOp) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  net.close(conn);
  net.close(conn);
  sim.run();
  EXPECT_EQ(a.closes.size(), 1u);
  EXPECT_EQ(b.closes.size(), 1u);
}

TEST_F(NetworkFixture, HandshakeDelivery) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  net.send_handshake(conn, ida,
                     gnutella::Handshake::connect_request("TestAgent/1.0", false));
  sim.run();
  ASSERT_EQ(b.handshakes.size(), 1u);
  EXPECT_EQ(b.handshakes[0].second, "TestAgent/1.0");
}

TEST_F(NetworkFixture, AddressRegistry) {
  net.set_address(ida, 0x01020304);
  EXPECT_EQ(net.address_of(ida), 0x01020304u);
  EXPECT_EQ(net.address_of(idb), 0u);
  EXPECT_THROW(net.address_of(999), std::invalid_argument);
}

TEST_F(NetworkFixture, InvalidEndpointsRejected) {
  EXPECT_THROW(net.connect(ida, ida), std::invalid_argument);
  EXPECT_THROW(net.connect(ida, 42), std::invalid_argument);
  const ConnId conn = net.connect(ida, idb);
  stats::Rng rng(4);
  EXPECT_THROW(net.send(conn, 42, gnutella::make_ping(rng)),
               std::invalid_argument);
  EXPECT_THROW(net.peer_of(conn, 42), std::invalid_argument);
}

TEST(Network, RejectsNegativeLatency) {
  Simulator sim;
  EXPECT_THROW(Network(sim, Network::Config{-1.0, false}), std::invalid_argument);
}

}  // namespace
}  // namespace p2pgen::sim
