// perfbench — layer replays.  The layers under simulate_shard (wire codec,
// GUID routing table, event kernel, session sampler) cannot be timed from
// outside a live run, so each is replayed on inputs taken from the
// workload's own trace: its message types, TTL/hops, query strings, GUID
// hashes, event times and peer count.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <span>

#include "core/generator.hpp"
#include "gnutella/codec.hpp"
#include "gnutella/routing.hpp"
#include "perfbench.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Message events replayed through the codec and the routing table.
constexpr std::size_t kMaxMessages = 400000;
/// Kernel events replayed at the live pending depth.
constexpr std::uint64_t kKernelEvents = 2000000;
/// Stream chunk fed to the assembler (one Ethernet TCP segment).
constexpr std::size_t kChunkBytes = 1460;

gnutella::Guid guid_of(std::uint64_t hash) {
  gnutella::Guid guid;
  const std::uint64_t hi = hash ^ 0x9E3779B97F4A7C15ULL;
  std::memcpy(guid.bytes.data(), &hash, sizeof(hash));
  std::memcpy(guid.bytes.data() + 8, &hi, sizeof(hi));
  return guid;
}

gnutella::Message message_of(const trace::MessageEvent& e) {
  gnutella::Message m;
  m.guid = guid_of(e.guid_hash);
  m.ttl = e.ttl;
  m.hops = e.hops;
  switch (e.type) {
    case gnutella::MessageType::kPing:
      m.payload = gnutella::PingPayload{};
      break;
    case gnutella::MessageType::kPong:
      m.payload = gnutella::PongPayload{6346, e.source_ip, e.shared_files,
                                        e.shared_files * 4096};
      break;
    case gnutella::MessageType::kBye:
      m.payload = gnutella::ByePayload{200, "closing"};
      break;
    case gnutella::MessageType::kRouteTableUpdate:
      m.payload = gnutella::RouteTablePayload{
          std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(e.ttl))};
      break;
    case gnutella::MessageType::kQuery:
      m.payload = gnutella::QueryPayload{
          0, e.query,
          e.sha1 ? "urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB" : std::string()};
      break;
    case gnutella::MessageType::kQueryHit: {
      gnutella::QueryHitPayload hit;
      hit.ip = e.source_ip;
      hit.results.push_back({1, 4u << 20, "result.mp3"});
      hit.servent_guid = guid_of(~e.guid_hash);
      m.payload = std::move(hit);
      break;
    }
  }
  return m;
}

/// Reschedules itself once per firing, so the queue stays at the depth
/// it was primed with.
struct KernelTick {
  struct State {
    sim::Simulator* simulator = nullptr;
    const std::vector<double>* gaps = nullptr;
    std::uint64_t scheduled = 0;
    std::uint64_t limit = 0;
  };
  State* state;

  void operator()() const {
    State& s = *state;
    if (s.scheduled >= s.limit) return;
    const double gap = (*s.gaps)[s.scheduled % s.gaps->size()];
    ++s.scheduled;
    s.simulator->schedule_at(s.simulator->now() + gap, KernelTick{state});
  }
};

}  // namespace

ReplayResult replay_layers(const trace::Trace& trace,
                           const core::WorkloadModel& model,
                           std::uint64_t seed, std::uint64_t pending_depth,
                           std::uint64_t peers_spawned) {
  ReplayResult out;
  std::vector<const trace::MessageEvent*> messages;
  std::vector<double> session_starts;
  std::vector<double> times;
  for (const trace::TraceEvent& event : trace.events()) {
    times.push_back(trace::event_time(event));
    if (const auto* m = std::get_if<trace::MessageEvent>(&event)) {
      if (messages.size() < kMaxMessages) messages.push_back(m);
    } else if (const auto* s = std::get_if<trace::SessionStart>(&event)) {
      session_starts.push_back(s->time);
    }
  }

  // Codec: encode, decode, and reassemble the same bytes from a stream.
  if (!messages.empty()) {
    std::vector<gnutella::Message> inputs;
    inputs.reserve(messages.size());
    for (const auto* m : messages) inputs.push_back(message_of(*m));
    std::vector<std::uint8_t> stream;
    std::uint64_t bytes = 0;
    const auto t0 = Clock::now();
    for (const gnutella::Message& m : inputs) {
      const std::vector<std::uint8_t> wire = gnutella::encode(m);
      bytes += wire.size();
      if (!(gnutella::decode(wire) == m)) ++out.codec_mismatches;
      stream.insert(stream.end(), wire.begin(), wire.end());
    }
    gnutella::MessageAssembler assembler;
    std::size_t next = 0;
    for (std::size_t at = 0; at < stream.size(); at += kChunkBytes) {
      const std::size_t n = std::min(kChunkBytes, stream.size() - at);
      assembler.feed(std::span<const std::uint8_t>(stream.data() + at, n));
      while (auto m = assembler.next()) {
        if (!(*m == inputs[next++])) ++out.codec_mismatches;
      }
    }
    out.codec_ns_per_msg = ns_since(t0) / static_cast<double>(inputs.size());
    out.codec_bytes_per_msg =
        static_cast<double>(bytes) / static_cast<double>(inputs.size());
    if (next != inputs.size()) out.codec_mismatches += inputs.size() - next;
  }

  // Routing: QUERYs are noted on the session they arrived over, QUERYHITs
  // routed back.  The table is sized between timed blocks.
  if (!messages.empty()) {
    gnutella::RoutingTable table;
    constexpr std::size_t kBlock = 4096;
    double timed_ns = 0.0;
    std::uint64_t ops = 0;
    for (std::size_t at = 0; at < messages.size(); at += kBlock) {
      const std::size_t end = std::min(messages.size(), at + kBlock);
      const auto t0 = Clock::now();
      for (std::size_t i = at; i < end; ++i) {
        const trace::MessageEvent& m = *messages[i];
        if (m.type == gnutella::MessageType::kQuery) {
          table.note_seen(guid_of(m.guid_hash), m.session_id, m.time);
          ++ops;
        } else if (m.type == gnutella::MessageType::kQueryHit) {
          table.reverse_route(guid_of(m.guid_hash), m.time);
          ++ops;
        }
      }
      timed_ns += ns_since(t0);
      out.routing_peak_entries = std::max<std::uint64_t>(
          out.routing_peak_entries, table.size(messages[end - 1]->time));
    }
    if (ops > 0) out.routing_ns_per_op = timed_ns / static_cast<double>(ops);
  }

  // Kernel: the queue is primed to the live pending depth and every
  // firing schedules one successor, spaced by the trace's own
  // inter-event gaps times that depth.
  if (times.size() > 1) {
    const std::uint64_t depth = std::max<std::uint64_t>(1, pending_depth);
    std::vector<double> gaps;
    gaps.reserve(times.size() - 1);
    for (std::size_t i = 1; i < times.size(); ++i) {
      gaps.push_back((times[i] - times[i - 1]) * static_cast<double>(depth));
    }
    sim::Simulator simulator;
    KernelTick::State state{&simulator, &gaps, 0, kKernelEvents};
    for (std::uint64_t i = 0; i < depth; ++i) {
      simulator.schedule_at(times[i % times.size()] - times[0],
                            KernelTick{&state});
    }
    const auto t0 = Clock::now();
    simulator.run_until(std::numeric_limits<double>::max());
    out.kernel_ns_per_event =
        ns_since(t0) / static_cast<double>(simulator.executed());
  }

  // Sampler: one sample_session per spawned peer, at the trace's own
  // session start times.
  if (!session_starts.empty() && peers_spawned > 0) {
    core::SessionSampler sampler(model, seed);
    stats::Rng rng(seed);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < peers_spawned; ++i) {
      sampler.sample_session(session_starts[i % session_starts.size()], rng);
    }
    out.sampler_ns_per_session =
        ns_since(t0) / static_cast<double>(peers_spawned);
  }
  return out;
}

}  // namespace perfbench
