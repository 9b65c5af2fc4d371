// p2pgen — discrete-event simulation kernel.
//
// A minimal, deterministic event loop: events are (time, sequence) ordered
// closures.  The sequence number breaks ties in scheduling order, so runs
// are exactly reproducible.  Simulated time is in seconds from trace start
// (the measurement node's local midnight of day 0), matching the paper's
// time axes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace p2pgen::sim {

/// Simulated time in seconds since trace start.
using SimTime = double;

/// Seconds per day; the time-of-day axes of the paper's figures wrap at
/// this period.
inline constexpr SimTime kSecondsPerDay = 86400.0;

/// Time of day (seconds in [0, 86400)) for an absolute sim time.
constexpr SimTime time_of_day(SimTime t) noexcept {
  const auto days = static_cast<long long>(t / kSecondsPerDay);
  SimTime tod = t - static_cast<SimTime>(days) * kSecondsPerDay;
  if (tod < 0) tod += kSecondsPerDay;
  return tod;
}

/// Hour of the day (0..23) for an absolute sim time.
constexpr int hour_of_day(SimTime t) noexcept {
  return static_cast<int>(time_of_day(t) / 3600.0) % 24;
}

/// Day index (0-based) for an absolute sim time.
constexpr long long day_index(SimTime t) noexcept {
  return static_cast<long long>(t / kSecondsPerDay);
}

/// Deterministic discrete-event scheduler.
///
/// Pending handlers live in a slab of slots recycled through a free list;
/// the time order is a binary heap of small `{at, seq, slot}` keys.  An
/// event id packs the slot with the event's scheduling sequence number,
/// so cancel() is a generation check on the slot: a slot whose sequence
/// no longer matches has fired or been cancelled, and a heap key whose
/// sequence no longer matches its slot is skipped when popped.
class Simulator {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedules `handler` to run at absolute time `at` (>= now()).
  /// Returns a nonzero event id usable with cancel().
  std::uint64_t schedule_at(SimTime at, Handler handler);

  /// Schedules `handler` after `delay` seconds (>= 0).
  std::uint64_t schedule_after(SimTime delay, Handler handler);

  /// Cancels a pending event.  Cancelling an already-fired, already
  /// cancelled or unknown id is a no-op.  Returns true when an event was
  /// actually cancelled.
  bool cancel(std::uint64_t event_id);

  /// Runs events until the queue is empty or the next event is later than
  /// `until`; advances now() to min(until, last event time).
  void run_until(SimTime until);

  /// Runs until the queue drains.
  void run();

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const noexcept { return pending_; }

  /// Total number of events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);
  struct Slot {
    Handler handler;
    std::uint64_t seq = 0;  // 0: free
  };
  /// Heap order: a key sorts after another if it fires later.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Releases a slot whose event fired or was cancelled, destroying
  /// whatever handler it still holds.
  void free_slot(std::uint32_t slot) noexcept;

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace p2pgen::sim
