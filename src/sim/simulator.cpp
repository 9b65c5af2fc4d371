#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace p2pgen::sim {
namespace {

// Event id layout: sequence number in the high 40 bits, slot in the low
// 24.  Sequences start at 1, so no valid id is 0.
constexpr unsigned kSlotBits = 24;
constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

}  // namespace

std::uint64_t Simulator::schedule_at(SimTime at, Handler handler) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  if (!handler) throw std::invalid_argument("Simulator: null handler");
  if (next_seq_ >= kMaxSeq) throw std::length_error("Simulator: event ids exhausted");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("Simulator: too many pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].handler = std::move(handler);
  slots_[slot].seq = seq;
  heap_.push_back(Key{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++pending_;
  return (seq << kSlotBits) | slot;
}

std::uint64_t Simulator::schedule_after(SimTime delay, Handler handler) {
  if (delay < 0.0) throw std::invalid_argument("Simulator: negative delay");
  return schedule_at(now_ + delay, std::move(handler));
}

void Simulator::free_slot(std::uint32_t slot) noexcept {
  slots_[slot].seq = 0;
  slots_[slot].handler = nullptr;
  free_slots_.push_back(slot);
  --pending_;
}

bool Simulator::cancel(std::uint64_t event_id) {
  const auto slot = static_cast<std::uint32_t>(event_id & kSlotMask);
  const std::uint64_t seq = event_id >> kSlotBits;
  if (seq == 0 || slot >= slots_.size() || slots_[slot].seq != seq) return false;
  free_slot(slot);
  return true;
}

void Simulator::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    Slot& slot = slots_[key.slot];
    if (slot.seq != key.seq) continue;  // cancelled
    Handler handler = std::move(slot.handler);
    free_slot(key.slot);
    now_ = key.at;
    ++executed_;
    handler();
  }
  if (until > now_ && std::isfinite(until)) now_ = until;
}

void Simulator::run() { run_until(std::numeric_limits<SimTime>::infinity()); }

}  // namespace p2pgen::sim
