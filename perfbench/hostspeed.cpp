// Host-speed probe: the CPU time of a fixed amount of simulator-like
// work (see perfbench.hpp), once on every core.
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

/// Iterations of one probe thread; about 115 ms on the reference host.
constexpr std::uint32_t kProbeIterations = 300000;
/// Per-thread state touched at random: larger than a core's L2, as the
/// simulation's peer and session tables are.
constexpr std::size_t kProbeStateWords = std::size_t{1} << 20;  // 8 MiB
constexpr std::size_t kProbePending = 5000;  // the live kernel's pending depth
constexpr std::size_t kProbeRoutes = 25000;  // routing-table entries

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One probe thread: an event queue held at a fixed depth, a routing
/// table with insert/erase churn, random read-modify-writes of a large
/// state array and 40-byte record writes.  The memory is allocated and
/// touched before the timed loop, so page faults stay out of `cpu_s`.
/// Returns a checksum so the work cannot be optimised away.
std::uint64_t probe_thread(std::uint64_t seed, double& cpu_s) {
  std::uint64_t x = seed | 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> state(kProbeStateWords, 0);
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
  for (std::uint32_t i = 0; i < kProbePending; ++i) pending.emplace(next() >> 40, i);
  std::unordered_map<std::uint64_t, std::uint32_t> routes;
  routes.reserve(kProbeRoutes * 2);
  std::vector<std::uint64_t> ring(kProbeRoutes, 0);
  for (std::size_t i = 0; i < kProbeRoutes; ++i) {
    ring[i] = next();
    routes.emplace(ring[i], static_cast<std::uint32_t>(i));
  }
  struct Record {
    std::uint64_t a, b, c, d, e;
  };
  std::vector<Record> records(kProbeIterations);
  std::uint64_t sum = 0;
  const double c0 = thread_cpu_seconds();
  for (std::uint32_t i = 0; i < kProbeIterations; ++i) {
    const auto [t, id] = pending.top();
    pending.pop();
    const std::uint64_t r = next();
    pending.emplace(t + (r & 0xffff), id);
    const std::size_t slot = i % kProbeRoutes;
    routes.erase(ring[slot]);
    ring[slot] = r;
    routes.emplace(r, id);
    auto found = routes.find(r ^ (sum & 0xff));
    sum += found == routes.end() ? 1 : found->second;
    std::uint64_t& word = state[r % kProbeStateWords];
    word += t;
    sum += state[(r >> 20) % kProbeStateWords];
    records[i] = {t, r, word, sum, id};
  }
  cpu_s = thread_cpu_seconds() - c0;
  return sum + records[sum % kProbeIterations].b;
}

}  // namespace

ProbeTiming run_probe() {
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::uint64_t> sums(threads, 0);
  std::vector<std::exception_ptr> errors(threads);
  {
    std::vector<std::jthread> pool;
    for (unsigned k = 0; k < threads; ++k) {
      pool.emplace_back([&cpu, &sums, &errors, k] {
        try {
          sums[k] = probe_thread(0x9e3779b97f4a7c15ull * (k + 1), cpu[k]);
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  ProbeTiming timing;
  for (unsigned k = 0; k < threads; ++k) {
    timing.cpu_s += cpu[k] / threads;
    timing.checksum ^= sums[k];
  }
  return timing;
}

}  // namespace perfbench
