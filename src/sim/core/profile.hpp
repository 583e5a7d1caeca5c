// Engine self-profiling (RunConfig::profile; opt-in, zero cost when off).
//
// Every execution engine fills the same counters so simulator performance
// is comparable across schedulers and trackable over time (BENCH_*.json):
//   * callbacks_* - protocol callbacks dispatched (on_start / on_receive /
//     on_tick); their sum is the "events processed" figure;
//   * steps       - simulated steps advanced;
//   * wall_s      - wall time of the whole run() call;
//   * per-phase wall time, attributed per engine:
//       - stepped:  deliver_s = failures + message deliveries,
//                   tick_s = the tick sweep;
//       - sharded:  deliver_s = slowest shard's phase-A compute (the
//                   window's deliveries + ticks, not separable per node
//                   without per-node timers), route_s = slowest shard's
//                   phase-B boundary drain.  Barrier wait time is
//                   excluded.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "common/types.hpp"

namespace cg {

/// Process-wide peak resident set size in bytes (getrusage ru_maxrss), or
/// 0 where unavailable.  A whole-process high-water mark, not a per-run
/// figure - engines record it so memory-plan regressions show up in
/// reports next to bytes_per_node.
inline std::int64_t current_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Current (not peak) resident set size in bytes, via /proc/self/statm on
/// Linux; falls back to the peak elsewhere.  The heartbeat channel reports
/// it so a long campaign's live memory footprint is visible, not just the
/// whole-process high-water mark.
inline std::int64_t current_rss_bytes() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long pages_total = 0, pages_resident = 0;
    const int got = std::fscanf(f, "%lld %lld", &pages_total, &pages_resident);
    std::fclose(f);
    if (got == 2)
      return static_cast<std::int64_t>(pages_resident) *
             static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
  }
#endif
  return current_peak_rss_bytes();
}

/// The AnonHugePages figure of a /proc/<pid>/smaps_rollup text, in bytes
/// (the file reports kB), or 0 when the line is missing or malformed.
inline std::int64_t parse_anon_huge_pages(std::string_view smaps) {
  constexpr std::string_view kKey = "AnonHugePages:";
  for (std::size_t at = 0; at < smaps.size();) {
    std::size_t eol = smaps.find('\n', at);
    if (eol == std::string_view::npos) eol = smaps.size();
    const std::string_view line = smaps.substr(at, eol - at);
    at = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    std::size_t i = kKey.size();
    while (i < line.size() && line[i] == ' ') ++i;
    std::int64_t kb = 0;
    const std::size_t digits = i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
      if (kb > (std::int64_t{1} << 50)) return 0;  // beyond any real host
      kb = kb * 10 + (line[i++] - '0');
    }
    if (i == digits || line.substr(i) != " kB") return 0;
    return kb * 1024;
  }
  return 0;
}

/// Bytes of this process's anonymous memory the kernel backs with
/// transparent huge pages (AnonHugePages of /proc/self/smaps_rollup), or 0
/// where that file cannot be read.  Whole-process, like the peak RSS.
inline std::int64_t current_huge_page_bytes() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r")) {
    char buf[4096];
    const std::size_t got = std::fread(buf, 1, sizeof buf, f);
    std::fclose(f);
    return parse_anon_huge_pages(std::string_view(buf, got));
  }
#endif
  return 0;
}

struct EngineProfile {
  std::int64_t callbacks_start = 0;
  std::int64_t callbacks_receive = 0;
  std::int64_t callbacks_tick = 0;
  // Delivery-calendar counters: scheduled = routed messages, fired =
  // messages consumed.  fired <= scheduled, and a drained run ends with
  // fired == scheduled.
  std::int64_t events_scheduled = 0;
  std::int64_t events_fired = 0;
  std::int64_t queue_max_bucket = 0;  ///< peak one-slot occupancy
  Step steps = 0;
  double wall_s = 0;
  double deliver_s = 0;
  double tick_s = 0;
  double route_s = 0;

  // Memory-plan accounting (every engine fills these): bytes of per-run
  // engine state (node slab, RNG streams, lifecycle arrays, calendars,
  // inboxes, and the heap nodes report through an optional heap_bytes()
  // hook) divided by n and counted after wall_s stops, the process peak
  // RSS at the end of the run, and how much of the process's memory the
  // kernel backed with huge pages then (common/huge_pages.hpp; 0 on a
  // host with THP off).
  std::int64_t bytes_per_node = 0;
  std::int64_t peak_rss_bytes = 0;
  std::int64_t huge_page_bytes = 0;

  // Sharded-engine counters (zero for the other engines).
  struct ShardStat {
    std::int64_t events_fired = 0;    ///< messages consumed by this shard
    std::int64_t boundary_msgs = 0;   ///< cross-shard messages it sent
    std::int64_t window_stalls = 0;   ///< windows where the shard had no work
  };
  int shards = 0;
  std::int64_t windows = 0;         ///< delivery windows executed
  std::int64_t window_stalls = 0;   ///< sum of per-shard stalls
  std::int64_t boundary_msgs = 0;   ///< messages crossing a shard boundary
  std::vector<ShardStat> shard_stats;

  /// Protocol callbacks dispatched over the run.
  std::int64_t events() const {
    return callbacks_start + callbacks_receive + callbacks_tick;
  }

  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events()) / wall_s : 0.0;
  }
};

/// Monotonic timestamp helper for the engines' profiling blocks.
class ProfileClock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  static TimePoint now() { return std::chrono::steady_clock::now(); }
  static double seconds_since(TimePoint t0) {
    return std::chrono::duration<double>(now() - t0).count();
  }
};

}  // namespace cg
