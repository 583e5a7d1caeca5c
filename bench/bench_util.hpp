// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "harness/runner.hpp"

namespace cg::bench {

/// Longest circular run of nodes NOT colored by step `t`
/// (colored_at[i] == kNever counts as uncolored).
inline int max_uncolored_gap(const std::vector<Step>& colored_at, Step t) {
  const auto n = static_cast<int>(colored_at.size());
  auto is_colored = [&](int i) {
    return colored_at[static_cast<std::size_t>(i)] != kNever &&
           colored_at[static_cast<std::size_t>(i)] <= t;
  };
  int first_colored = -1;
  for (int i = 0; i < n; ++i) {
    if (is_colored(i)) {
      first_colored = i;
      break;
    }
  }
  if (first_colored < 0) return n;  // nobody colored
  int max_gap = 0, cur = 0;
  for (int k = 1; k <= n; ++k) {  // walk one full circle from a colored node
    const int i = (first_colored + k) % n;
    if (is_colored(i)) {
      max_gap = std::max(max_gap, cur);
      cur = 0;
    } else {
      ++cur;
    }
  }
  return std::max(max_gap, cur);
}

inline void print_header(const char* title) {
  std::printf("# %s\n", title);
}

/// Shared --threads flag for the trial-farm drivers: 0 (the default)
/// means auto-detect (see cg::resolve_threads), at most kMaxThreads.
/// Results are identical for every value - the farm's determinism
/// contract (docs/PERF.md §5).
inline int threads_flag(const Flags& flags) {
  return static_cast<int>(flags.get_int_in("threads", 0, 0, kMaxThreads));
}

/// Shared --engine / --shards flags: pick the execution engine carrying
/// the runs (identical results across engines; the wall-clock profile
/// differs).  Exits with a clean error on an unknown engine name.
inline ExecConfig exec_flag(const Flags& flags) {
  ExecConfig exec;
  const std::string name = flags.get_string("engine", "stepped");
  if (!engine_from_name(name, exec.engine)) {
    std::fprintf(stderr, "unknown --engine=%s (%s)\n", name.c_str(),
                 engine_names_list());
    std::exit(2);
  }
  exec.threads =
      static_cast<int>(flags.get_int_in("shards", 1, 1, kMaxThreads));
  return exec;
}

/// If --csv=<path> was passed, write the table's CSV there (for plotting
/// the figure with external tools).  Returns true if written.
bool maybe_write_csv(const Flags& flags, const Table& table);

}  // namespace cg::bench
