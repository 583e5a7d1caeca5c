// Worked examples in the style of the paper's Figures 2, 4 and 6: run one
// small broadcast (N = 10) with full event tracing and print every send,
// receive, coloring and completion, plus the final per-node outcome.
//
//   ./trace_ring [--algo=gos|ocg|ccg|fcg|chain|big|bfb|opt|sbrb] [--n=10]
//                [--t=4 (OCG: 2)] [--seed=3] [--f=1] [--corr=6]
//                [--trace-out=<file>]
//
// Figure 2 (OCG):  ./trace_ring --algo=ocg --t=2 --corr=6
// Figure 4 (CCG):  ./trace_ring --algo=ccg --t=4
// Figure 6 (FCG):  ./trace_ring --algo=fcg --t=4 --f=1
//
// --trace-out writes the same run as Chrome trace-event JSON (one track per
// node, phase-colored slices) for https://ui.perfetto.dev; a *.jsonl path
// gets the line-delimited JSON form instead.
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "harness/scenarios.hpp"
#include "obs/trace_sinks.hpp"
#include "proto/message.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const std::string algo_s = flags.get_string("algo", "ccg");
  Algo algo;
  if (!algo_from_flag(algo_s, algo)) {
    std::fprintf(stderr, "unknown --algo=%s (%s)\n", algo_s.c_str(),
                 algo_flags_list().c_str());
    return 2;
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto n = flags.get_count("n", 10);
  const Step T = flags.get_int_in("t", algo == Algo::kOcg ? 2 : 4, 0, kMax);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));

  AlgoConfig acfg;
  acfg.T = T;
  acfg.ocg_corr_sends = flags.get_int_in("corr", 6, 1, kMax);
  acfg.fcg_f = static_cast<int>(flags.get_int_in("f", 1, 1, kMaxKnownF));

  VectorTrace trace;
  obs::TeeTraceSink tee;
  tee.add(&trace);
  const std::string trace_out = flags.get_string("trace-out", "");
  std::unique_ptr<obs::JsonlTraceSink> jsonl;
  std::unique_ptr<obs::ChromeTraceSink> chrome;
  if (!trace_out.empty()) {
    if (trace_out.ends_with(".jsonl")) {
      jsonl = std::make_unique<obs::JsonlTraceSink>(trace_out);
      tee.add(jsonl.get());
    } else {
      chrome = std::make_unique<obs::ChromeTraceSink>(trace_out);
      tee.add(chrome.get());
    }
  }

  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  cfg.trace = &tee;
  cfg.record_node_detail = true;

  std::printf("%s broadcast on a %d-node ring, T=%lld, L=O=1, root 0\n\n",
              algo_name(algo), n, static_cast<long long>(T));
  const RunMetrics m = run_once(algo, acfg, cfg);
  std::fputs(trace.to_string().c_str(), stdout);
  if (!trace_out.empty()) {
    const bool ok = chrome ? chrome->close() : jsonl->ok();
    if (!ok) {
      std::fprintf(stderr, "trace_ring: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("\ntrace written to %s%s\n", trace_out.c_str(),
                chrome ? " (open in https://ui.perfetto.dev)" : "");
  }

  std::printf("\nper-node outcome (g-node = colored during gossip):\n");
  for (NodeId i = 0; i < n; ++i) {
    const Step c = m.colored_at[static_cast<std::size_t>(i)];
    const Step done = m.completed_at[static_cast<std::size_t>(i)];
    if (c == kNever) {
      std::printf("  node %2d: NOT REACHED\n", i);
    } else {
      std::printf("  node %2d: colored at t=%-3lld completed at t=%lld\n", i,
                  static_cast<long long>(c),
                  done == kNever ? -1LL : static_cast<long long>(done));
    }
  }
  std::printf(
      "\nsummary: %d/%d active nodes reached, %lld messages "
      "(%lld gossip + %lld correction%s), finished at t=%lld\n",
      m.n_colored, m.n_active, static_cast<long long>(m.msgs_total),
      static_cast<long long>(m.msgs_gossip),
      static_cast<long long>(m.msgs_correction),
      m.msgs_sos ? " + SOS" : "", static_cast<long long>(m.t_end));
  return 0;
}
