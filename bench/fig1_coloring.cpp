// Figure 1: expected number of g-nodes c(t) and the 99%-probable longest
// uncolored chain K over time, N = n = 1024, L = O = 1; the "opt" marker
// is the optimal-broadcast completion time.
//
//   ./fig1_coloring [--n=1024] [--trials=400] [--seed=1] [--tmax=34]
//                   [--rounds]   (also show the Drezner-Barak round model)
#include <cstdio>
#include <vector>

#include "analysis/chain.hpp"
#include "analysis/coloring.hpp"
#include "baselines/opt_tree.hpp"
#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "gossip/round_gossip.hpp"
#include "harness/runner.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 1024);
  const int trials = flags.get_count("trials", 400);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const Step tmax = flags.get_int_in("tmax", 34, 0, bench::kMaxSweepT);
  const LogP logp = LogP::unit();

  bench::print_header(
      "Figure 1: expected g-nodes c(t) and 99%-longest uncolored chain K");
  std::printf("# N=n=%d, L=O=1, %d trials; opt completes at t=%lld\n", n,
              trials, static_cast<long long>(opt_latency_steps(n, logp)));

  // Simulate plain gossip with a long window and collect coloring times.
  std::vector<std::vector<Step>> runs;
  runs.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = logp;
    cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(t));
    cfg.record_node_detail = true;
    AlgoConfig acfg;
    acfg.T = tmax + 4;
    runs.push_back(run_once(Algo::kGos, acfg, cfg).colored_at);
  }

  const auto c = expected_colored(n, n, tmax + 4, logp, tmax);

  Table table({"t", "c(t) analytic", "c(t) simulated", "K99 simulated",
               "K99 analytic (Eq.2)"});
  std::vector<std::pair<double, double>> c_pts, k_pts;
  for (Step t = 0; t <= tmax; t += 2) {
    RunningStat colored;
    Samples gaps;
    for (const auto& run : runs) {
      int count = 0;
      for (const Step ct : run) {
        if (ct != kNever && ct <= t) ++count;
      }
      colored.add(count);
      gaps.add(bench::max_uncolored_gap(run, t));
    }
    const double cbar = c[static_cast<std::size_t>(t)];
    c_pts.emplace_back(static_cast<double>(t), colored.mean());
    k_pts.emplace_back(static_cast<double>(t), gaps.quantile(0.99));
    table.add_row({Table::cell("%lld", static_cast<long long>(t)),
                   Table::cell("%.1f", cbar),
                   Table::cell("%.1f", colored.mean()),
                   Table::cell("%.0f", gaps.quantile(0.99)),
                   Table::cell("%d", chain_k_bar(n, cbar, 0.01))});
  }
  table.print();
  bench::maybe_write_csv(flags, table);

  std::printf("\n");
  AsciiPlot plot(bench::sweep_plot_width(tmax), 14);
  plot.add_series("c(t) simulated (g-nodes)", '*', c_pts);
  plot.add_series("K99 (longest uncolored chain)", 'k', k_pts);
  plot.print();

  if (flags.get_bool("rounds", false)) {
    std::printf(
        "\n# Drezner-Barak round model: success rate of full coloring\n");
    Table rt({"rounds", "success rate", "mean informed"});
    Xoshiro256 rng(seed);
    for (int rounds = 14; rounds <= 22; ++rounds) {
      int full = 0;
      RunningStat informed;
      for (int t = 0; t < trials; ++t) {
        const auto res = round_gossip(1000, rounds, rng);
        informed.add(res.informed);
        if (res.informed == 1000) ++full;
      }
      rt.add_row({Table::cell("%d", rounds),
                  Table::cell("%.3f", static_cast<double>(full) / trials),
                  Table::cell("%.1f", informed.mean())});
    }
    rt.print();
  }
  return 0;
}
