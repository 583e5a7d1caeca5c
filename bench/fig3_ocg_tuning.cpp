// Figure 3: OCG predicted vs simulated total time (reach all nodes) as a
// function of the gossip time T.  N = n = 1024, L = O = 1.
//
// The paper plots the MAX over 10^7 runs against a prediction at
// eps = 6.93e-7; at bench scale we match eps to the trial count
// (eps = 1-(1-0.5)^(1/trials)) so the predicted quantile corresponds to
// the observed maximum.  Pass --eps=... to override.
//
//   ./fig3_ocg_tuning [--n=1024] [--threads=0] [--trials=1500] [--seed=1]
//                     [--tmin=18] [--tmax=36] [--eps=...]
#include <algorithm>
#include <cstdio>
#include <optional>

#include "analysis/tuning.hpp"
#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 1024);
  const int trials = flags.get_count("trials", 1500);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto [tmin, tmax] = bench::sweep_flags(flags, 18, 36);
  const double eps = bench::eps_flag(
      flags, eps_for_runs(0.5, static_cast<double>(trials)));
  const LogP logp = LogP::unit();

  bench::print_header("Figure 3: OCG total time vs gossip time T");
  std::printf("# N=n=%d, L=O=1, %d trials, eps=%.3g\n", n, trials, eps);
  const Tuning opt = tune_ocg(n, n, logp, eps, tmin, tmax);
  std::printf("# model optimum: T=%lld (predicted %lld steps)\n",
              static_cast<long long>(opt.T_opt),
              static_cast<long long>(opt.predicted_latency));

  Table table({"T", "predicted (Eq.3)", "simulated max", "simulated p99",
               "simulated mean", "all-reached"});
  std::vector<std::pair<double, double>> pred_pts, sim_pts;
  for (Step T = tmin; T <= tmax; ++T) {
    TrialSpec spec;
    spec.threads = bench::threads_flag(flags);
    spec.algo = Algo::kOcg;
    spec.acfg.T = T;
    // Generous sweep so that (essentially) every run reaches all nodes;
    // the metric is the time the last node is colored, as in the paper.
    // 4*K_bar + 32 is far beyond any chain these trials can produce (the
    // "all-reached" column verifies this).
    spec.acfg.ocg_corr_sends = std::min<Step>(
        n, 4 * k_bar_for(n, n, T, logp, eps) + 32);
    spec.n = n;
    spec.logp = logp;
    spec.seed = derive_seed(seed, static_cast<std::uint64_t>(T));
    spec.trials = trials;
    const TrialAggregate agg = run_trials(spec);
    const Step pred = ocg_predicted_latency(n, n, T, logp, eps);
    pred_pts.emplace_back(static_cast<double>(T), static_cast<double>(pred));
    // If no trial colored every node, the simulated columns are n/a and
    // this T stays out of the plot.
    std::optional<double> max, p99, mean;
    if (const Samples& last = agg.t_last_colored; !last.empty()) {
      max = last.max();
      p99 = last.quantile(0.99);
      mean = last.mean();
      sim_pts.emplace_back(static_cast<double>(T), *max);
    }
    table.add_row(
        {Table::cell("%lld", static_cast<long long>(T)),
         Table::cell("%lld", static_cast<long long>(pred)),
         Table::cell_or_na("%.0f", max), Table::cell_or_na("%.0f", p99),
         Table::cell_or_na("%.1f", mean),
         Table::cell("%lld/%lld", static_cast<long long>(agg.all_colored_trials),
                     static_cast<long long>(agg.trials))});
  }
  table.print();
  bench::maybe_write_csv(flags, table);

  std::printf("\n");
  AsciiPlot plot(bench::sweep_plot_width(tmax - tmin), 14);
  plot.add_series("predicted (Eq. 3)", '-', pred_pts);
  plot.add_series("simulated max", '*', sim_pts);
  plot.print();
  return 0;
}
