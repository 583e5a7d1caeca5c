// Figure 9: FCG predicted upper bound (Eq. 5 / Appendix B) vs simulated
// completion time as a function of the gossip time T.
// N = n = 1024, L = O = 1, f = 1.
//
//   ./fig9_fcg_tuning [--n=1024] [--threads=0] [--trials=800] [--seed=1] [--f=1]
//                     [--tmin=22] [--tmax=44] [--eps=...]
#include <cstdio>
#include <vector>

#include "analysis/fcg_bound.hpp"
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
  const int trials = flags.get_count("trials", 800);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int f = static_cast<int>(flags.get_int_in("f", 1, 1, kMaxKnownF));
  const auto [tmin, tmax] = bench::sweep_flags(flags, 22, 44);
  const double eps = bench::eps_flag(
      flags, eps_for_runs(0.5, static_cast<double>(trials)));
  const LogP logp = LogP::unit();

  bench::print_header("Figure 9: FCG completion time vs gossip time T");
  std::printf("# N=n=%d, L=O=1, f=%d, %d trials, eps=%.3g\n", n, f, trials,
              eps);
  const FcgTuning opt = tune_fcg(n, n, logp, eps, f, tmin, tmax);
  std::printf("# model optimum: T=%lld (upper bound %lld steps)\n",
              static_cast<long long>(opt.T_opt),
              static_cast<long long>(opt.predicted_upper));

  Table table({"T", "upper bound (Eq.5)", "simulated max", "simulated p99",
               "simulated mean", "SOS"});
  std::vector<std::pair<double, double>> pred_pts, sim_pts;
  for (Step T = tmin; T <= tmax; T += 2) {
    TrialSpec spec;
    spec.threads = bench::threads_flag(flags);
    spec.algo = Algo::kFcg;
    spec.acfg.T = T;
    spec.acfg.fcg_f = f;
    spec.n = n;
    spec.logp = logp;
    spec.seed = derive_seed(seed, static_cast<std::uint64_t>(T));
    spec.trials = trials;
    const TrialAggregate agg = run_trials(spec);
    const Step bound = fcg_predicted_upper(n, n, T, logp, eps, f);
    pred_pts.emplace_back(static_cast<double>(T), static_cast<double>(bound));
    sim_pts.emplace_back(static_cast<double>(T), agg.t_complete.max());
    table.add_row(
        {Table::cell("%lld", static_cast<long long>(T)),
         Table::cell("%lld", static_cast<long long>(bound)),
         Table::cell("%.0f", agg.t_complete.max()),
         Table::cell("%.0f", agg.t_complete.quantile(0.99)),
         Table::cell("%.1f", agg.t_complete.mean()),
         Table::cell("%lld", static_cast<long long>(agg.sos_trials))});
  }
  table.print();
  bench::maybe_write_csv(flags, table);

  std::printf("\n");
  AsciiPlot plot(bench::sweep_plot_width(tmax - tmin), 14);
  plot.add_series("predicted (Eq. 5 bound)", '-', pred_pts);
  plot.add_series("simulated max", '*', sim_pts);
  plot.print();
  return 0;
}
