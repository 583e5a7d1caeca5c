// Model-driven tuning advisor: the paper's Section III/Appendix-B pipeline
// as a command-line tool.  Give it your system size, LogP parameters, how
// many broadcasts you plan to run and the acceptable failure probability,
// and it prints ready-to-use parameters and predictions for every
// corrected-gossip variant plus the baselines.
//
//   ./tuning_advisor [--n=4096] [--l=2] [--o=1] [--runs=1e6] [--psi=0.5]
//                    [--f=1] [--active=<n>]
#include <cstdio>

#include "analysis/baseline_models.hpp"
#include "analysis/coloring.hpp"
#include "analysis/fcg_bound.hpp"
#include "analysis/tuning.hpp"
#include "baselines/opt_tree.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"
#include "proto/message.hpp"
#include "sim/failure.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 4096);
  const auto active = static_cast<NodeId>(flags.get_int_in("active", n, 1, n));
  const LogP logp = logp_from_flags(flags);
  const double runs = flags.get_double("runs", 1e6);
  flags.require(runs >= 1.0, "runs", "a number >= 1");
  const double psi = flags.get_double("psi", 0.5);
  flags.require(psi > 0.0 && psi < 1.0, "psi", "a number in (0, 1)");
  const int f = static_cast<int>(flags.get_int_in("f", 1, 1, kMaxKnownF));
  const double eps = eps_for_runs(psi, runs);

  std::printf("corrected-gossip tuning advisor\n");
  std::printf("  system: N=%d (%d active), L=%.0fus, O=%.0fus\n", n, active,
              logp.l_us(), logp.o_us);
  std::printf("  budget: %.0g runs, overall failure chance <= %.2f  =>  "
              "eps = %.3g per run\n", runs, psi, eps);
  std::printf("  expected node failures in a 12h job (TSUBAME2 MTBF): %.2f\n\n",
              FailureSchedule::expected_failures(n));

  Table table({"algorithm", "consistency", "parameters",
               "predicted latency", "notes"});

  const Step gos_T = gossip_time_for_target(n, active, eps, logp);
  table.add_row({"GOS", "weak (1-eps)",
                 Table::cell("T=%lld", static_cast<long long>(gos_T)),
                 Table::cell("%.0f us", logp.us(gos_T) + logp.l_us() + logp.o_us),
                 "gossip only"});

  const Tuning ocg = tune_ocg(n, active, logp, eps);
  const int k = k_bar_for(n, active, ocg.T_opt + 1, logp, eps);
  table.add_row(
      {"OCG", "1-eps all nodes",
       Table::cell("T=%lld C=%d sends", static_cast<long long>(ocg.T_opt + 1),
                   k + 1),
       Table::cell("%.0f us", logp.us(ocg.predicted_latency)),
       "fixed schedule, no feedback"});

  const Tuning ccg = tune_ccg(n, active, logp, eps);
  table.add_row({"CCG", "strong if no crash during run",
                 Table::cell("T=%lld", static_cast<long long>(ccg.T_opt + 1)),
                 Table::cell("%.0f us", logp.us(ccg.predicted_latency)),
                 "self-terminating"});

  const FcgTuning fcg = tune_fcg(n, active, logp, eps, f);
  table.add_row({"FCG", Table::cell("all-or-nothing, <=%d crashes", f),
                 Table::cell("T=%lld f=%d",
                             static_cast<long long>(fcg.T_opt + 1), f),
                 Table::cell("<= %.0f us", logp.us(fcg.predicted_upper)),
                 "Appendix-B upper bound"});

  table.add_row({"BIG", Table::cell("up to %d failures", big_max_failures(n)),
                 "static binomial graph",
                 Table::cell("%.0f us", big_latency_us(n, logp)),
                 Table::cell("work %lld msgs",
                             static_cast<long long>(big_work(n)))});
  table.add_row({"BFB", "any #failures (detector)", "restart tree",
                 Table::cell("%.0f us", bfb_latency_us(n, 0, logp)),
                 "+1 tree latency per online failure"});
  table.add_row({"opt", "none (lower bound)", "-",
                 Table::cell("%.0f us", logp.us(opt_latency_steps(n, logp))),
                 "non-fault-tolerant optimum"});
  table.print();

  std::printf("\ngossip coloring forecast (Eq. 1): c(T+L+O) at OCG's T: "
              "%.1f of %d\n",
              colored_at_corr_start(n, active, ocg.T_opt + 1, logp), active);
  return 0;
}
