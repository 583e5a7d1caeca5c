// Ablation: receive-overhead modeling (DESIGN.md Section 2).  The paper's
// pseudo-code drains every pending message per loop iteration while strict
// LogP charges O per receive; this bench quantifies how much the choice
// changes the reported metrics.
//
//   ./ablation_rx_policy [--n=1024] [--threads=0] [--trials=300] [--seed=1]
#include <cstdio>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 1024);
  const int trials = flags.get_count("trials", 300);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-5;

  bench::print_header("Ablation: drain-all vs one-receive-per-step");
  std::printf("# N=%d, L=2us, O=1us, %d trials\n", n, trials);

  Table table({"algo", "rx policy", "lat[us]", "work", "all-reached"});
  for (const Algo a : {Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg}) {
    const TunedAlgo tuned = tune_for(a, n, n, logp, eps, 1);
    for (const RxPolicy rx : {RxPolicy::kDrainAll, RxPolicy::kOnePerStep}) {
      TrialSpec spec;
      spec.threads = bench::threads_flag(flags);
      spec.algo = a;
      spec.acfg = tuned.acfg;
      spec.n = n;
      spec.logp = logp;
      spec.rx = rx;
      spec.seed = seed;
      spec.trials = trials;
      const TrialAggregate agg = run_trials(spec);
      table.add_row(
          {algo_name(a),
           rx == RxPolicy::kDrainAll ? "drain-all" : "one-per-step",
           Table::cell_or_na("%.1f", reported_latency_us(a, agg, logp)),
           Table::cell("%.0f", agg.work.mean()),
           Table::cell("%lld/%lld",
                       static_cast<long long>(agg.all_colored_trials),
                       static_cast<long long>(agg.trials))});
    }
  }
  table.print();
  std::printf("\n# expectation: serializing receives delays coloring "
              "slightly during the dense gossip phase; correction phases "
              "are sparse and barely move\n");
  return 0;
}
