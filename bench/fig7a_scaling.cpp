// Figure 7a: latency scaling for failure-free execution.  Simulated
// medians for OCG, CCG, FCG; analytic best-case lines for BIG and BFB and
// the "opt" lower bound.  L = 2 us, O = 1 us, eps = 6.93e-7.
//
//   ./fig7a_scaling [--max-n=16384] [--threads=0] [--trials=200] [--seed=1]
//                   [--eps=...] [--engine=stepped|sharded] [--shards=K]
#include <cstdio>
#include <vector>

#include "analysis/baseline_models.hpp"
#include "baselines/opt_tree.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto max_n = flags.get_count("max-n", 16384);
  const int base_trials = flags.get_count("trials", 200);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double eps = bench::eps_flag(flags, paper_eps());
  const ExecConfig exec = bench::exec_flag(flags);
  const LogP logp = LogP::piz_daint();

  bench::print_header("Figure 7a: latency scaling, failure-free");
  std::printf("# L=2us, O=1us, eps=%.3g (simulated median; BIG/BFB/opt "
              "analytic)\n", eps);

  Table table({"N", "OCG", "CCG", "FCG", "BIG", "BFB", "opt"});
  for (NodeId n = 64; n <= max_n; n *= 2) {
    // Keep per-point cost roughly constant: fewer trials at larger N.
    const int trials =
        std::max(30, base_trials * 2048 / std::max<NodeId>(n, 2048));
    std::vector<std::string> row{Table::cell("%d", n)};
    for (const Algo a : {Algo::kOcg, Algo::kCcg, Algo::kFcg}) {
      const ScenarioResult r =
          run_scenario(a, n, 0, logp, trials,
                       derive_seed(seed, static_cast<std::uint64_t>(n) * 8 +
                                             static_cast<std::uint64_t>(a)),
                       eps, 1, bench::threads_flag(flags), exec);
      row.push_back(Table::cell(
          "%.0f", logp.us(1) * (r.agg.t_complete.empty()
                                    ? 0.0
                                    : r.agg.t_complete.median())));
    }
    row.push_back(Table::cell("%.0f", big_latency_us(n, logp)));
    row.push_back(Table::cell("%.0f", bfb_latency_us(n, 0, logp)));
    row.push_back(
        Table::cell("%.0f", logp.us(opt_latency_steps(n, logp))));
    table.add_row(std::move(row));
  }
  table.print();
  bench::maybe_write_csv(flags, table);
  std::printf("\n# paper shape: OCG fastest throughout; FCG beats BIG from "
              "N>=512; BFB slowest; all corrected-gossip curves grow ~log N\n");
  return 0;
}
