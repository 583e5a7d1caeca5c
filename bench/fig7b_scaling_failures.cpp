// Figure 7b: latency scaling with N/64 (1.5625%) failed nodes.  Simulated
// medians for OCG, CCG, FCG (tuned for the reduced active count); analytic
// lines for BIG and BFB.  "opt" is omitted, as in the paper (it would not
// be consistent under failures).
//
//   ./fig7b_scaling_failures [--max-n=16384] [--trials=200] [--seed=1]
//                            [--threads=0] [--engine=stepped|sharded]
//                            [--shards=K]
#include <cstdio>
#include <vector>

#include "analysis/baseline_models.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto max_n = flags.get_count("max-n", 16384);
  const int base_trials = flags.get_count("trials", 200);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2));
  const double eps = bench::eps_flag(flags, paper_eps());
  const ExecConfig exec = bench::exec_flag(flags);
  const LogP logp = LogP::piz_daint();

  bench::print_header("Figure 7b: latency scaling with N/64 node failures");
  std::printf("# L=2us, O=1us, eps=%.3g; pre-failed = N/64\n", eps);

  Table table({"N", "fails", "OCG", "OCG incon", "CCG", "FCG", "BIG", "BFB"});
  for (NodeId n = 64; n <= max_n; n *= 2) {
    const int trials =
        std::max(30, base_trials * 2048 / std::max<NodeId>(n, 2048));
    const int fails = n / 64;
    std::vector<std::string> row{Table::cell("%d", n),
                                 Table::cell("%d", fails)};
    double ocg_incon = 0;
    for (const Algo a : {Algo::kOcg, Algo::kCcg, Algo::kFcg}) {
      const ScenarioResult r =
          run_scenario(a, n, fails, logp, trials,
                       derive_seed(seed, static_cast<std::uint64_t>(n) * 8 +
                                             static_cast<std::uint64_t>(a)),
                       eps, 1, bench::threads_flag(flags), exec);
      row.push_back(Table::cell(
          "%.0f", logp.us(1) * (r.agg.t_complete.empty()
                                    ? 0.0
                                    : r.agg.t_complete.median())));
      if (a == Algo::kOcg) {
        ocg_incon = r.incon;
        row.push_back(Table::cell("%.2g%%", ocg_incon * 100.0));
      }
    }
    row.push_back(Table::cell("%.0f", big_latency_us(n, logp)));
    // BFB: ceil(20%) of the failures counted as online restarts.
    row.push_back(Table::cell(
        "%.0f", bfb_latency_us(n, bfb_online_failures(fails), logp)));
    table.add_row(std::move(row));
  }
  table.print();
  bench::maybe_write_csv(flags, table);
  std::printf("\n# paper shape: all strongly consistent except OCG "
              "(>=99.999%% consistent); FCG beats BIG from N>256; BIG may "
              "lose consistency for N>22001 on TSUBAME2 failure rates\n");
  return 0;
}
