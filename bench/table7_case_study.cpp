// Table 7 (the table inside Figure 7): case study with N = 4096 nodes,
// L = 2 us, O = 1 us - latency, work, and inconsistency of GOS, OCG, CCG,
// FCG (simulated) and BIG, BFB (modeled analytically, as in the paper) for
// f_hat in {0, 3} failures.  Paper reference values are printed alongside.
//
// Failure semantics follow the paper's setup: the f_hat failures of a
// 12-hour job window are pre-failed nodes from the broadcast's point of
// view (a failure DURING the ~50 us broadcast has probability ~3.4e-9);
// only BFB's model charges ceil(20%) of them as online restarts.  FCG runs
// with f = 1 ("we always choose f=1").
//
//   ./table7_case_study [--n=4096] [--trials=200] [--seed=1] [--eps=6.93e-7] [--threads=0]
#include <cstdio>
#include <string>

#include "analysis/baseline_models.hpp"
#include "analysis/work_model.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"

namespace {

struct PaperRow {
  const char* lat;
  const char* work;
  const char* incon;
};

cg::Table make_table() {
  // "corr work" decomposes the total: the paper's CCG/FCG work rows
  // (19,057 / 23,153) are only consistent with correction-phase-only
  // counting - their own GOS/OCG rows pin total counting above that -
  // so we print both views (see EXPERIMENTS.md).
  return cg::Table({"algorithm", "f^", "T", "lat[us]", "work", "corr work",
                    "incon", "paper lat", "paper work", "paper incon"});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 4096);
  flags.require(n >= 4, "n",
                "an integer >= 4 (f_hat = 3 pre-failed nodes beside the root)");
  const int trials = flags.get_count("trials", 200);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double eps = bench::eps_flag(flags, paper_eps());
  const LogP logp = LogP::piz_daint();
  const bool is_paper_n = (n == 4096);

  bench::print_header("Table 7: reliable-broadcast case study");
  std::printf("# N=%d, L=2us, O=1us, eps=%.3g, %d trials per row\n", n, eps,
              trials);
  std::printf("# expected failures in a 12h job at this scale: %.2f\n",
              FailureSchedule::expected_failures(n));

  Table table = make_table();
  const Algo sims[] = {Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg};
  // Paper values for N=4096 (from the Table 7 figure).
  const PaperRow paper[4][2] = {
      {{"53", "95418", "2e-5%"}, {"53", "95331", "8e-6%"}},   // GOS
      {{"42", "38400", "1e-4%"}, {"42", "38355", "3e-4%"}},   // OCG
      {{"44", "19057", "0%"}, {"46", "16952", "0%"}},         // CCG
      {{"48", "23153", "0%"}, {"51", "23101", "0%"}},         // FCG
  };

  for (int a = 0; a < 4; ++a) {
    for (const int f_hat : {0, 3}) {
      const ScenarioResult r = run_scenario(
          sims[a], n, f_hat, logp, trials,
          derive_seed(seed, static_cast<std::uint64_t>(a * 2 + (f_hat > 0))),
          eps, /*f=*/1, bench::threads_flag(flags));
      const PaperRow& p = paper[a][f_hat > 0 ? 1 : 0];
      table.add_row(
          {algo_name(sims[a]), Table::cell("%d", f_hat),
           Table::cell("%lld", static_cast<long long>(r.tuned.acfg.T)),
           Table::cell_or_na("%.0f", r.lat_us), Table::cell("%.0f", r.work),
           Table::cell("%.0f", r.agg.work_correction.mean()),
           Table::cell("%.2g%%", r.incon * 100.0),
           is_paper_n ? p.lat : "-", is_paper_n ? p.work : "-",
           is_paper_n ? p.incon : "-"});
    }
  }

  // Analytic baselines, exactly as the paper models them.
  for (const int f_hat : {0, 3}) {
    const ModelRow big = big_model_row(n, logp);
    table.add_row({"BIG", Table::cell("%d", f_hat), "-",
                   Table::cell("%.0f", big.lat_us),
                   Table::cell("%lld", static_cast<long long>(big.work)), "-",
                   "0%", is_paper_n ? "60" : "-", is_paper_n ? "49152" : "-",
                   is_paper_n ? "0%" : "-"});
  }
  for (const int f_hat : {0, 3}) {
    const ModelRow bfb = bfb_model_row(n, f_hat, logp);
    table.add_row({"BFB", Table::cell("%d", f_hat), "-",
                   Table::cell("%.0f", bfb.lat_us),
                   Table::cell("%lld", static_cast<long long>(bfb.work)), "-",
                   "0%", is_paper_n ? (f_hat ? "144" : "96") : "-",
                   is_paper_n ? (f_hat ? "8192" : "4096") : "-",
                   is_paper_n ? "0%" : "-"});
  }
  table.print();
  bench::maybe_write_csv(flags, table);

  // Expected-work models (analysis/work_model.hpp) next to the simulation.
  std::printf("\n");
  Table wm({"algorithm", "model: gossip", "model: corr", "model: total"});
  {
    const TunedAlgo g = tune_for(Algo::kGos, n, n, logp, eps, 1);
    wm.add_row({"GOS",
                Table::cell("%.0f", expected_gossip_work(n, n, g.acfg.T, logp)),
                "0",
                Table::cell("%.0f", expected_gossip_work(n, n, g.acfg.T, logp))});
    const TunedAlgo o = tune_for(Algo::kOcg, n, n, logp, eps, 1);
    wm.add_row({"OCG",
                Table::cell("%.0f", expected_gossip_work(n, n, o.acfg.T, logp)),
                Table::cell("%.0f", expected_ocg_corr_work(
                                        n, n, o.acfg.T, logp,
                                        o.acfg.ocg_corr_sends)),
                Table::cell("%.0f", expected_ocg_work(n, n, o.acfg.T, logp,
                                                      o.acfg.ocg_corr_sends))});
    const TunedAlgo c = tune_for(Algo::kCcg, n, n, logp, eps, 1);
    wm.add_row({"CCG",
                Table::cell("%.0f", expected_gossip_work(n, n, c.acfg.T, logp)),
                Table::cell("%.0f", expected_ccg_corr_work(n, n, c.acfg.T, logp)),
                Table::cell("%.0f", expected_ccg_work(n, n, c.acfg.T, logp))});
    const TunedAlgo f = tune_for(Algo::kFcg, n, n, logp, eps, 1);
    wm.add_row({"FCG",
                Table::cell("%.0f", expected_gossip_work(n, n, f.acfg.T, logp)),
                Table::cell("%.0f", expected_fcg_corr_work(n, 1)),
                Table::cell("%.0f", expected_fcg_work(n, n, f.acfg.T, logp, 1))});
  }
  wm.print();

  std::printf(
      "\n# headline ratios (paper: OCG saves 60%% work / 20%% latency vs "
      "GOS; FCG saves >50%% work / 15%% latency vs BIG)\n");
  return 0;
}
