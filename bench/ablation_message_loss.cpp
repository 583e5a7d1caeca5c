// Ablation: breaking the paper's reliable-channel assumption.  Each
// message is lost independently with probability p.  Which guarantees
// survive?
//   * GOS/OCG gossip is naturally redundant: coloring barely notices
//     small p, but OCG's one-shot correction messages are single points
//     of failure for their targets.
//   * CCG keeps terminating (a g-node that never hears its neighbor
//     sweeps the full lap) and usually still reaches everyone - the gap
//     survives only if BOTH directions' covering messages die.
//   * FCG's redundancy (f+1 g-nodes per direction, transitive k-arrays)
//     makes it the most loss-tolerant; in the worst case c-nodes time out
//     into SOS, which retries the flood.
//
//   ./ablation_message_loss [--n=512] [--trials=400] [--seed=1]
#include <cstdio>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 512);
  const int trials = flags.get_count("trials", 400);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-4;

  bench::print_header("Ablation: i.i.d. message loss with probability p");
  std::printf("# N=%d, L=2us, O=1us, %d trials; parameters tuned for p=0\n",
              n, trials);

  Table table({"p", "algo", "reached (mean%)", "all-reached", "SOS",
               "mean lat[us]"});
  for (const double p : {0.0, 0.01, 0.05, 0.2}) {
    for (const Algo a : {Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg}) {
      const TunedAlgo tuned = tune_for(a, n, n, logp, eps, 1);
      RunningStat reached, lat;
      std::int64_t all = 0, sos = 0;
      for (int t = 0; t < trials; ++t) {
        RunConfig cfg;
        cfg.n = n;
        cfg.logp = logp;
        cfg.drop_prob = p;
        cfg.seed = derive_seed(
            seed, static_cast<std::uint64_t>(p * 10000) * 64 +
                      static_cast<std::uint64_t>(a) * 8 +
                      static_cast<std::uint64_t>(t) * 1024);
        const RunMetrics m = run_once(a, tuned.acfg, cfg);
        reached.add(100.0 * m.n_colored / m.n_active);
        if (m.all_active_colored) ++all;
        if (m.sos_triggered) ++sos;
        const Step l = m.t_complete == kNever ? m.t_end : m.t_complete;
        lat.add(logp.us(l));
      }
      table.add_row({Table::cell("%.3f", p), algo_name(a),
                     Table::cell("%.3f%%", reached.mean()),
                     Table::cell("%lld/%d", static_cast<long long>(all),
                                 trials),
                     Table::cell("%lld", static_cast<long long>(sos)),
                     Table::cell("%.1f", lat.mean())});
    }
  }
  table.print();
  std::printf("\n# reading: corrected gossip degrades gracefully - CCG/FCG "
              "still terminate and miss at most isolated nodes whose "
              "covering messages all died; FCG's redundancy keeps it "
              "near-perfect the longest\n");
  return 0;
}
