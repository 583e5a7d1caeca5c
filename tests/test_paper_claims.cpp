// One test per formal statement of the paper, at bench-feasible scale:
// Lemma 1 (Eq. 1), Claim 2 (OCG eps-coverage), Claim 3 (CCG strong
// consistency), Observation 1 / Claim 4 (FCG all-or-nothing), Claim 5
// (f^2+f+1 without SOS), Corollary 3 (failures before/during gossip), the
// Eq. 3/4/5 optima, and Table 7's headline orderings.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/baseline_models.hpp"
#include "analysis/coloring.hpp"
#include "analysis/fcg_bound.hpp"
#include "analysis/tuning.hpp"
#include "gossip/fcg.hpp"
#include "harness/experiment.hpp"
#include "harness/scenarios.hpp"

namespace cg {
namespace {

TEST(PaperLemma1, ColoringRecurrenceMatchesSimulationWithin1Percent) {
  // c(t) from Eq. (1) vs the mean over simulated gossip runs, multiple
  // probe times, N = 512.
  const NodeId n = 512;
  const Step T = 40;
  const int trials = 120;
  std::vector<std::vector<Step>> runs;
  for (int k = 0; k < trials; ++k) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::unit();
    cfg.seed = 7000 + static_cast<std::uint64_t>(k);
    cfg.record_node_detail = true;
    AlgoConfig acfg;
    acfg.T = T;
    runs.push_back(run_once(Algo::kGos, acfg, cfg).colored_at);
  }
  const auto c = expected_colored(n, n, T, LogP::unit(), 30);
  for (const Step t : {8, 12, 16, 20, 24, 28}) {
    double mean = 0;
    for (const auto& run : runs) {
      int count = 0;
      for (const Step ct : run) {
        if (ct != kNever && ct <= t) ++count;
      }
      mean += count;
    }
    mean /= trials;
    const double pred = c[static_cast<std::size_t>(t)];
    EXPECT_NEAR(mean, pred, std::max(1.5, 0.05 * pred)) << "t=" << t;
  }
}

TEST(PaperClaim2, OcgMissRateBoundedByEps) {
  // "By selecting large enough values of T and C, we can reduce the
  // probability that the correction phase fails ... below any desired
  // eps."  At eps = 0.02 and 1200 trials the observed miss rate must stay
  // within sampling error of eps.
  const NodeId n = 512;
  const double eps = 0.02;
  const Tuning t = tune_ocg(n, n, LogP::unit(), eps);
  TrialSpec spec;
  spec.algo = Algo::kOcg;
  spec.acfg.T = t.T_opt + 1;
  spec.acfg.ocg_corr_sends = k_bar_for(n, n, spec.acfg.T, LogP::unit(), eps) + 1;
  spec.n = n;
  spec.logp = LogP::unit();
  spec.seed = 31337;
  spec.trials = 1200;
  const TrialAggregate agg = run_trials(spec);
  const double miss = 1.0 - agg.all_colored_rate();
  // 3x slack over eps covers both model approximation and sampling noise.
  EXPECT_LT(miss, 3 * eps);
}

TEST(PaperClaim3, CcgStronglyConsistentWithoutOnlineFailures) {
  // Sweep seeds and pre-failure counts: every ACTIVE node is reached and
  // the algorithm completes, always.
  for (const int pre : {0, 5, 37}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Xoshiro256 frng(seed * 17);
      RunConfig cfg;
      cfg.n = 192;
      cfg.logp = LogP::unit();
      cfg.seed = seed;
      cfg.failures = FailureSchedule::random(cfg.n, pre, 0, 0, frng);
      AlgoConfig acfg;
      acfg.T = 12;
      const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);
      ASSERT_TRUE(m.all_active_colored) << "pre=" << pre << " seed=" << seed;
      ASSERT_NE(m.t_complete, kNever);
    }
  }
}

TEST(PaperClaim4, FcgAllOrNothingUnderUpToFOnlineFailures) {
  // The core FCG guarantee, stressed with failures at every phase of the
  // run (gossip, drain, early/late correction).
  const NodeId n = 160;
  for (const int f : {1, 2}) {
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      Xoshiro256 frng(seed * 23 + static_cast<std::uint64_t>(f));
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = LogP::unit();
      cfg.seed = seed;
      cfg.failures =
          FailureSchedule::random(n, 0, f, /*horizon=*/50, frng);
      AlgoConfig acfg;
      acfg.T = 13;
      acfg.fcg_f = f;
      const RunMetrics m = run_once(Algo::kFcg, acfg, cfg);
      ASSERT_TRUE(m.all_or_nothing_delivery())
          << "f=" << f << " seed=" << seed;
      ASSERT_FALSE(m.hit_max_steps);
    }
  }
}

TEST(PaperCorollary3, FcgWithstandsAnyFailuresBeforeOrDuringGossip) {
  // "FCG can withstand any number of failures happening before the
  // algorithm or during the gossip phase" - kill far more than f nodes,
  // but only at gossip time.
  RunConfig cfg;
  cfg.n = 128;
  cfg.logp = LogP::unit();
  cfg.seed = 77;
  Xoshiro256 frng(99);
  cfg.failures = FailureSchedule::random(cfg.n, 20, 0, 0, frng);
  const auto& pre = cfg.failures.pre_failed;
  int added = 0;  // 10 crashes inside the gossip phase (a node fails once,
                  // so skip victims the random pre-failed set already took)
  for (NodeId v = 100; added < 10; ++v) {
    if (std::find(pre.begin(), pre.end(), v) != pre.end()) continue;
    cfg.failures.online.push_back({v, static_cast<Step>(2 + added)});
    ++added;
  }
  AlgoConfig acfg;
  acfg.T = 13;  // gossip ends at 13; all online failures are before that
  acfg.fcg_f = 1;
  const RunMetrics m = run_once(Algo::kFcg, acfg, cfg);
  EXPECT_TRUE(m.all_active_delivered);
  EXPECT_TRUE(m.all_or_nothing_delivery());
}

TEST(PaperClaim5, FSquaredPlusFPlusOneGNodesCompleteWithoutSos) {
  // With SOS disabled and exactly f^2+f+1 evenly spaced g-nodes, FCG
  // completes (worst-case placement per the claim needs only that many).
  for (const int f : {1, 2}) {
    const int g_count = f * f + f + 1;
    const NodeId n = 60;
    auto bm = std::make_shared<std::vector<std::uint8_t>>(n, 0);
    std::vector<NodeId> gs;
    for (int k = 1; k < g_count; ++k) {
      const auto idx = static_cast<NodeId>(k * n / g_count);
      (*bm)[static_cast<std::size_t>(idx)] = 1;
    }
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::unit();
    cfg.seed = 5;
    FcgNode::Params p;
    p.T = 0;
    p.f = f;
    p.sos_enabled = false;
    p.seed_colored = bm;
    Engine<FcgNode> eng(cfg, p);
    const RunMetrics m = eng.run();
    EXPECT_TRUE(m.all_active_delivered) << "f=" << f;
    EXPECT_FALSE(m.sos_triggered);
    EXPECT_FALSE(m.hit_max_steps) << "f=" << f;
  }
}

TEST(PaperEq3Eq4, TuningOptimaMatchThePaper) {
  // Fig. 3: OCG T_opt = 24; Fig. 5: CCG T_opt = 25 (N=1024, L=O=1,
  // eps = 6.93e-7).  Allow +-2 for quantile granularity.
  const double eps = paper_eps();
  EXPECT_NEAR(static_cast<double>(tune_ocg(1024, 1024, LogP::unit(), eps).T_opt),
              24.0, 2.0);
  EXPECT_NEAR(static_cast<double>(tune_ccg(1024, 1024, LogP::unit(), eps).T_opt),
              25.0, 2.0);
}

TEST(PaperEq5, FcgBoundDominatesSimulation) {
  // Eq. 5 is an upper bound: at its recommended T the simulated
  // completion never exceeds it.
  const NodeId n = 512;
  const double eps = 1e-3;
  const FcgTuning t = tune_fcg(n, n, LogP::unit(), eps, 1);
  TrialSpec spec;
  spec.algo = Algo::kFcg;
  spec.acfg.T = t.T_opt + 1;
  spec.acfg.fcg_f = 1;
  spec.n = n;
  spec.logp = LogP::unit();
  spec.seed = 4242;
  spec.trials = 400;
  const TrialAggregate agg = run_trials(spec);
  const Step bound =
      fcg_predicted_upper(n, n, spec.acfg.T, LogP::unit(), eps, 1);
  EXPECT_LE(agg.t_complete.max(), static_cast<double>(bound) + 2.0);
  EXPECT_EQ(agg.sos_trials, 0);
}

TEST(PaperTable7, HeadlineOrderingsHold) {
  // Scaled-down Table 7 (N = 1024 for speed): the orderings the paper's
  // abstract advertises.
  const NodeId n = 1024;
  const LogP pd = LogP::piz_daint();
  const double eps = 1e-5;
  const int trials = 60;
  const ScenarioResult gos = run_scenario(Algo::kGos, n, 0, pd, trials, 1, eps);
  const ScenarioResult ocg = run_scenario(Algo::kOcg, n, 0, pd, trials, 2, eps);
  const ScenarioResult ccg = run_scenario(Algo::kCcg, n, 0, pd, trials, 3, eps);
  const ScenarioResult fcg = run_scenario(Algo::kFcg, n, 0, pd, trials, 4, eps);
  const ModelRow big = big_model_row(n, pd);
  const ModelRow bfb = bfb_model_row(n, 0, pd);

  // Latency ordering: OCG <= CCG <= FCG < BIG < BFB.
  EXPECT_LE(ocg.lat_us.value(), ccg.lat_us.value());
  EXPECT_LE(ccg.lat_us.value(), fcg.lat_us.value());
  EXPECT_LT(fcg.lat_us.value(), big.lat_us);  // "FCG ... 15% lower latency than BIG"
  EXPECT_LT(big.lat_us, bfb.lat_us);
  // "OCG ... 20% lower latency than GOS".
  EXPECT_LT(ocg.lat_us.value(), 0.9 * gos.lat_us.value());
  // "OCG ... less messages (work) ... than GOS" (paper: 60% less).
  EXPECT_LT(ocg.work, 0.6 * gos.work);
  // BFB needs the fewest messages of all (paper: "BFB requires the least
  // amount of messages").
  EXPECT_LT(static_cast<double>(bfb.work), ocg.work);
  // Everything strongly consistent here except (possibly) OCG's eps tail.
  EXPECT_EQ(ccg.incon, 0.0);
  EXPECT_EQ(fcg.incon, 0.0);
}

TEST(PaperSection4C, ExpectedFailureArithmetic) {
  // f_hat ~ 2.69 failures for 4096 nodes / 12 h / MTBF 18304 h, and BFB's
  // 20%-online assumption gives exactly one restart.
  EXPECT_NEAR(FailureSchedule::expected_failures(4096), 2.685, 0.005);
  EXPECT_EQ(bfb_online_failures(3), 1);
  // CCG's in-run failure probability estimate p_hat = 3.4e-9 (Table 7
  // discussion): N * 55us / MTBF.
  const double p_hat = 4096.0 * 55e-6 / (18304.0 * 3600.0);
  EXPECT_NEAR(p_hat, 3.4e-9, 0.2e-9);
}

}  // namespace
}  // namespace cg
