// Analytic models: Eq. (1) coloring, Eq. (2) chain distribution, tuning
// (Eqs. 3-5), Appendix-B G_V, and closed-form helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/chain.hpp"
#include "analysis/coloring.hpp"
#include "analysis/fcg_bound.hpp"
#include "analysis/logmath.hpp"
#include "analysis/tuning.hpp"
#include "harness/scenarios.hpp"

namespace cg {
namespace {

// -------------------------------------------------------------- logmath --

TEST(LogMath, OneMinusPow) {
  EXPECT_DOUBLE_EQ(one_minus_pow(0.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(one_minus_pow(1.0, 10), 1.0);
  EXPECT_NEAR(one_minus_pow(0.5, 2), 0.75, 1e-12);
  // Tiny p: 1-(1-p)^n ~ n*p.
  EXPECT_NEAR(one_minus_pow(1e-12, 1000), 1e-9, 1e-12);
}

TEST(LogMath, LogChoose) {
  EXPECT_NEAR(std::exp(log_choose(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(52, 5)), 2598960.0, 1e-3);
}

TEST(LogMath, Log1mExp) {
  EXPECT_NEAR(log1mexp(-1.0), std::log(1 - std::exp(-1.0)), 1e-12);
  EXPECT_NEAR(log1mexp(-1e-9), std::log(1e-9), 1e-3);  // ~log(-expm1(x))
}

// ------------------------------------------------------------- coloring --

TEST(Coloring, InitialConditions) {
  const auto c = expected_colored(1024, 1024, 20, LogP::unit(), 5);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);  // nothing can arrive before step L/O+2
  EXPECT_DOUBLE_EQ(c[2], 1.0);
  EXPECT_GT(c[3], 1.0);  // first arrival (root emits at 1, lands at 3)
}

TEST(Coloring, MonotoneAndBounded) {
  const auto c = expected_colored(512, 512, 30, LogP::unit(), 50);
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_GE(c[i], c[i - 1]);
    EXPECT_LE(c[i], 512.0);
  }
}

TEST(Coloring, StopsGrowingAfterDrain) {
  const Step T = 15;
  const auto c = expected_colored(256, 256, T, LogP::unit(), 40);
  const Step drain = T + LogP::unit().l_over_o;  // last arrival step
  for (Step s = drain; s < 40; ++s)
    EXPECT_DOUBLE_EQ(c[static_cast<std::size_t>(s)],
                     c[static_cast<std::size_t>(drain)]);
}

TEST(Coloring, InactiveNodesCapTheLimit) {
  // n_active < N: coloring saturates at n_active.
  const auto c = expected_colored(1000, 600, 60, LogP::unit(), 120);
  EXPECT_LE(c.back(), 600.0);
  EXPECT_GT(c.back(), 590.0);
}

TEST(Coloring, Figure1Shape) {
  // Figure 1: N=n=1024, L=O=1; c(t) passes ~512 around t=18 and nearly
  // saturates by t=30.
  const auto c = expected_colored(1024, 1024, 40, LogP::unit(), 40);
  EXPECT_GT(c[18], 380.0);
  EXPECT_LT(c[18], 640.0);
  EXPECT_GT(c[30], 1010.0);
}

TEST(Coloring, GossipTimeForTarget) {
  const Step T = gossip_time_for_target(1024, 1024, 1.0, LogP::unit());
  // Expected miss < 1 node requires roughly the Figure-1 saturation time.
  EXPECT_GT(T, 20);
  EXPECT_LT(T, 40);
  // Monotone: tighter target -> more time.
  EXPECT_GE(gossip_time_for_target(1024, 1024, 0.01, LogP::unit()), T);
}

TEST(Coloring, SingleNodeStaysColored) {
  // At N = 1 the root is the whole system: c(t) = 1 for every t, so any
  // gossip target is met at the first candidate T.
  for (const LogP& logp : {LogP::unit(), LogP::piz_daint()}) {
    for (const double c : expected_colored(1, 1, 5, logp, 30))
      EXPECT_DOUBLE_EQ(c, 1.0);
    EXPECT_DOUBLE_EQ(colored_at_corr_start(1, 1, 7, logp), 1.0);
    EXPECT_EQ(gossip_time_for_target(1, 1, 0.5, logp), 1);
  }
}

// ---------------------------------------------------------------- chain --

TEST(Chain, SumsToOne) {
  // cbar = N: a fully colored ring, where only the K = 0 pattern (0^0 = 1)
  // has mass.
  for (const double cbar : {16.0, 100.0, 250.0, 255.0, 256.0}) {
    ChainDist d(256, cbar);
    double sum = 0;
    for (int K = 0; K < 256; ++K) sum += d.pmf(K);
    EXPECT_NEAR(sum, 1.0, 1e-6) << "cbar=" << cbar;
  }
}

TEST(Chain, TailMonotone) {
  ChainDist d(256, 200.0);
  for (int K = 0; K < 255; ++K) EXPECT_GE(d.tail(K), d.tail(K + 1));
  EXPECT_NEAR(d.tail(0), 1.0, 1e-9);
}

TEST(Chain, KBarMonotoneInEps) {
  EXPECT_LE(chain_k_bar(1024, 1000.0, 1e-2), chain_k_bar(1024, 1000.0, 1e-4));
  EXPECT_LE(chain_k_bar(1024, 1000.0, 1e-4), chain_k_bar(1024, 1000.0, 1e-8));
}

TEST(Chain, DenseColoringHasShortChains) {
  EXPECT_LE(chain_k_bar(1024, 1020.0, 1e-6), 6);
  EXPECT_GT(chain_k_bar(1024, 64.0, 1e-6), 50);
}

TEST(Chain, KBarForDecreasesWithT) {
  const double eps = 1e-6;
  const int k10 = k_bar_for(1024, 1024, 10, LogP::unit(), eps);
  const int k20 = k_bar_for(1024, 1024, 20, LogP::unit(), eps);
  const int k30 = k_bar_for(1024, 1024, 30, LogP::unit(), eps);
  EXPECT_GE(k10, k20);
  EXPECT_GE(k20, k30);
}

// --------------------------------------------------------------- tuning --

TEST(Tuning, EpsForRuns) {
  // Paper: eps = 1-(1-0.5)^(1/1e6) = 6.93e-7.
  EXPECT_NEAR(eps_for_runs(0.5, 1e6), 6.9315e-7, 1e-10);
  EXPECT_NEAR(eps_for_runs(0.5, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(paper_eps(), 6.9315e-7, 1e-10);
}

TEST(Tuning, OcgMatchesPaperNeighborhood) {
  // Paper Figure 3: T_opt = 24 at N=n=1024, L=O=1, eps=6.93e-7.
  const Tuning t = tune_ocg(1024, 1024, LogP::unit(), paper_eps());
  EXPECT_GE(t.T_opt, 23);
  EXPECT_LE(t.T_opt, 27);
  EXPECT_GT(t.k_bar, 0);
}

TEST(Tuning, CcgMatchesPaperNeighborhood) {
  // Paper Figure 5: T_opt = 25.
  const Tuning t = tune_ccg(1024, 1024, LogP::unit(), paper_eps());
  EXPECT_GE(t.T_opt, 24);
  EXPECT_LE(t.T_opt, 29);
}

TEST(Tuning, CcgNeverFasterThanOcg) {
  for (const NodeId n : {128, 1024, 4096}) {
    const Tuning o = tune_ocg(n, n, LogP::piz_daint(), paper_eps());
    const Tuning c = tune_ccg(n, n, LogP::piz_daint(), paper_eps());
    EXPECT_LE(o.predicted_latency, c.predicted_latency) << n;
  }
}

TEST(Tuning, Table7Neighborhood) {
  // Paper Table 7 (N=4096, L=2us, O=1us): OCG T=32 lat 42; CCG T=36 lat 44.
  const LogP pd = LogP::piz_daint();
  const Tuning o = tune_ocg(4096, 4096, pd, paper_eps());
  EXPECT_NEAR(static_cast<double>(o.T_opt), 32.0, 3.0);
  EXPECT_NEAR(static_cast<double>(o.predicted_latency), 42.0, 3.0);
  const Tuning c = tune_ccg(4096, 4096, pd, paper_eps());
  EXPECT_NEAR(static_cast<double>(c.T_opt), 36.0, 3.0);
  EXPECT_NEAR(static_cast<double>(c.predicted_latency), 44.0, 3.0);
}

TEST(Tuning, PredictedLatencyIsConsistent) {
  const double eps = 1e-5;
  const Tuning t = tune_ocg(512, 512, LogP::unit(), eps);
  EXPECT_EQ(ocg_predicted_latency(512, 512, t.T_opt, LogP::unit(), eps),
            t.predicted_latency);
}

// ------------------------------------------------------------ FCG bound --

TEST(FcgBound, GChainSumsToOne) {
  GChainDist d(256, 200.0, 5);
  double sum = 0;
  for (int G = 5; G <= 256; ++G) sum += d.pmf(G);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(FcgBound, GvAtLeastV) {
  EXPECT_GE(chain_g_v(1024, 1000.0, 5, 1e-6), 5);
}

TEST(FcgBound, SparseColoringMakesGvUnbounded) {
  // Regression: when fewer than V g-nodes can exist, no V-window exists
  // and only the whole ring is a safe span bound (the naive tail scan
  // would return the minimum V and mis-tune FCG's T towards 1).
  // ~4 g-nodes, windows of 9 impossible.
  EXPECT_EQ(chain_g_v(1024, 4.0, 9, 1e-4), 1024);
  // And the tuner therefore never picks a tiny T for large f.
  const FcgTuning t = tune_fcg(1024, 1024, LogP::piz_daint(), 1e-5, 3);
  EXPECT_GT(t.T_opt, 15);
}

TEST(FcgBound, GvShrinksWithDenserColoring) {
  EXPECT_LE(chain_g_v(1024, 1020.0, 5, 1e-6), chain_g_v(1024, 512.0, 5, 1e-6));
}

TEST(FcgBound, TuningNeighborhood) {
  // Paper Figure 9 (N=1024, L=O=1, f=1): optimum around T=31-37,
  // predicted upper bound around 47-52.
  const FcgTuning t = tune_fcg(1024, 1024, LogP::unit(), paper_eps(), 1);
  EXPECT_GE(t.T_opt, 28);
  EXPECT_LE(t.T_opt, 38);
  EXPECT_GE(t.predicted_upper, 40);
  EXPECT_LE(t.predicted_upper, 56);
}

TEST(FcgBound, UpperBoundAboveCcgLatency) {
  // FCG's bound must dominate CCG's predicted latency at the same T.
  const double eps = paper_eps();
  for (const Step T : {28, 32, 36}) {
    EXPECT_GE(fcg_predicted_upper(1024, 1024, T, LogP::unit(), eps, 1),
              ccg_predicted_latency(1024, 1024, T, LogP::unit(), eps));
  }
}

// ------------------------------------------------------------ scenarios --

TEST(Scenarios, TuneForProducesRunnableConfigs) {
  for (const Algo a : {Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg}) {
    const TunedAlgo t = tune_for(a, 256, 256, LogP::unit(), 1e-4, 1);
    EXPECT_GT(t.acfg.T, 0) << algo_name(a);
    EXPECT_GT(t.predicted_latency_steps, t.acfg.T) << algo_name(a);
  }
  EXPECT_GT(tune_for(Algo::kBig, 256, 256, LogP::unit(), 1e-4, 1)
                .predicted_latency_steps,
            0);
}

TEST(Scenarios, ModelRowsMatchTable7) {
  const LogP pd = LogP::piz_daint();
  const ModelRow big = big_model_row(4096, pd);
  EXPECT_DOUBLE_EQ(big.lat_us, 60.0);
  EXPECT_EQ(big.work, 49152);
  const ModelRow bfb0 = bfb_model_row(4096, 0, pd);
  EXPECT_DOUBLE_EQ(bfb0.lat_us, 96.0);
  EXPECT_EQ(bfb0.work, 4096);
  const ModelRow bfb3 = bfb_model_row(4096, 3, pd);
  EXPECT_DOUBLE_EQ(bfb3.lat_us, 144.0);
  EXPECT_EQ(bfb3.work, 8192);
}

}  // namespace
}  // namespace cg
