// Bit-identity of the support-bounded tuners against the O(N) oracle in
// reference_tuning.hpp: pmf/tail over the whole range, K_bar and G_V, the
// per-T statistics at every T a brute-force scan visits, and the Tuning /
// FcgTuning / PpTuning each tuner returns.  Doubles compare by bit
// pattern, so "close enough" never passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/chain.hpp"
#include "analysis/coloring.hpp"
#include "analysis/fcg_bound.hpp"
#include "analysis/tuning.hpp"
#include "gossip/ccg_pushpull.hpp"
#include "gossip/push_pull.hpp"
#include "harness/scenarios.hpp"
#include "reference_tuning.hpp"

namespace cg {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

const std::vector<double>& eps_grid() {
  static const std::vector<double> g = {0.3, 1e-2, 1e-4, paper_eps(), 1e-12};
  return g;
}

constexpr int kFs[] = {1, 2, 3};

// ------------------------------------------------------- distributions --

class DistributionGrid : public ::testing::TestWithParam<NodeId> {};

TEST_P(DistributionGrid, MatchesOracle) {
  const NodeId N = GetParam();
  const double n = static_cast<double>(N);
  for (const double cbar : {1.0, 1.25, n / 2.0, n - 1e-9, n}) {
    SCOPED_TRACE(::testing::Message() << "N=" << N << " cbar=" << cbar);
    const ChainDist d(N, cbar);
    const ref::ChainDist r(N, cbar);
    ASSERT_LE(d.support(), N);
    for (int K = 0; K < N; ++K) {
      ASSERT_EQ(bits(d.pmf(K)), bits(r.pmf(K))) << "pmf K=" << K;
      ASSERT_TRUE(std::isfinite(d.pmf(K))) << "pmf K=" << K;
    }
    for (int K = -1; K <= N; ++K)
      ASSERT_EQ(bits(d.tail(K)), bits(r.tail(K))) << "tail K=" << K;
    // Out of range reads are zero, never past the stored support.
    EXPECT_EQ(d.pmf(-1), 0.0);
    EXPECT_EQ(d.pmf(N), 0.0);
    EXPECT_EQ(d.pmf(N + 7), 0.0);
    EXPECT_EQ(d.tail(N + 7), 0.0);
    for (const double eps : eps_grid()) {
      EXPECT_EQ(chain_k_bar(N, cbar, eps), r.k_bar(eps)) << "eps=" << eps;
    }

    for (const int f : kFs) {
      const int V = 2 * f + 3;
      const GChainDist g(N, cbar, V);
      const ref::GChainDist rg(N, cbar, V);
      for (int G = V - 1; G <= N + 1; ++G) {
        ASSERT_EQ(bits(g.pmf(G)), bits(rg.pmf(G))) << "V=" << V << " G=" << G;
        ASSERT_EQ(bits(g.tail(G)), bits(rg.tail(G)))
            << "V=" << V << " G=" << G;
      }
      for (const double eps : eps_grid())
        EXPECT_EQ(chain_g_v(N, cbar, V, eps), rg.g_v(eps))
            << "V=" << V << " eps=" << eps;
    }
  }
}

// ------------------------------------------------------------- tuners --

/// Oracle statistics of one (N, n_active, L/O) at every T in [1, t_hi],
/// indexed [eps index][T] (T = 0 unused).
struct OracleTables {
  std::vector<std::vector<int>> k_bar;             // Eq. 1 + Eq. 2
  std::vector<std::vector<int>> k_bar_pp;          // push-pull forecast
  std::vector<std::vector<std::vector<int>>> g_v;  // [f index][eps][T]
};

OracleTables oracle_tables(NodeId N, NodeId n_active, const LogP& logp,
                           Step t_hi) {
  const std::size_t ne = eps_grid().size();
  const std::vector<int> row(static_cast<std::size_t>(t_hi) + 1, -1);
  OracleTables o;
  o.k_bar.assign(ne, row);
  o.k_bar_pp.assign(ne, row);
  o.g_v.assign(std::size(kFs), std::vector<std::vector<int>>(ne, row));
  for (Step T = 1; T <= t_hi; ++T) {
    const auto t = static_cast<std::size_t>(T);
    const double cbar = colored_at_corr_start(N, n_active, T, logp);
    const ref::ChainDist d(N, cbar);
    const ref::ChainDist dpp(
        N, pushpull_expected_colored(N, n_active, T, logp,
                                     T + logp.delivery_delay())
               .back());
    for (std::size_t e = 0; e < ne; ++e) {
      o.k_bar[e][t] = d.k_bar(eps_grid()[e]);
      o.k_bar_pp[e][t] = dpp.k_bar(eps_grid()[e]);
    }
    for (std::size_t fi = 0; fi < std::size(kFs); ++fi) {
      const ref::GChainDist g(N, cbar, 2 * kFs[fi] + 3);
      for (std::size_t e = 0; e < ne; ++e)
        o.g_v[fi][e][t] = g.g_v(eps_grid()[e]);
    }
  }
  return o;
}

/// One (N, n_active, L/O) point of the tuner grid.
struct TuneCase {
  NodeId N = 1;
  NodeId n_active = 1;
  Step l_over_o = 1;
};

/// Every (n_active, L/O) combination up to N = 1024.  At N = 1000 and
/// above, the O(N) oracle costs up to seconds per point, so those sizes
/// take one to three points each, chosen so every n_active and every L/O
/// value still meets a large N.
std::vector<TuneCase> tune_cases() {
  std::vector<TuneCase> cases;
  for (const NodeId N : {1, 2, 3, 5, 8, 17, 100, 1024}) {
    std::vector<NodeId> actives = {N, 3 * N / 4, N / 3};
    for (NodeId& a : actives) a = std::max<NodeId>(a, 1);
    actives.erase(std::unique(actives.begin(), actives.end()), actives.end());
    for (const NodeId a : actives)
      for (const Step l : {1, 2, 5}) cases.push_back({N, a, l});
  }
  cases.push_back({1000, 1000, 1});
  cases.push_back({1000, 3 * 1000 / 4, 2});
  cases.push_back({1000, 1000 / 3, 5});
  cases.push_back({4096, 4096 / 3, 1});
  cases.push_back({4096, 4096, 5});
  cases.push_back({10007, 3 * 10007 / 4, 5});
  cases.push_back({16384, 16384, 2});  // Piz Daint, Table 7's L/O
  return cases;
}

class TunerGrid : public ::testing::TestWithParam<TuneCase> {};

TEST_P(TunerGrid, MatchesBruteForceScan) {
  const auto [N, n_active, l_over_o] = GetParam();
  const LogP logp{.l_over_o = l_over_o, .o_us = 1.0};
  const Step t_hi = ref::default_t_hi(N, 32.0);
  const Step t_hi_fcg = ref::default_t_hi(N, 48.0);
  const OracleTables o = oracle_tables(N, n_active, logp, t_hi_fcg);
  const auto at = [](const std::vector<int>& v) {
    return [&v](Step T) { return v[static_cast<std::size_t>(T)]; };
  };

  for (std::size_t e = 0; e < eps_grid().size(); ++e) {
    const double eps = eps_grid()[e];
    SCOPED_TRACE(::testing::Message() << "eps=" << eps);

    // Per-T statistics at every T the brute-force scans visit.
    for (Step T = 1; T <= t_hi_fcg; ++T) {
      const auto t = static_cast<std::size_t>(T);
      ASSERT_EQ(k_bar_for(N, n_active, T, logp, eps), o.k_bar[e][t])
          << "T=" << T;
      ASSERT_EQ(k_bar_pushpull(N, n_active, T, logp, eps), o.k_bar_pp[e][t])
          << "T=" << T;
      for (std::size_t fi = 0; fi < std::size(kFs); ++fi)
        ASSERT_EQ(g_v_for(N, n_active, T, logp, eps, kFs[fi]),
                  o.g_v[fi][e][t])
            << "T=" << T << " f=" << kFs[fi];
    }

    // The default range (t_hi = 0); at the paper's eps also an explicit
    // [t_lo, t_hi] window.
    std::vector<std::pair<Step, Step>> windows = {{1, 0}};
    if (eps == paper_eps()) windows.emplace_back(3, t_hi / 2);
    for (const auto& [lo, hi] : windows) {
      SCOPED_TRACE(::testing::Message() << "window " << lo << ".." << hi);
      const Step hi_ccg = hi > 0 ? hi : t_hi;
      const Step hi_fcg = hi > 0 ? hi : t_hi_fcg;
      for (const int w : {1, 2}) {
        const ref::ScanResult r =
            ref::scan(lo, hi_ccg, at(o.k_bar[e]), [&](Step T, int k) {
              return ref::latency(T, k, l_over_o, w);
            });
        const Tuning t = w == 1 ? tune_ocg(N, n_active, logp, eps, lo, hi)
                                : tune_ccg(N, n_active, logp, eps, lo, hi);
        EXPECT_EQ(t.T_opt, r.T) << "w=" << w;
        EXPECT_EQ(t.k_bar, r.chain) << "w=" << w;
        EXPECT_EQ(t.predicted_latency, r.latency) << "w=" << w;
        EXPECT_EQ(w == 1 ? ocg_predicted_latency(N, n_active, r.T, logp, eps)
                         : ccg_predicted_latency(N, n_active, r.T, logp, eps),
                  r.latency)
            << "w=" << w;
      }
      const ref::ScanResult rpp =
          ref::scan(lo, hi_ccg, at(o.k_bar_pp[e]), [&](Step T, int k) {
            return ref::latency(T, k, l_over_o, 2);
          });
      const PpTuning pp = tune_ccg_pushpull(N, n_active, logp, eps, lo, hi);
      EXPECT_EQ(pp.T_opt, rpp.T);
      EXPECT_EQ(pp.k_bar, rpp.chain);
      EXPECT_EQ(pp.predicted_latency, rpp.latency);
      for (std::size_t fi = 0; fi < std::size(kFs); ++fi) {
        const int f = kFs[fi];
        const ref::ScanResult r =
            ref::scan(lo, hi_fcg, at(o.g_v[fi][e]), [&](Step T, int gv) {
              return ref::fcg_upper(T, gv, l_over_o, f);
            });
        const FcgTuning t = tune_fcg(N, n_active, logp, eps, f, lo, hi);
        EXPECT_EQ(t.T_opt, r.T) << "f=" << f;
        EXPECT_EQ(t.g_v, r.chain) << "f=" << f;
        EXPECT_EQ(t.predicted_upper, r.latency) << "f=" << f;
        EXPECT_EQ(fcg_predicted_upper(N, n_active, r.T, logp, eps, f),
                  r.latency)
            << "f=" << f;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistributionGrid,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 100, 1000, 1024,
                                           4096, 10007, 16384),
                         [](const auto& info) {
                           return (::testing::Message() << "N" << info.param)
                               .GetString();
                         });

INSTANTIATE_TEST_SUITE_P(Points, TunerGrid, ::testing::ValuesIn(tune_cases()),
                         [](const auto& info) {
                           const TuneCase& c = info.param;
                           return (::testing::Message()
                                   << "N" << c.N << "_active" << c.n_active
                                   << "_LO" << c.l_over_o)
                               .GetString();
                         });

}  // namespace
}  // namespace cg
