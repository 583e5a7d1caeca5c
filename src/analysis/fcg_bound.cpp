#include "analysis/fcg_bound.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/coloring.hpp"
#include "analysis/logmath.hpp"
#include "analysis/tuning.hpp"
#include "common/check.hpp"

namespace cg {

namespace {

/// Appendix B's span distribution for one (N, cbar, V), walked from the top
/// of its support down; GChainDist and chain_g_v both run this pass.
class AppendixB {
 public:
  AppendixB(NodeId N, double cbar, int V) : N_(N), V_(V) {
    CG_CHECK(N >= 1 && V >= 2);
    cbar = std::clamp(cbar, 1.0, static_cast<double>(N));
    logN_ = std::log(static_cast<double>(N));
    logc_ = std::log(cbar);
    const double gap = static_cast<double>(N) - cbar;
    loggap_ = gap > 0.0 ? std::log(gap) : -INFINITY;
    lgv_ = std::lgamma(static_cast<double>(V) - 1.0);
    // log q(G) <= V log cbar - 2 log N - (G-V)(log N - log(N-cbar)).
    support_ = log_support(static_cast<double>(V) * logc_ - 2.0 * logN_,
                           logN_ - loggap_, std::max(0, N - V + 1));
  }

  /// Count of spans G = V, V+1, ... that can carry mass; every later
  /// term is exactly zero (see the file comment in fcg_bound.hpp).
  int support() const { return support_; }

  /// Calls visit(G, pmf, tail(G)) for G = V+support()-1 down to V until it
  /// returns true (see sweep_largest).
  template <class Visit>
  void sweep(Visit&& visit) const {
    sweep_largest(
        support_, [this](int i) { return pi_at(V_ + i); },
        [&](int i, double pmf, double tail) {
          return visit(V_ + i, pmf, tail);
        });
  }

 private:
  double pi_at(int G) const {
    const double g = static_cast<double>(G);
    const double v = static_cast<double>(V_);
    // log q(G,V); (G-2)! / ((V-2)! (G-V)!) via lgamma.
    double logq = v * logc_ - g * logN_ + std::lgamma(g - 1.0) - lgv_ -
                  std::lgamma(g - v + 1.0);
    if (G > V_) logq += (g - v) * loggap_;  // 0^0 = 1 when G == V, gap == 0
    const double q = std::exp(std::min(logq, 0.0));
    return one_minus_pow(q, static_cast<double>(N_));
  }

  NodeId N_;
  int V_;
  double logN_ = 0.0;
  double logc_ = 0.0;
  double loggap_ = 0.0;
  double lgv_ = 0.0;  // lgamma(V-1)
  int support_ = 0;
};

/// The Eq. 5 bound for a given G_V.
Step fcg_bound(Step T, int gv, const LogP& logp, int f) {
  if (f == 1)  // exact Appendix-B constant
    return T + 4 * static_cast<Step>(gv) + logp.l_over_o - 13;
  return T + 2 * static_cast<Step>(f + 1) * static_cast<Step>(gv) +
         logp.l_over_o;
}

}  // namespace

GChainDist::GChainDist(NodeId N, double cbar, int V) : V_(V) {
  const AppendixB eq(N, cbar, V);
  pmf_.assign(static_cast<std::size_t>(eq.support()), 0.0);
  tail_.assign(pmf_.size(), 0.0);
  eq.sweep([&](int G, double pmf, double tail) {
    pmf_[static_cast<std::size_t>(G - V)] = pmf;
    tail_[static_cast<std::size_t>(G - V)] = tail;
    return false;
  });
}

double GChainDist::pmf(int G) const {
  if (G < V_ || G - V_ >= static_cast<int>(pmf_.size())) return 0.0;
  return pmf_[static_cast<std::size_t>(G - V_)];
}

double GChainDist::tail(int G) const {
  if (G <= V_) return tail_.empty() ? 0.0 : tail_[0];
  if (G - V_ >= static_cast<int>(tail_.size())) return 0.0;
  return tail_[static_cast<std::size_t>(G - V_)];
}

int chain_g_v(NodeId N, double cbar, int V, double eps) {
  CG_CHECK(eps > 0.0);
  const AppendixB eq(N, cbar, V);
  if (eq.support() == 0) return N;  // N < V: no window of V g-nodes fits
  // The total mass tail(V) is P[a window of V consecutive g-nodes exists
  // at all]; when the coloring is too sparse for that (cbar ~ V or less)
  // the span bound is undefined and only the whole ring is a safe answer -
  // without this, every pattern probability rounds to zero and the
  // "bound" would degenerate to its minimum V.  Tails only grow going
  // down, so the first G > V whose tail reaches eps is the smallest G with
  // tail(G+1) < eps, and once the running tail reaches 1-eps so does the
  // total: the pass stops there.
  int g_v = V;
  bool found = false;
  double total = 0.0;
  eq.sweep([&](int G, double, double tail) {
    if (!found && G > V && tail >= eps) {
      g_v = G;
      found = true;
    }
    total = tail;
    return found && tail >= 1.0 - eps;
  });
  return total < 1.0 - eps ? N : g_v;
}

int g_v_for(NodeId N, NodeId n_active, Step T, const LogP& logp, double eps,
            int f) {
  const double cbar = colored_at_corr_start(N, n_active, T, logp);
  return chain_g_v(N, cbar, 2 * f + 3, eps);
}

Step fcg_predicted_upper(NodeId N, NodeId n_active, Step T, const LogP& logp,
                         double eps, int f) {
  return fcg_bound(T, g_v_for(N, n_active, T, logp, eps, f), logp, f);
}

FcgTuning tune_fcg(NodeId N, NodeId n_active, const LogP& logp, double eps,
                   int f, Step t_lo, Step t_hi) {
  // G_V is at least min(N, V): the bound at that span floors the scan.
  const int min_gv = std::min(N, 2 * f + 3);
  const ScanPoint best = scan_gossip_time(
      N, t_lo, t_hi, /*pad=*/48, fcg_bound(0, min_gv, logp, f), [&](Step T) {
        const int gv = g_v_for(N, n_active, T, logp, eps, f);
        return ScanPoint{T, gv, fcg_bound(T, gv, logp, f)};
      });
  return FcgTuning{best.T, best.chain, best.latency};
}

}  // namespace cg
