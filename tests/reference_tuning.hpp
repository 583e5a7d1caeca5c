// Test-only oracle for the analysis layer's tuners: the textbook O(N)
// evaluation of Eq. 2 and Appendix B (every term, in three passes: the
// pattern probabilities, the suffix products, the tails) and the
// brute-force T scan over the whole range.  The production code
// (analysis/chain.*, analysis/fcg_bound.*, analysis/tuning.*) evaluates
// only each distribution's support, stops at K_bar and ends its T scan
// early; tests/test_tuning_reference.cpp holds it to this oracle bit for
// bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "analysis/logmath.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace cg::ref {

/// Eq. 2 over all K = 0..N-1.
class ChainDist {
 public:
  ChainDist(NodeId N, double cbar) : N_(N) {
    CG_CHECK(N >= 1);
    cbar = std::clamp(cbar, 1.0, static_cast<double>(N));
    const auto n = static_cast<std::size_t>(N);
    pmf_.assign(n, 0.0);
    tail_.assign(n + 1, 0.0);

    const double logN = std::log(static_cast<double>(N));
    const double logc = std::log(cbar);
    const double gap = static_cast<double>(N) - cbar;
    const double loggap = gap > 0.0 ? std::log(gap) : -INFINITY;

    std::vector<double> pi(n, 0.0);
    for (std::size_t K = 0; K < n; ++K) {
      const double k = static_cast<double>(K);
      const double gap_term = K > 0 ? k * loggap : 0.0;  // 0^0 = 1
      const double logp = 2.0 * logc + gap_term - (k + 2.0) * logN;
      const double p = std::exp(std::min(logp, 0.0));
      pi[K] = one_minus_pow(p, static_cast<double>(N));
    }

    double log_suffix = 0.0;  // log prod over j > K, built from the top down
    for (std::size_t K = n; K-- > 0;) {
      pmf_[K] = pi[K] * std::exp(log_suffix);
      if (pi[K] >= 1.0)
        log_suffix = -INFINITY;
      else
        log_suffix += std::log1p(-pi[K]);
    }

    double acc = 0.0;
    for (std::size_t K = n; K-- > 0;) {
      acc += pmf_[K];
      tail_[K] = acc;
    }
  }

  double pmf(int K) const { return pmf_[static_cast<std::size_t>(K)]; }

  double tail(int K) const {
    if (K <= 0) return tail_[0];
    if (K >= N_) return 0.0;
    return tail_[static_cast<std::size_t>(K)];
  }

  int k_bar(double eps) const {
    CG_CHECK(eps > 0.0);
    for (int K = 0; K < N_; ++K)
      if (tail(K + 1) < eps) return K;
    return N_ - 1;
  }

 private:
  NodeId N_;
  std::vector<double> pmf_;
  std::vector<double> tail_;
};

/// Appendix B's span distribution over all G = V..N.
class GChainDist {
 public:
  GChainDist(NodeId N, double cbar, int V) : N_(N), V_(V) {
    CG_CHECK(N >= 1 && V >= 2);
    cbar = std::clamp(cbar, 1.0, static_cast<double>(N));
    const int count = std::max(0, N - V + 1);
    pmf_.assign(static_cast<std::size_t>(count), 0.0);
    tail_.assign(static_cast<std::size_t>(count) + 1, 0.0);
    if (count == 0) return;

    const double logN = std::log(static_cast<double>(N));
    const double logc = std::log(cbar);
    const double gap = static_cast<double>(N) - cbar;
    const double loggap = gap > 0.0 ? std::log(gap) : -INFINITY;
    const double v = static_cast<double>(V);

    std::vector<double> pi(static_cast<std::size_t>(count), 0.0);
    for (int G = V; G <= N; ++G) {
      const double g = static_cast<double>(G);
      double logq = v * logc - g * logN + std::lgamma(g - 1.0) -
                    std::lgamma(v - 1.0) - std::lgamma(g - v + 1.0);
      if (G > V) logq += (g - v) * loggap;
      const double q = std::exp(std::min(logq, 0.0));
      pi[static_cast<std::size_t>(G - V)] =
          one_minus_pow(q, static_cast<double>(N));
    }

    double log_suffix = 0.0;
    for (std::size_t i = pi.size(); i-- > 0;) {
      pmf_[i] = pi[i] * std::exp(log_suffix);
      log_suffix =
          pi[i] >= 1.0 ? -INFINITY : log_suffix + std::log1p(-pi[i]);
    }
    double acc = 0.0;
    for (std::size_t i = pmf_.size(); i-- > 0;) {
      acc += pmf_[i];
      tail_[i] = acc;
    }
  }

  double pmf(int G) const {
    if (G < V_ || G > N_) return 0.0;
    return pmf_[static_cast<std::size_t>(G - V_)];
  }

  double tail(int G) const {
    if (G <= V_) return tail_.empty() ? 0.0 : tail_[0];
    if (G > N_) return 0.0;
    return tail_[static_cast<std::size_t>(G - V_)];
  }

  int g_v(double eps) const {
    CG_CHECK(eps > 0.0);
    if (tail(V_) < 1.0 - eps) return N_;
    for (int G = V_; G <= N_; ++G)
      if (tail(G + 1) < eps) return G;
    return N_;
  }

 private:
  NodeId N_;
  int V_;
  std::vector<double> pmf_;
  std::vector<double> tail_;
};

/// Upper end of the scan when the caller passes t_hi <= 0 (pad 32 for
/// OCG/CCG/push-pull, 48 for FCG).
inline Step default_t_hi(NodeId N, double pad) {
  return static_cast<Step>(
      4.0 * std::ceil(std::log2(static_cast<double>(std::max<NodeId>(N, 2)))) +
      pad);
}

/// Eq. 3 (w = 1), Eq. 4 and corrected push-pull (w = 2): latency in steps.
inline Step latency(Step T, int k_bar, Step l_over_o, int w) {
  return T + 2 * l_over_o + 2 + static_cast<Step>(w) * static_cast<Step>(k_bar);
}

/// Eq. 5 for f = 1, the 2(f+1) G_V + L generalization otherwise.
inline Step fcg_upper(Step T, int g_v, Step l_over_o, int f) {
  if (f == 1) return T + 4 * static_cast<Step>(g_v) + l_over_o - 13;
  return T + 2 * static_cast<Step>(f + 1) * static_cast<Step>(g_v) + l_over_o;
}

struct ScanResult {
  Step T = 0;
  int chain = 0;  ///< K_bar, or G_V for FCG
  Step latency = 0;
};

/// Brute-force scan: evaluates every T in [t_lo, t_hi]; a later T replaces
/// the best only on a strictly smaller latency.  chain_at(T) gives the
/// chain statistic, latency_of(T, chain) the predicted latency.
template <class ChainAt, class Latency>
ScanResult scan(Step t_lo, Step t_hi, ChainAt&& chain_at,
                Latency&& latency_of) {
  ScanResult best;
  Step best_lat = kNever;
  for (Step T = t_lo; T <= t_hi; ++T) {
    const int c = chain_at(T);
    const Step lat = latency_of(T, c);
    if (lat < best_lat) {
      best_lat = lat;
      best = ScanResult{T, c, lat};
    }
  }
  return best;
}

}  // namespace cg::ref
