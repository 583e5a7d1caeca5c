// FCG gossip-time selection - Appendix B of the paper.
//
// A chain of V = 2f+3 consecutive g-nodes (the A..E window of Figure 8 for
// f=1) spans at most G_V ring positions with probability >= 1-eps, where
// G_V comes from the pattern probability
//   q(G,V) = cbar^V (N-cbar)^(G-V) (G-2)! / (N^G (V-2)! (G-V)!).
// The worst-case FCG completion for f=1 is bounded by
//   T + 4 G_V O + L - 13 O                                  (Eq. 5)
// and T_opt minimizes that bound.
//
// As for Eq. 2 (analysis/chain.hpp), only the support is evaluated:
// (G-2)!/((V-2)!(G-V)!) <= N^(V-2), so log q(G) <= V log cbar - 2 log N -
// (G-V)(log N - log(N-cbar)), and past the G where that bound underflows
// exp() every term is exactly zero.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sim/logp.hpp"

namespace cg {

/// Distribution of the maximal span G of a window of V consecutive g-nodes.
class GChainDist {
 public:
  GChainDist(NodeId N, double cbar, int V);

  double pmf(int G) const;     ///< P[max span == G]; 0 outside the support
  double tail(int G) const;    ///< P[max span >= G]

 private:
  int V_;
  std::vector<double> pmf_;    // index G-V_, G = V..V+support-1
  std::vector<double> tail_;
};

/// G_V(eps): the smallest G with GChainDist(N, cbar, V).tail(G+1) < eps,
/// or N when the total mass tail(V) is below 1-eps (no window of V
/// g-nodes is likely to exist, so only the whole ring bounds the span).
/// Found without storing the distribution by one top-down pass.
int chain_g_v(NodeId N, double cbar, int V, double eps);

/// G_V(N, n, T, eps) with V = 2f+3 (uses Eq. 1 for cbar).
int g_v_for(NodeId N, NodeId n_active, Step T, const LogP& logp, double eps,
            int f);

/// Upper bound on FCG completion (steps) for a given T; exact Appendix-B
/// constant for f=1, a conservative generalization 2(f+1) G_V O + L for
/// other f (the paper derives the constant only for f=1).
Step fcg_predicted_upper(NodeId N, NodeId n_active, Step T, const LogP& logp,
                         double eps, int f);

struct FcgTuning {
  Step T_opt = 0;
  int g_v = 0;
  Step predicted_upper = 0;
};

/// T minimizing the Appendix-B bound (Eq. 5).
FcgTuning tune_fcg(NodeId N, NodeId n_active, const LogP& logp, double eps,
                   int f, Step t_lo = 1, Step t_hi = 0);

}  // namespace cg
