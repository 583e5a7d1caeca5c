// Longest uncolored-chain distribution - Eq. (2) of the paper.
//
// Given cbar = c(T+L+O) expected g-nodes among N ring positions:
//   p(K)  = cbar^2 (N-cbar)^K / N^(K+2)      (a specific colored-gap-colored
//                                             pattern of gap length K)
//   pi_K  = 1 - (1 - p(K))^N                 (such a gap exists anywhere)
//   p_K   = pi_K * prod_{j>K} (1 - pi_j)     (K is the MAXIMAL gap)
// K_bar(eps) is the smallest K whose upper tail sum_{i>K} p_i < eps: with
// probability >= 1-eps no uncolored chain longer than K_bar exists, which
// sizes the OCG/CCG correction sweeps (Claim 2).  chain_k_bar() decides it;
// ChainDist exposes the distribution itself.
//
// Cost is proportional to the distribution's support, not to N: log p(K)
// falls by log N - log(N-cbar) per step in K, and once it is below the
// point where exp() underflows every further pi_K, p_K and tail term is
// exactly zero (docs/PERF.md, "Tuning cost").  Only the K below that
// support bound are evaluated or stored.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace cg {

class ChainDist {
 public:
  /// Build the distribution for N ring positions and expected colored
  /// count cbar (clamped to [1, N]).
  ChainDist(NodeId N, double cbar);

  /// P[maximal uncolored chain == K]; 0 outside [0, support()).
  double pmf(int K) const;

  /// P[maximal uncolored chain >= K] (upper tail including K); the total
  /// mass for K <= 0, 0 for K >= support().
  double tail(int K) const;

  NodeId n() const { return N_; }

  /// Every K >= support() has pmf(K) == tail(K) == 0 exactly.
  int support() const { return static_cast<int>(pmf_.size()); }

 private:
  NodeId N_;
  std::vector<double> pmf_;   // index K = 0..support-1
  std::vector<double> tail_;  // tail_[K] = sum_{i>=K} pmf_[i]
};

/// K_bar(eps): the smallest K with ChainDist(N, cbar).tail(K+1) < eps,
/// found without building the distribution by one top-down pass that
/// stops at K_bar.
int chain_k_bar(NodeId N, double cbar, double eps);

}  // namespace cg
