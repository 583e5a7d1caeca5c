#include "analysis/chain.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/logmath.hpp"
#include "common/check.hpp"

namespace cg {

namespace {

/// Eq. 2 for one (N, cbar), walked from the top of its support down.
/// ChainDist and chain_k_bar both run this pass, so the term exists once.
class Eq2 {
 public:
  Eq2(NodeId N, double cbar) : N_(N) {
    CG_CHECK(N >= 1);
    cbar = std::clamp(cbar, 1.0, static_cast<double>(N));
    logN_ = std::log(static_cast<double>(N));
    logc_ = std::log(cbar);
    const double gap = static_cast<double>(N) - cbar;
    loggap_ = gap > 0.0 ? std::log(gap) : -INFINITY;
    // log p(K) = 2 (log cbar - log N) - K (log N - log(N - cbar)).
    support_ = log_support(2.0 * (logc_ - logN_), logN_ - loggap_, N);
  }

  /// pi_K == p_K == 0 exactly for every K >= support(), so a top-down
  /// pass starting there builds the same suffix products and tails, bit
  /// for bit, as one starting at N-1.
  int support() const { return support_; }

  /// Calls visit(K, p_K, tail(K)) for K = support()-1 down to 0 until it
  /// returns true (see sweep_largest).
  template <class Visit>
  void sweep(Visit&& visit) const {
    sweep_largest(support_, [this](int K) { return pi_at(K); }, visit);
  }

 private:
  double pi_at(int K) const {
    const double k = static_cast<double>(K);
    // 0^0 = 1: the K = 0 pattern has no gap factor, so a fully colored
    // ring (gap == 0) must not evaluate 0 * log 0.
    const double gap_term = K > 0 ? k * loggap_ : 0.0;
    const double logp = 2.0 * logc_ + gap_term - (k + 2.0) * logN_;
    const double p = std::exp(std::min(logp, 0.0));
    return one_minus_pow(p, static_cast<double>(N_));
  }

  NodeId N_;
  double logN_ = 0.0;
  double logc_ = 0.0;
  double loggap_ = 0.0;
  int support_ = 0;
};

}  // namespace

ChainDist::ChainDist(NodeId N, double cbar) : N_(N) {
  const Eq2 eq(N, cbar);
  pmf_.assign(static_cast<std::size_t>(eq.support()), 0.0);
  tail_.assign(pmf_.size(), 0.0);
  eq.sweep([&](int K, double pmf, double tail) {
    pmf_[static_cast<std::size_t>(K)] = pmf;
    tail_[static_cast<std::size_t>(K)] = tail;
    return false;
  });
}

double ChainDist::pmf(int K) const {
  if (K < 0 || K >= support()) return 0.0;
  return pmf_[static_cast<std::size_t>(K)];
}

double ChainDist::tail(int K) const {
  if (K <= 0) return tail_[0];
  if (K >= support()) return 0.0;
  return tail_[static_cast<std::size_t>(K)];
}

int chain_k_bar(NodeId N, double cbar, double eps) {
  CG_CHECK(eps > 0.0);
  // Going down, the accumulated tail never decreases, so the first K >= 1
  // whose tail(K) reaches eps is the smallest K with tail(K+1) < eps; if
  // there is none, K_bar = 0.
  int k_bar = 0;
  Eq2(N, cbar).sweep([&](int K, double, double tail) {
    if (K == 0 || tail < eps) return false;
    k_bar = K;
    return true;
  });
  return k_bar;
}

}  // namespace cg
