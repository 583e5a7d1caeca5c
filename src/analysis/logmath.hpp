// Log-space numerics for the tail probabilities in Eq. 2 and Appendix B.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace cg {

/// log(1 - exp(x)) for x <= 0, numerically stable (Maechler's recipe).
inline double log1mexp(double x) {
  // x <= 0 required; exp(x) in (0,1].
  if (x >= 0.0) return -std::numeric_limits<double>::infinity();
  return x > -0.6931471805599453  // -ln 2
             ? std::log(-std::expm1(x))
             : std::log1p(-std::exp(x));
}

/// 1 - (1 - p)^n computed stably for tiny p (via logs).
inline double one_minus_pow(double p, double n) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  // (1-p)^n = exp(n*log1p(-p)); result = -expm1(n*log1p(-p)).
  return -std::expm1(n * std::log1p(-p));
}

/// log of the binomial coefficient C(n, k) for real-valued n,k >= 0.
inline double log_choose(double n, double k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
}

/// A log-probability below this is exactly 0 after exp(): exp underflows
/// to 0 below -745.13, and the rounding error of the Eq. 2 / Appendix-B
/// log terms stays under 1e-4 for any N a NodeId can hold, far inside the
/// margin.
inline constexpr double kLogUnderflow = -760.0;

/// Support of a pattern probability whose log is bounded by head - i*step
/// for i = 0, 1, ... (step >= 0, possibly +inf): the count of leading terms
/// whose bound is not yet below kLogUnderflow, capped at `cap`.  Every
/// later term's exp() is exactly 0.
inline int log_support(double head, double step, int cap) {
  // head - i*step < kLogUnderflow  <=>  i > (head - kLogUnderflow) / step.
  const double past = (head - kLogUnderflow) / step;
  if (!(past < static_cast<double>(cap))) return cap;  // also NaN / inf
  return std::min(cap, static_cast<int>(std::max(past, 0.0)) + 1);
}

/// Top-down pass over a "largest pattern" distribution (Eq. 2, Appendix B).
/// pi(i) is the probability that a pattern of size index i exists; then
/// p_i = pi_i prod_{j>i} (1 - pi_j) is the probability that i is the
/// LARGEST one.  Calls visit(i, p_i, sum_{j>=i} p_j) for i = count-1 down
/// to 0 until visit returns true.  Per index the operations and their
/// order are those of three separate passes (pi, suffix products, tails),
/// so every caller sees the same bits as that textbook evaluation.
template <class Pi, class Visit>
void sweep_largest(int count, Pi&& pi, Visit&& visit) {
  double log_suffix = 0.0;  // log prod_{j > i} (1 - pi_j)
  double acc = 0.0;         // sum_{j >= i} p_j
  for (int i = count; i-- > 0;) {
    const double pi_i = pi(i);
    const double p = pi_i * std::exp(log_suffix);
    log_suffix = pi_i >= 1.0 ? -INFINITY : log_suffix + std::log1p(-pi_i);
    acc += p;
    if (visit(i, p, acc)) return;
  }
}

}  // namespace cg
