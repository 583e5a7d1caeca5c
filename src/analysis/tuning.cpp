#include "analysis/tuning.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/coloring.hpp"
#include "common/check.hpp"

namespace cg {

double eps_for_runs(double psi, double m) {
  CG_CHECK(psi > 0.0 && psi < 1.0 && m >= 1.0);
  return -std::expm1(std::log1p(-psi) / m);  // 1 - (1-psi)^(1/m)
}

int k_bar_for(NodeId N, NodeId n_active, Step T, const LogP& logp,
              double eps) {
  const double cbar = colored_at_corr_start(N, n_active, T, logp);
  return chain_k_bar(N, cbar, eps);
}

Step default_t_hi(NodeId N, Step pad) {
  return static_cast<Step>(
      4.0 * std::ceil(std::log2(static_cast<double>(std::max<NodeId>(N, 2)))) +
      static_cast<double>(pad));
}

Step latency_steps(Step T, int k, const LogP& logp, int w) {
  return T + 2 * logp.l_over_o + 2 +
         static_cast<Step>(w) * static_cast<Step>(k);
}

namespace {

Tuning tune(NodeId N, NodeId n_active, const LogP& logp, double eps, int w,
            Step t_lo, Step t_hi) {
  CG_CHECK(eps > 0.0 && eps < 1.0);
  const ScanPoint best = scan_gossip_time(
      N, t_lo, t_hi, /*pad=*/32, latency_steps(0, 0, logp, w), [&](Step T) {
        const int k = k_bar_for(N, n_active, T, logp, eps);
        return ScanPoint{T, k, latency_steps(T, k, logp, w)};
      });
  return Tuning{best.T, best.chain, best.latency};
}

}  // namespace

Tuning tune_ocg(NodeId N, NodeId n_active, const LogP& logp, double eps,
                Step t_lo, Step t_hi) {
  return tune(N, n_active, logp, eps, 1, t_lo, t_hi);
}

Tuning tune_ccg(NodeId N, NodeId n_active, const LogP& logp, double eps,
                Step t_lo, Step t_hi) {
  return tune(N, n_active, logp, eps, 2, t_lo, t_hi);
}

Step ocg_predicted_latency(NodeId N, NodeId n_active, Step T,
                           const LogP& logp, double eps) {
  return latency_steps(T, k_bar_for(N, n_active, T, logp, eps), logp, 1);
}

Step ccg_predicted_latency(NodeId N, NodeId n_active, Step T,
                           const LogP& logp, double eps) {
  return latency_steps(T, k_bar_for(N, n_active, T, logp, eps), logp, 2);
}

}  // namespace cg
