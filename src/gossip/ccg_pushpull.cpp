#include "gossip/ccg_pushpull.hpp"

#include "analysis/tuning.hpp"
#include "common/check.hpp"

namespace cg {

int k_bar_pushpull(NodeId N, NodeId n_active, Step T, const LogP& logp,
                   double eps) {
  const auto c = pushpull_expected_colored(N, n_active, T, logp,
                                           T + logp.delivery_delay());
  return chain_k_bar(N, c.back(), eps);
}

PpTuning tune_ccg_pushpull(NodeId N, NodeId n_active, const LogP& logp,
                           double eps, Step t_lo, Step t_hi) {
  CG_CHECK(eps > 0.0 && eps < 1.0);
  const ScanPoint best = scan_gossip_time(
      N, t_lo, t_hi, /*pad=*/32, latency_steps(0, 0, logp, 2), [&](Step T) {
        const int k = k_bar_pushpull(N, n_active, T, logp, eps);
        return ScanPoint{T, k, latency_steps(T, k, logp, 2)};
      });
  return PpTuning{best.T, best.chain, best.latency};
}

}  // namespace cg
