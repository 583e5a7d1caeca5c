#include "analysis/coloring.hpp"

#include <cmath>

#include "common/check.hpp"

namespace cg {

std::vector<double> expected_colored(NodeId N, NodeId n_active, Step T,
                                     const LogP& logp, Step t_max) {
  CG_CHECK(N >= 1 && n_active >= 1 && n_active <= N);
  CG_CHECK(T >= 0 && t_max >= 0);
  // The root is colored at step 0 and stays colored; at N = 1 it is the
  // whole system, so c(t) = 1 for every t.
  std::vector<double> c(static_cast<std::size_t>(t_max) + 1,
                        N == 1 ? 1.0 : 0.0);
  c[0] = 1.0;
  if (N == 1) return c;
  const double n = static_cast<double>(n_active);
  const double miss = std::log1p(-1.0 / (static_cast<double>(N) - 1.0));
  const Step lag = logp.delivery_delay();  // emission -> arrival steps
  for (Step s = 1; s <= t_max; ++s) {
    const Step emit = s - lag;           // emission step feeding arrivals at s
    const Step colored_by = emit - 1;    // senders were colored by then
    double senders = 0.0;
    if (emit >= 1 && emit < T && colored_by >= 0)
      senders = c[static_cast<std::size_t>(colored_by)];
    const double prev = c[static_cast<std::size_t>(s - 1)];
    const double newly =
        (n - prev) * (-std::expm1(senders * miss));  // 1-(1-1/(N-1))^senders
    c[static_cast<std::size_t>(s)] = std::min(n, prev + newly);
  }
  return c;
}

double colored_at_corr_start(NodeId N, NodeId n_active, Step T,
                             const LogP& logp) {
  const Step t = T + logp.delivery_delay();  // last arrival step + done
  return expected_colored(N, n_active, T, logp, t).back();
}

Step gossip_time_for_target(NodeId N, NodeId n_active, double delta,
                            const LogP& logp) {
  CG_CHECK(delta > 0.0);
  // c(T+L+O) grows monotonically in T; scan until the target is met.
  const double target = static_cast<double>(n_active) - delta;
  for (Step T = 1;; ++T) {
    if (colored_at_corr_start(N, n_active, T, logp) >= target) return T;
    CG_CHECK_MSG(T < 100000, "gossip target unreachable");
  }
}

}  // namespace cg
