#include "gossip/push_pull.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace cg {

std::vector<double> pushpull_expected_colored(NodeId N, NodeId n_active,
                                              Step T, const LogP& logp,
                                              Step t_max) {
  CG_CHECK(N >= 1 && n_active >= 1 && n_active <= N);
  // The root is colored at step 0 and stays colored; at N = 1 it is the
  // whole system, so c(t) = 1 for every t.
  std::vector<double> c(static_cast<std::size_t>(t_max) + 1,
                        N == 1 ? 1.0 : 0.0);
  c[0] = 1.0;
  if (N == 1) return c;
  const double n = static_cast<double>(n_active);
  const double denom = static_cast<double>(N) - 1.0;
  const double miss = std::log1p(-1.0 / denom);
  const Step lag = logp.delivery_delay();

  for (Step s = 1; s <= t_max; ++s) {
    const double prev = c[static_cast<std::size_t>(s - 1)];

    // Push arrivals at s: emissions at s-lag by nodes colored by s-lag-1.
    double push_senders = 0.0;
    const Step push_emit = s - lag;
    if (push_emit >= 1 && push_emit < T && push_emit - 1 >= 0)
      push_senders = c[static_cast<std::size_t>(push_emit - 1)];
    // No senders always miss (at N = 2, miss = -inf and 0 * miss is NaN).
    const double p_push_miss =
        push_senders > 0.0 ? std::exp(push_senders * miss) : 1.0;

    // Pull responses at s: request emitted at s - 2*lag - 1 by an
    // uncolored node, landing on a colored peer (answered next slot).
    double p_pull_hit = 0.0;
    const Step req_emit = s - 2 * lag - 1;
    if (p_pull_hit == 0.0 && req_emit >= 1 && req_emit < T) {
      const Step resp_emit = req_emit + lag + 1;
      if (resp_emit < T) {
        const double colored_then =
            c[static_cast<std::size_t>(std::max<Step>(req_emit - 1, 0))];
        p_pull_hit = std::min(1.0, colored_then / denom);
      }
    }

    const double newly = (n - prev) * (1.0 - p_push_miss * (1.0 - p_pull_hit));
    c[static_cast<std::size_t>(s)] = std::min(n, prev + newly);
  }
  return c;
}

}  // namespace cg
