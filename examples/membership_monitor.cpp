// Distributed-OS membership management (the paper's introduction names
// MOSIX-style systems and cluster schedulers as the motivating users).
//
// A manager node periodically broadcasts membership epochs while nodes
// keep crashing.  Each epoch announcement uses FCG (all-or-nothing
// delivery), messages carry Claim-1 broadcast stamps, and every surviving
// node's view is checked for consistency after each round: either a node
// has the current epoch, or it is itself dead - never a torn view.
//
//   ./membership_monitor [--n=256] [--rounds=6] [--seed=11]
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "harness/scenarios.hpp"
#include "proto/dedup.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 256);
  if (n < 2) {
    std::fprintf(stderr, "--n=%d: expected an integer >= 2 (the manager and "
                 "at least one member)\n", n);
    return 2;
  }
  const int rounds = flags.get_count("rounds", 6);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  const LogP logp = LogP::piz_daint();

  std::printf("membership monitor: %d nodes, manager = node 0, FCG epoch "
              "broadcasts, crashes every round\n\n", n);

  Xoshiro256 rng(seed);
  std::vector<bool> alive(static_cast<std::size_t>(n), true);
  std::vector<std::uint64_t> view(static_cast<std::size_t>(n), 0);  // epoch
  BroadcastCounter manager(0);
  std::vector<BroadcastFilter> filters(static_cast<std::size_t>(n),
                                       BroadcastFilter(n));

  for (int round = 1; round <= rounds; ++round) {
    // A couple of random nodes crash between epochs (never the manager).
    int crashed = 0;
    for (int k = 0; k < 2; ++k) {
      const auto victim =
          static_cast<NodeId>(1 + rng.bounded(static_cast<std::uint64_t>(n - 1)));
      if (alive[static_cast<std::size_t>(victim)]) {
        alive[static_cast<std::size_t>(victim)] = false;
        ++crashed;
      }
    }

    // Manager announces the new epoch over FCG.
    const BroadcastStamp stamp = manager.next();
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = logp;
    cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(round));
    cfg.record_node_detail = true;
    for (NodeId i = 1; i < n; ++i)
      if (!alive[static_cast<std::size_t>(i)])
        cfg.failures.pre_failed.push_back(i);

    const NodeId active =
        n - static_cast<NodeId>(cfg.failures.pre_failed.size());
    const TunedAlgo tuned = tune_for(Algo::kFcg, n, active, logp, 1e-5, 1);
    const RunMetrics m = run_once(Algo::kFcg, tuned.acfg, cfg);

    // Apply deliveries through the Claim-1 duplicate filter.
    int updated = 0;
    for (NodeId i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!alive[idx]) continue;
      if (m.delivered_at[idx] != kNever && filters[idx].accept(stamp)) {
        view[idx] = stamp.sequence;
        ++updated;
      }
    }

    // Consistency audit: every alive node is on the current epoch.
    int stale = 0;
    for (NodeId i = 0; i < n; ++i)
      if (alive[static_cast<std::size_t>(i)] &&
          view[static_cast<std::size_t>(i)] != stamp.sequence)
        ++stale;

    std::printf("round %d: epoch %llu, %d crashed (now %d alive) - "
                "delivered to %d nodes in %.0f us, %d stale view(s)%s\n",
                round, static_cast<unsigned long long>(stamp.sequence),
                crashed, active, updated,
                logp.us(m.t_complete == kNever ? m.t_end : m.t_complete),
                stale, stale == 0 ? " [consistent]" : " [INCONSISTENT!]");
  }

  // Replay the last epoch to the first surviving member (a crashed node
  // never saw it, so accepting it there would prove nothing).
  NodeId member = 1;
  while (member < n && !alive[static_cast<std::size_t>(member)]) ++member;
  if (member == n) {
    std::printf("\nno member survived to re-offer an epoch to\n");
    return 0;
  }
  std::printf("\nreplayed announcement is filtered: node %d re-offered epoch "
              "%llu -> accepted=%s\n",
              member, static_cast<unsigned long long>(manager.issued()),
              filters[static_cast<std::size_t>(member)].accept(
                  {0, manager.issued()})
                  ? "yes (BUG)"
                  : "no");
  return 0;
}
