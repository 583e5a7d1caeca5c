#include "runtime/broadcast.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "gossip/ccg.hpp"
#include "gossip/fcg.hpp"
#include "gossip/ocg.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/sharded_engine.hpp"

namespace cg {

std::string BroadcastReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s(T=%lld): reached %d/%d active nodes in %.1f us with %lld "
                "messages%s%s",
                algo_name(algo), static_cast<long long>(gossip_T), reached,
                active, latency_us, static_cast<long long>(messages),
                reached_all_active ? "" : " [NOT ALL REACHED]",
                sos_triggered ? " [SOS]" : "");
  return buf;
}

BroadcastReport reliable_broadcast(const BroadcastOptions& opts,
                                   std::uint64_t seed) {
  CG_CHECK(opts.n >= 1);
  const int threads = resolve_threads(opts.threads);
  const Algo algo = opts.consistency == Consistency::kWeak      ? Algo::kOcg
                    : opts.consistency == Consistency::kChecked ? Algo::kCcg
                                                                : Algo::kFcg;
  const NodeId active_estimate =
      opts.n - static_cast<NodeId>(opts.failures.pre_failed.size());
  const TunedAlgo tuned =
      tune_for(algo, opts.n, active_estimate, opts.logp, opts.eps, opts.f);

  RunConfig rcfg;
  rcfg.n = opts.n;
  rcfg.root = opts.root;
  rcfg.logp = opts.logp;
  rcfg.seed = seed;
  rcfg.failures = opts.failures;

  RunMetrics m;
  switch (algo) {
    case Algo::kOcg: {
      OcgNode::Params p;
      p.T = tuned.acfg.T;
      p.corr_sends = tuned.acfg.ocg_corr_sends;
      ShardedEngine<OcgNode> eng(rcfg, p, threads);
      m = eng.run();
      break;
    }
    case Algo::kCcg: {
      CcgNode::Params p;
      p.T = tuned.acfg.T;
      ShardedEngine<CcgNode> eng(rcfg, p, threads);
      m = eng.run();
      break;
    }
    default: {
      FcgNode::Params p;
      p.T = tuned.acfg.T;
      p.f = opts.f;
      ShardedEngine<FcgNode> eng(rcfg, p, threads);
      m = eng.run();
      break;
    }
  }

  BroadcastReport rep;
  rep.algo = algo;
  rep.gossip_T = tuned.acfg.T;
  rep.reached_all_active = m.all_active_colored;
  rep.delivered_all_or_nothing = m.all_or_nothing_delivery();
  rep.latency_us =
      m.t_complete != kNever ? opts.logp.us(m.t_complete) : opts.logp.us(m.t_end);
  rep.messages = m.msgs_total;
  rep.active = m.n_active;
  rep.reached = m.n_colored;
  rep.sos_triggered = m.sos_triggered;
  return rep;
}

}  // namespace cg
