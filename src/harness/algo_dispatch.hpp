// The algorithm -> protocol-node mapping, shared by the harness's two
// engine translation units: runner.cpp instantiates the stepped engine
// (run_once and EngineCache), sharded_runner.cpp the sharded engine.
// Keeping the engines in separate translation units keeps GCC's inlining
// choices for one engine from shifting with the other's code: with both
// in one file, growing the sharded engine's delivery path un-inlined
// parts of the stepped engine's dispatch, and campaign-faults-4k, a
// stepped-engine workload, ran at a median pair ratio of 0.94 of the
// parent's broadcasts_per_s over 8 pairs (docs/PERF.md section 8).
#pragma once

#include "baselines/bfb.hpp"
#include "baselines/big.hpp"
#include "baselines/opt_tree.hpp"
#include "common/check.hpp"
#include "gossip/ccg.hpp"
#include "gossip/fcg.hpp"
#include "gossip/gos.hpp"
#include "gossip/ocg.hpp"
#include "gossip/ocg_chain.hpp"
#include "gossip/sbrb.hpp"
#include "harness/runner.hpp"

namespace cg::detail {

// Build Node::Params for `algo` and hand <Node, params> to the runner
// functor (the one place the algo -> node-type mapping lives).
template <class Runner>
RunMetrics dispatch_algo(Runner&& r, Algo algo, const AlgoConfig& acfg,
                         const RunConfig& rcfg) {
  switch (algo) {
    case Algo::kGos:
      return r.template run<GosNode>(GosNode::Params{acfg.T});
    case Algo::kOcg: {
      CG_CHECK_MSG(acfg.ocg_corr_sends > 0, "OCG needs ocg_corr_sends");
      OcgNode::Params params;
      params.T = acfg.T;
      params.corr_sends = acfg.ocg_corr_sends;
      params.drain_extra = acfg.drain_extra;
      return r.template run<OcgNode>(params);
    }
    case Algo::kCcg: {
      CcgNode::Params params;
      params.T = acfg.T;
      params.drain_extra = acfg.drain_extra;
      params.reliable = acfg.reliable;
      return r.template run<CcgNode>(params);
    }
    case Algo::kFcg: {
      FcgNode::Params params;
      params.T = acfg.T;
      params.f = acfg.fcg_f;
      params.drain_extra = acfg.drain_extra;
      params.sos_timeout = acfg.fcg_sos_timeout;
      params.sos_enabled = acfg.fcg_sos_enabled;
      params.reliable = acfg.reliable;
      return r.template run<FcgNode>(params);
    }
    case Algo::kOcgChain: {
      CG_CHECK_MSG(acfg.ocg_corr_sends > 0, "OCG-CHAIN needs a K_bar");
      OcgChainNode::Params params;
      params.T = acfg.T;
      params.horizon = OcgChainNode::chain_horizon(
          acfg.T, static_cast<int>(acfg.ocg_corr_sends), rcfg.logp);
      return r.template run<OcgChainNode>(params);
    }
    case Algo::kBig:
      return r.template run<BigNode>(BigNode::Params{});
    case Algo::kBfb: {
      BfbNode::Params params;
      params.shared = BfbShared::make(rcfg.n, rcfg.root, rcfg.failures);
      params.quiet_period = 16 * rcfg.logp.delivery_delay() + 32;
      return r.template run<BfbNode>(params);
    }
    case Algo::kOpt: {
      OptNode::Params params;
      params.schedule = OptSchedule::build(rcfg.n, rcfg.logp);
      return r.template run<OptNode>(params);
    }
    case Algo::kSbrb: {
      SbrbNode::Params params;
      params.s = sbrb_samples(rcfg.n, acfg.sbrb_eps, acfg.sbrb_byz_frac);
      params.deadline = sbrb_deadline(params.s, rcfg.logp);
      return r.template run<SbrbNode>(params);
    }
  }
  CG_CHECK_MSG(false, "unknown algorithm");
  return {};
}

/// run_once on the sharded engine (sharded_runner.cpp).
RunMetrics run_once_sharded(Algo algo, const AlgoConfig& acfg,
                            const RunConfig& rcfg, int shards);

}  // namespace cg::detail
