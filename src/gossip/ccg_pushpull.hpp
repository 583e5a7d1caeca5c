// Corrected push-pull: CCG whose gossip phase lets uncolored nodes PULL
// (the completion of the push_pull.hpp extension).  The faster coverage
// tail means the same chain budget K_bar is met at a smaller T, so the
// tuned end-to-end latency drops below plain CCG's (bench/ext_push_pull
// --corrected): pulls trade extra gossip-phase messages for steps of T.
//
// Mechanics: the node is a PushPullNode for steps before T and the stock
// CcgNode (Algorithm 2) after it.  During [0, T) colored nodes push
// (answering pending pull requests first), uncolored nodes pull; whoever
// holds the payload when the correction window opens is a g-node and runs
// ccg.hpp's checked ring sweep.  Both halves see on_start and every
// payload or correction receive, so they agree on the coloring (the
// engine's marks are idempotent); a pull request arriving at or after T
// is dropped unanswered.  Tuning goes through the push-pull coloring
// forecast: tune_ccg_pushpull() below.
#pragma once

#include "analysis/chain.hpp"
#include "common/types.hpp"
#include "gossip/ccg.hpp"
#include "gossip/push_pull.hpp"
#include "proto/message.hpp"

namespace cg {

class CcgPushPullNode {
 public:
  struct Params {
    Step T = 0;
    /// Max queued pull answers (see PushPullNode::Params::pending_cap);
    /// overflow is shed and counted in RunMetrics::msgs_dropped.
    int pending_cap = 8;
  };

  CcgPushPullNode(const Params& p, NodeId self, NodeId n)
      : T_(p.T),
        push_pull_({.T = p.T, .pull = true, .pending_cap = p.pending_cap},
                   self, n),
        ccg_(ccg_params(p.T), self, n) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    push_pull_.on_start(ctx);  // uncolored nodes pull from step 1
    ccg_.on_start(ctx);
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    if (m.tag == Tag::kPullReq) {
      if (ctx.now() < T_) push_pull_.on_receive(ctx, m);
      return;
    }
    push_pull_.on_receive(ctx, m);
    ccg_.on_receive(ctx, m);
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if (ctx.now() < T_) {
      push_pull_.on_tick(ctx);
    } else if (ccg_.colored()) {  // uncolored: wait for the sweep
      ccg_.on_tick(ctx);
    }
  }

  bool colored() const { return ccg_.colored(); }
  bool is_g_node() const { return ccg_.is_g_node(); }

 private:
  static CcgNode::Params ccg_params(Step T) {
    CcgNode::Params p;
    p.T = T;
    return p;
  }

  Step T_;
  PushPullNode push_pull_;
  CcgNode ccg_;
};

/// K_bar and T_opt for the push-pull phase (Eq. 2-4 machinery over the
/// push-pull coloring forecast instead of Eq. 1).
int k_bar_pushpull(NodeId N, NodeId n_active, Step T, const LogP& logp,
                   double eps);
struct PpTuning {
  Step T_opt = 0;
  int k_bar = 0;
  Step predicted_latency = 0;
};
PpTuning tune_ccg_pushpull(NodeId N, NodeId n_active, const LogP& logp,
                           double eps, Step t_lo = 1, Step t_hi = 0);

}  // namespace cg
