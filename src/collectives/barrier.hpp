// Corrected-gossip barrier: the BSP-style synchronization primitive the
// paper's Section II motivates, built from two phases:
//
//   1. GATHER: arrival notifications aggregate up a binomial tree rooted
//      at the coordinator (ranks relative to it) - each node acks its
//      parent once it has arrived and every child subtree has acked.
//   2. RELEASE: the coordinator runs a full corrected-gossip broadcast:
//      one stock CcgNode per node (gossip/ccg.hpp), hosted through the
//      session layer's SessionCtx on the release clock (now - release
//      step), with the coordinator as root.  Release messages carry the
//      release step as their stamp, so a receiver's first one puts it on
//      that clock.
//
// The barrier property - NO node releases before EVERY node arrived - is
// structural: the release broadcast starts only after the gather completed.
// Release latency inherits corrected gossip's guarantees: all nodes
// released deterministically, ~T_rel + 2L + 2*K_bar*O after the last
// arrival plus one tree depth.
#pragma once

#include <memory>
#include <vector>

#include "baselines/bfb.hpp"  // binomial tree helpers
#include "common/check.hpp"
#include "common/types.hpp"
#include "gossip/ccg.hpp"
#include "session/multibcast.hpp"

namespace cg {

class BarrierNode {
 public:
  struct Params {
    NodeId coordinator = 0;
    Step T_release = 0;  ///< gossip length of the release broadcast
    /// Arrival step per node (models compute skew); nullptr = everyone at 0.
    std::shared_ptr<const std::vector<Step>> arrivals;
  };

  BarrierNode(const Params& p, NodeId self, NodeId n)
      : p_(p), self_(self), n_(n),
        rank_(static_cast<NodeId>(
            (static_cast<std::int64_t>(self) - p.coordinator + n) % n)),
        children_(bfb_children(rank_, n)),
        release_(session_ccg_params(p.T_release), self, n) {
    CG_CHECK(p.T_release >= 0);
  }

  template <class Ctx>
  void on_start(Ctx& ctx) {
    arrival_ = p_.arrivals
                   ? (*p_.arrivals)[static_cast<std::size_t>(self_)]
                   : 0;
    ctx.activate();  // every participant acts from the start
    if (n_ == 1) {
      released_at_ = 0;
      ctx.mark_colored();
      ctx.deliver();
      ctx.complete();
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    if (m.tag == Tag::kAck) {
      ++acks_;
      return;
    }
    // Release traffic: messages carry the release step so this node can
    // align its gossip/correction windows with the coordinator's clock.
    arm(ctx, m.time);
    release_ctx(ctx).receive(release_, m);
    maybe_release(ctx);
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    const Step now = ctx.now();

    // --- gather phase ---
    if (!acked_ && now >= arrival_ &&
        acks_ >= static_cast<int>(children_.size())) {
      acked_ = true;
      if (rank_ == 0) {
        // Coordinator: everyone arrived; start the release broadcast one
        // step from now.
        arm(ctx, now + 1);
      } else {
        Message m;
        m.tag = Tag::kAck;
        ctx.send(member(bfb_parent(rank_)), m);
        return;
      }
    }

    // --- release phase ---
    if (armed_) {
      release_ctx(ctx).offer_slot(release_);
      maybe_release(ctx);
    }
  }

  /// Step at which this node observed the release (kNever if not yet).
  Step released_at() const { return released_at_; }
  Step arrival() const { return arrival_; }

 private:
  NodeId member(NodeId rank) const {
    return static_cast<NodeId>(
        (static_cast<std::int64_t>(rank) + p_.coordinator) % n_);
  }

  template <class Ctx>
  SessionCtx<Ctx> release_ctx(Ctx& ctx) {
    return {ctx, p_.coordinator, release_start_, release_start_,
            release_done_};
  }

  /// Put this node on the release clock starting at `start`; the
  /// coordinator's on_start colors it as the release's root.
  template <class Ctx>
  void arm(Ctx& ctx, Step start) {
    if (armed_) return;
    armed_ = true;
    release_start_ = start;
    auto rctx = release_ctx(ctx);
    release_.on_start(rctx);
  }

  template <class Ctx>
  void maybe_release(Ctx& ctx) {
    if (released_at_ == kNever && release_.colored()) {
      released_at_ = ctx.now();
      ctx.mark_colored();
      ctx.deliver();
    }
    if (release_done_) ctx.complete();
  }

  Params p_;
  NodeId self_;
  NodeId n_;
  NodeId rank_;
  std::vector<NodeId> children_;
  Step arrival_ = 0;
  int acks_ = 0;
  bool acked_ = false;
  bool armed_ = false;
  Step release_start_ = 0;
  CcgNode release_;
  bool release_done_ = false;
  Step released_at_ = kNever;
};

}  // namespace cg
