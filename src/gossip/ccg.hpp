// CCG: Checked Corrected-Gossip (paper Section III-C, Algorithm 2).
//
// After the gossip phase each g-node sweeps the ring alternately forward /
// backward.  From the first backward message it receives it learns the
// distance m_fwd of its nearest g-node ahead (and symmetrically m_bwd from
// forward messages); it stops sweeping in a direction once it has sent up
// to that nearest g-node, and exits when both directions are done.
// Strongly consistent provided no node fails during the correction phase
// (Claim 3).  c-nodes (colored by a correction message) exit immediately
// and never send.
//
// With Params::reliable.enabled the correction sweep runs over the
// ack/retransmit sublayer (gossip/reliable.hpp): kFwd/kBwd sends are
// tracked and retransmitted under loss, received correction traffic is
// acked and deduplicated, and a node defers its exit until the sublayer
// has drained (acks flushed, transactions acked or abandoned).  With it
// disabled the behavior is bit-identical to the paper's Algorithm 2.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ring.hpp"
#include "common/types.hpp"
#include "gossip/reliable.hpp"
#include "gossip/timing.hpp"
#include "proto/message.hpp"

namespace cg {

class CcgNode {
 public:
  struct Params {
    Step T = 0;  ///< gossip stop time
    /// Extra drain steps before the correction starts (see OcgNode).
    Step drain_extra = 0;
    /// Ack/retransmit hardening of the correction sweep (off by default).
    ReliableParams reliable;
    /// Testing hook: bitmap of nodes pre-colored as g-nodes at step 0.
    std::shared_ptr<const std::vector<std::uint8_t>> seed_colored;
  };

  CcgNode(const Params& p, NodeId self, NodeId n) { reset_for_run(p, self, n); }

  /// Return to the freshly constructed state, keeping the sublayer's
  /// allocations: trial reruns and restarts reuse the node in place
  /// (SoaNodeStore), so replayed CCG+rel trials allocate nothing.
  void reset_for_run(const Params& p, NodeId self, NodeId n) {
    p_ = p;
    self_ = self;
    ring_ = Ring(n);
    colored_ = false;
    g_node_ = false;
    s_fwd_ = true;
    s_bwd_ = true;
    m_fwd_ = kNever;
    m_bwd_ = kNever;
    off_ = 1;
    slot_ = 0;
    rel_.reset_for_run(p.reliable, self);
    want_complete_ = false;
  }

  template <class Ctx>
  void on_start(Ctx& ctx) {
    const bool seeded =
        p_.seed_colored &&
        (*p_.seed_colored)[static_cast<std::size_t>(self_)] != 0;
    if (ctx.is_root() || seeded) {
      colored_ = true;
      g_node_ = true;
      ctx.activate();
      ctx.mark_colored();
      ctx.deliver();
      if (ring_.size() == 1) ctx.complete();
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    switch (rel_.on_receive(ctx, m)) {
      case ReliableLink::Rx::kAck:
      case ReliableLink::Rx::kDuplicate:
        return;  // sublayer traffic; completion happens in on_tick only
      case ReliableLink::Rx::kProcess: break;
    }
    if (want_complete_) return;  // sweep done; sublayer drain only
    if (!colored_) {
      colored_ = true;
      ctx.mark_colored();
      ctx.deliver();
      if (m.tag == Tag::kGossip) {
        g_node_ = true;
      } else {
        // c-node: exits right away (Algorithm 2 line 4); with the reliable
        // sublayer on it first flushes the ack it now owes.
        finish(ctx);
        return;
      }
    }
    if (!g_node_) return;
    // Record the distance of the nearest g-node in each direction.  A
    // backward message comes from a g-node AHEAD of us; a forward message
    // from one BEHIND us (Algorithm 2 line 13).
    if (m.tag == Tag::kBwd) {
      m_fwd_ = std::min<Step>(m_fwd_, ring_.dist_fwd(self_, m.src));
    } else if (m.tag == Tag::kFwd) {
      m_bwd_ = std::min<Step>(m_bwd_, ring_.dist_bwd(self_, m.src));
    }
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if (rel_.on_tick(ctx)) {  // acks / retransmits own this step's slot
      try_complete(ctx);
      return;
    }
    if (want_complete_) {
      try_complete(ctx);
      return;
    }
    const Step now = ctx.now();
    if (now < p_.T) {
      ctx.send(ctx.rng().other_node(self_, ring_.size()), plain_gossip_msg(now));
      return;
    }
    if (now < corr_start(p_.T, ctx.logp()) + p_.drain_extra)
      return;  // drain window

    // One direction slot per step; forward first, then backward, at the
    // same offset before advancing (Algorithm 2 lines 10-17, one send
    // costs O and a skipped slot also waits O per the paper's analysis).
    const Dir dir = (slot_ % 2 == 0) ? Dir::kFwd : Dir::kBwd;
    ++slot_;

    bool& sending = dir == Dir::kFwd ? s_fwd_ : s_bwd_;
    const Step nearest = dir == Dir::kFwd ? m_fwd_ : m_bwd_;
    if (sending && off_ > nearest) sending = false;  // covered the gap (line 14)
    if (sending) {
      const NodeId target = ring_.step(self_, dir, off_);
      if (target != self_) {
        Message m;
        m.tag = dir_tag(dir);
        rel_.send(ctx, target, m);
      }
    }
    if (dir == Dir::kBwd) ++off_;  // both directions tried at this offset

    // Full circle (line 16) or both directions satisfied: exit.
    if (off_ >= ring_.size() || (!s_fwd_ && !s_bwd_)) finish(ctx);
  }

  /// Batched gossip-sweep contract (see GosNode::in_plain_gossip).  With
  /// the reliable sublayer on, rel_.on_tick may own the step's slot, so
  /// only the disabled configuration takes the fast path.
  bool in_plain_gossip(Step now) const {
    return !rel_.enabled() && !want_complete_ && now < p_.T;
  }

  bool colored() const { return colored_; }
  bool is_g_node() const { return g_node_; }
  Step nearest_fwd() const { return m_fwd_; }
  Step nearest_bwd() const { return m_bwd_; }
  const ReliableLink& reliable() const { return rel_; }
  /// Heap this node owns (EngineProfile::bytes_per_node).
  std::size_t heap_bytes() const { return rel_.heap_bytes(); }

 private:
  /// Protocol wants to exit; with the sublayer on, hold the node until it
  /// drained (acks owed, transactions unacked).  Completion then happens
  /// exclusively from on_tick: completing inside on_receive would drop the
  /// rest of a same-step delivery batch un-acked, and under kDrainAll the
  /// engines drain a batch in engine-specific order - the set of acked
  /// messages (hence every retransmit decision) must not depend on it.
  template <class Ctx>
  void finish(Ctx& ctx) {
    if (!rel_.enabled()) {
      ctx.complete();
      return;
    }
    want_complete_ = true;
  }

  template <class Ctx>
  void try_complete(Ctx& ctx) {
    if (want_complete_ && rel_.idle()) ctx.complete();
  }
  Params p_;
  NodeId self_ = 0;
  Ring ring_{1};
  bool colored_ = false;
  bool g_node_ = false;
  bool s_fwd_ = true;
  bool s_bwd_ = true;
  Step m_fwd_ = kNever;  ///< distance to nearest g-node ahead (from kBwd msgs)
  Step m_bwd_ = kNever;  ///< distance to nearest g-node behind (from kFwd msgs)
  Step off_ = 1;
  Step slot_ = 0;
  ReliableLink rel_;
  bool want_complete_ = false;
};

}  // namespace cg
