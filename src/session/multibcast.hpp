// Concurrent broadcast sessions: several roots broadcast at once over the
// same nodes, sharing each node's LogP injection capacity (one message per
// node per step in TOTAL, not per broadcast) - the situation an MPI-style
// runtime faces, which the paper handles through Claim 1's per-root
// counters.
//
// Each broadcast runs the stock CcgNode (gossip/ccg.hpp, Algorithm 2)
// behind a SessionCtx that gives it the broadcast's own clock, root and
// stamp (Message::time = the broadcast's index).  A node's send slot goes
// round-robin to its started, unfinished broadcasts; unknown stamps and
// finished broadcasts are ignored.  CCG's stop rules depend only on which
// offsets were covered and on the stop signals received, not on the slot
// schedule, so every broadcast still reaches every node; only latency
// stretches with the number of broadcasts (bench/ext_concurrent).  With
// one plan a session IS CCG: the same trace as Engine<CcgNode>.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/ccg.hpp"
#include "proto/message.hpp"
#include "sim/logp.hpp"

namespace cg {

/// The context a hosted CcgNode sees: the host's context on the
/// broadcast's own clock (now - start), with the broadcast's root, and its
/// stamp written into Message::time on every send.  mark_colored() and
/// deliver() are no-ops - the host reads colored() and marks the node
/// itself - and complete() only records, in `done`, that the broadcast
/// finished here.
template <class Ctx>
class SessionCtx {
 public:
  SessionCtx(Ctx& ctx, NodeId root, Step start, Step stamp, bool& done)
      : ctx_(ctx), root_(root), start_(start), stamp_(stamp), done_(done) {}

  Step now() const { return ctx_.now() - start_; }
  bool is_root() const { return ctx_.self() == root_; }
  const LogP& logp() const { return ctx_.logp(); }
  Xoshiro256& rng() { return ctx_.rng(); }
  void send(NodeId to, Message m) {
    m.time = stamp_;
    ctx_.send(to, m);
    sent_ = true;
  }
  void activate() { ctx_.activate(); }
  void mark_colored() {}
  void deliver() {}
  void complete() { done_ = true; }

  /// Route a receive to `node` unless its broadcast finished here.
  template <class Node>
  void receive(Node& node, const Message& m) {
    if (!done_) node.on_receive(*this, m);
  }

  /// Offer the node's send slot to `node`; sent() says if it took it.
  /// Only a colored, unfinished broadcast that has started (now() >= 1,
  /// when a root first emits) is ticked, as an engine ticks a CcgNode.
  template <class Node>
  void offer_slot(Node& node) {
    if (!done_ && node.colored() && now() >= 1) node.on_tick(*this);
  }
  bool sent() const { return sent_; }

 private:
  Ctx& ctx_;
  NodeId root_;
  Step start_;
  Step stamp_;
  bool& done_;
  bool sent_ = false;
};

/// A hosted broadcast's CcgNode parameters: Algorithm 2 with gossip
/// length T, no drain margin and no reliable sublayer.
inline CcgNode::Params session_ccg_params(Step T) {
  CcgNode::Params p;
  p.T = T;
  return p;
}

/// One broadcast to run within a session.
struct BcastPlan {
  NodeId root = 0;
  Step start = 0;  ///< gossip begins (root emits from start+1)
  Step T = 0;      ///< gossip duration: emissions while now < start + T
};

/// Engine protocol hosting one CcgNode per planned broadcast.
class MultiBcastNode {
 public:
  struct Params {
    std::vector<BcastPlan> plans;
  };

  MultiBcastNode(const Params& p, NodeId self, NodeId n) {
    CG_CHECK(!p.plans.empty());
    bcasts_.reserve(p.plans.size());
    for (const auto& plan : p.plans) bcasts_.emplace_back(plan, self, n);
  }

  template <class Ctx>
  void on_start(Ctx& ctx) {
    for (std::size_t i = 0; i < bcasts_.size(); ++i)
      host(ctx, i, [](auto& s, CcgNode& node) { node.on_start(s); });
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    if (m.time < 0 || m.time >= static_cast<Step>(bcasts_.size()))
      return;  // unknown session (stale/foreign)
    host(ctx, static_cast<std::size_t>(m.time),
         [&](auto& s, CcgNode& node) { s.receive(node, m); });
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    // Round-robin the node's single send slot; a broadcast that passes
    // (drain window, skipped direction slot) hands it to the next one.
    const std::size_t k = bcasts_.size();
    for (std::size_t probe = 0; probe < k; ++probe) {
      const std::size_t i = (rr_ + probe) % k;
      if (host(ctx, i, [](auto& s, CcgNode& node) { s.offer_slot(node); })) {
        rr_ = i + 1;  // fairness: next slot starts after the sender
        return;
      }
    }
  }

  const CcgNode& core(std::size_t i) const { return bcasts_[i].node; }

 private:
  struct Bcast {
    Bcast(const BcastPlan& plan, NodeId self, NodeId n)
        : root(plan.root),
          start(plan.start),
          node(session_ccg_params(plan.T), self, n) {}

    NodeId root;
    bool done = false;
    Step start;
    CcgNode node;
  };

  /// Run `call(session ctx, node)` on broadcast i; true if it sent.  The
  /// node is marked colored and delivered once every broadcast colored it,
  /// and completes once every broadcast finished here.
  template <class Ctx, class Call>
  bool host(Ctx& ctx, std::size_t i, Call&& call) {
    Bcast& b = bcasts_[i];
    const bool was_colored = b.node.colored();
    const bool was_done = b.done;
    SessionCtx<Ctx> sctx(ctx, b.root, b.start, static_cast<Step>(i), b.done);
    call(sctx, b.node);
    if (!was_colored && b.node.colored() && ++colored_ == bcasts_.size()) {
      ctx.mark_colored();
      ctx.deliver();
    }
    if (!was_done && b.done && ++done_ == bcasts_.size()) ctx.complete();
    return sctx.sent();
  }

  std::vector<Bcast> bcasts_;
  std::size_t rr_ = 0;
  std::size_t colored_ = 0;  ///< broadcasts that colored this node
  std::size_t done_ = 0;     ///< broadcasts finished here
};

}  // namespace cg
