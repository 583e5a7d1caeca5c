// BFB: Buntinas' fault-tolerant consistent broadcast (paper Section IV-B2,
// [8]) - the restart-tree baseline.
//
// The root disseminates over a binomial tree of the nodes it believes
// alive; leaves acknowledge, internal nodes aggregate acks upward; when a
// failure detector reports a dead child, a NACK travels straight to the
// root, which restarts the whole broadcast over a modified tree (a higher
// epoch).  An epoch only completes ("delivery acknowledged back to the
// root") if no failure was detected inside it.  The paper evaluates BFB
// with an analytic model (latency 2(2O+L)log2 N plus one tree latency per
// online restart, work N*(1+restarts)); this simulation cross-checks it.
//
// Modeling notes (see DESIGN.md):
//  * the failure detector is an oracle over the run's FailureSchedule
//    (Buntinas assumes a detector; ours is perfect with a one-round-trip
//    detection delay);
//  * following the paper's Table 7 assumptions, pre-failed nodes are
//    already excluded from the epoch-0 tree (only ONLINE failures force
//    restarts);
//  * tree membership per epoch is shared through BfbShared, standing in
//    for the child lists Buntinas embeds in each message;
//  * non-root nodes quiesce (complete) after a quiet period without
//    traffic; BFB latency is the ROOT's completion step.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"
#include "sim/failure.hpp"

namespace cg {

/// Run-wide shared state (one instance per run, shared via Params).  It
/// models the child lists Buntinas serializes into messages (see the
/// header note).  Only the root mutates it - `excluded`, and the next
/// `epoch_members` row per restart - so a multi-shard sharded run is
/// race-free: the outer vector is sized up front for every epoch a run
/// can have (the first, plus one per online failure), so a restart fills
/// an existing row and never touches the container or the rows other
/// shards read; rows are never modified once filled, and a node reads a
/// new epoch's row only after a message of that epoch reached it, which
/// is a window barrier later.
struct BfbShared {
  /// Members (tree order, root first) per epoch; rows [0, epochs) are
  /// filled.
  std::vector<std::vector<NodeId>> epoch_members;
  int epochs = 0;
  /// Nodes known to be dead (root's view; updated on detection).
  std::unordered_set<NodeId> excluded;
  /// Failure oracle: node -> crash step (pre-failed = step -1).
  std::vector<Step> crash_at;
  NodeId root = 0;
  NodeId n = 0;

  static std::shared_ptr<BfbShared> make(NodeId n, NodeId root,
                                         const FailureSchedule& fs) {
    auto sh = std::make_shared<BfbShared>();
    sh->root = root;
    sh->n = n;
    sh->epoch_members.resize(1 + fs.online.size());
    sh->crash_at.assign(static_cast<std::size_t>(n), kNever);
    for (const NodeId i : fs.pre_failed) {
      sh->crash_at[static_cast<std::size_t>(i)] = -1;
      sh->excluded.insert(i);  // paper: pre-failures are known up front
    }
    for (const auto& of : fs.online)
      sh->crash_at[static_cast<std::size_t>(of.node)] = of.at_step;
    sh->push_epoch();
    return sh;
  }

  bool alive_at(NodeId node, Step t) const {
    return crash_at[static_cast<std::size_t>(node)] > t;
  }

  /// Fill the member list of the next epoch; returns its index.  Each
  /// restart excludes a newly detected online failure, so the pre-sized
  /// rows are never exhausted (checked).
  int push_epoch() {
    CG_CHECK(static_cast<std::size_t>(epochs) < epoch_members.size());
    auto& members = epoch_members[static_cast<std::size_t>(epochs)];
    members.push_back(root);
    for (NodeId i = 0; i < n; ++i)
      if (i != root && excluded.count(i) == 0) members.push_back(i);
    return epochs++;
  }
};

/// Binomial-tree children in rank space 0..m-1 (rank 0 = root):
/// children(r) = { r + 2^k : 2^k > r, r + 2^k < m }.
inline std::vector<NodeId> bfb_children(NodeId rank, NodeId m) {
  std::vector<NodeId> ch;
  for (NodeId p = 1; p < m; p <<= 1)
    if (p > rank && rank + p < m) ch.push_back(rank + p);
  return ch;
}

inline NodeId bfb_parent(NodeId rank) {
  CG_CHECK(rank > 0);
  NodeId p = 1;
  while (p * 2 <= rank) p <<= 1;  // highest power of two <= rank
  return rank - p;
}

class BfbNode {
 public:
  struct Params {
    std::shared_ptr<BfbShared> shared;
    Step quiet_period = 64;  ///< silence before a non-root quiesces
  };

  BfbNode(const Params& p, NodeId self, NodeId n)
      : p_(p), self_(self), n_(n) {
    CG_CHECK(p_.shared != nullptr);
  }

  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (ctx.is_root()) {
      colored_ = true;
      ctx.mark_colored();
      ctx.deliver();
      enter_epoch(0, 0, ctx.now());
      if (member_count() == 1) ctx.complete();
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    last_rx_ = ctx.now();
    const int ep = static_cast<int>(m.time);
    switch (m.tag) {
      case Tag::kTree: {
        if (!colored_) {
          colored_ = true;
          ctx.mark_colored();
          ctx.deliver();
        }
        if (ep > epoch_) enter_epoch(ep, m.known_nodes()[0], ctx.now());
        break;
      }
      case Tag::kAck: {
        if (ep != epoch_) break;  // stale epoch
        mark_acked(m.src);
        break;
      }
      case Tag::kNack: {
        CG_CHECK(ctx.is_root());
        restart_excluding(m.known_nodes()[0], ctx.now());
        break;
      }
      default:
        break;
    }
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    const Step now = ctx.now();
    if (epoch_ < 0) return;  // not part of any tree yet

    detect_rtt_ = ctx.logp().delivery_delay();
    poll_detector(now);

    // A queued NACK towards the root takes priority.
    if (!nack_queue_.empty()) {
      const NodeId dead = nack_queue_.front();
      nack_queue_.erase(nack_queue_.begin());
      if (ctx.is_root()) {
        restart_excluding(dead, now);
      } else {
        Message m;
        m.tag = Tag::kNack;
        m.time = epoch_;
        m.set_known(std::span<const NodeId>(&dead, 1));
        ctx.send(ctx.root(), m);
      }
      return;
    }

    // Forward the payload to the next child.
    if (next_child_ < children_.size()) {
      const NodeId child_rank = children_[next_child_];
      const NodeId child = member(child_rank);
      ++next_child_;
      Message m;
      m.tag = Tag::kTree;
      m.time = epoch_;
      m.set_known(std::span<const NodeId>(&child_rank, 1));
      ctx.send(child, m);
      sent_at_[next_child_ - 1] = now;
      return;
    }

    maybe_finish(ctx);

    if (!ctx.is_root() && acked_ && now - last_rx_ > p_.quiet_period)
      ctx.complete();
  }

  int epoch() const { return epoch_; }
  bool colored() const { return colored_; }

 private:
  NodeId member_count() const {
    return static_cast<NodeId>(
        p_.shared->epoch_members[static_cast<std::size_t>(epoch_)].size());
  }
  NodeId member(NodeId rank) const {
    return p_.shared
        ->epoch_members[static_cast<std::size_t>(epoch_)]
                       [static_cast<std::size_t>(rank)];
  }

  void enter_epoch(int ep, NodeId my_rank, Step now) {
    epoch_ = ep;
    rank_ = my_rank;
    children_ = bfb_children(rank_, member_count());
    child_acked_.assign(children_.size(), false);
    child_nacked_.assign(children_.size(), false);
    sent_at_.assign(children_.size(), kNever);
    next_child_ = 0;
    acked_ = false;
    failure_seen_ = false;
    nack_queue_.clear();
    last_rx_ = now;
  }

  void restart_excluding(NodeId dead, Step now) {
    const bool news = p_.shared->excluded.insert(dead).second;
    if (!news && !epoch_has_member(dead))
      return;  // current epoch already excludes it; duplicate NACK
    const int next = p_.shared->push_epoch();
    enter_epoch(next, 0, now);
  }

  bool epoch_has_member(NodeId node) const {
    const auto& members =
        p_.shared->epoch_members[static_cast<std::size_t>(epoch_)];
    for (const NodeId m : members)
      if (m == node) return true;
    return false;
  }

  void mark_acked(NodeId from) {
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (member(children_[i]) == from) {
        child_acked_[i] = true;
        return;
      }
    }
  }

  /// Perfect failure detector with one-round-trip latency: a child we are
  /// awaiting that died is detected 2*(L/O+1) steps after its crash (or
  /// after our send, whichever is later).
  void poll_detector(Step now) {
    for (std::size_t i = 0; i < children_.size() && i < next_child_; ++i) {
      if (child_acked_[i] || child_nacked_[i]) continue;
      const NodeId child = member(children_[i]);
      const Step crash = p_.shared->crash_at[static_cast<std::size_t>(child)];
      if (crash == kNever) continue;
      const Step detect_at = std::max(crash, sent_at_[i]) + 2 * detect_rtt_;
      if (now >= detect_at) {
        child_nacked_[i] = true;
        failure_seen_ = true;
        nack_queue_.push_back(child);
      }
    }
  }

  template <class Ctx>
  void maybe_finish(Ctx& ctx) {
    if (acked_ || failure_seen_) return;  // failed epochs never complete
    for (std::size_t i = 0; i < children_.size(); ++i)
      if (!child_acked_[i]) return;
    acked_ = true;
    if (ctx.is_root()) {
      ctx.complete();  // delivery acknowledged back to the root
    } else {
      Message m;
      m.tag = Tag::kAck;
      m.time = epoch_;
      ctx.send(member(bfb_parent(rank_)), m);
    }
  }

  Params p_;
  NodeId self_;
  NodeId n_;
  bool colored_ = false;
  int epoch_ = -1;
  NodeId rank_ = 0;
  std::vector<NodeId> children_;  // ranks in the current epoch
  std::vector<bool> child_acked_;
  std::vector<bool> child_nacked_;
  std::vector<Step> sent_at_;
  std::size_t next_child_ = 0;
  bool acked_ = false;
  bool failure_seen_ = false;
  Step last_rx_ = 0;
  Step detect_rtt_ = 2;
  std::vector<NodeId> nack_queue_;
};

}  // namespace cg
