// Node lifecycle state shared by every execution engine.
//
// NodeStateStore owns the per-node arrays (alive, Idle/Active/Done state,
// colored/delivered/completed/activated timestamps) and the transition
// rules between them, plus the single RunMetrics finalization all engines
// use.  Engines own scheduling and active/in-flight counting; this class
// owns what "activated", "colored", "delivered", "completed" and "crashed"
// MEAN, so the semantics cannot drift between engines.
//
// Thread-safety contract (sharded engine): every mutating call for node i
// must come from the shard that owns i.  All fields are at least one byte
// per node (no vector<bool> bit packing), so owner-disjoint access is free
// of data races.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/huge_pages.hpp"
#include "common/types.hpp"
#include "sim/fault/byzantine.hpp"
#include "sim/metrics.hpp"

namespace cg {

/// Lifecycle of a node during a run.  Nodes begin Idle (except the root),
/// become Active on their first receive (or explicit activate()), and Done
/// when they complete or crash.
enum class NodeRunState : std::uint8_t { kIdle, kActive, kDone };

class NodeStateStore {
 public:
  /// Outcome of a complete()/kill() call, so engines can maintain their own
  /// active-node accounting (a plain counter, per-worker deltas, ...).
  struct Transition {
    bool changed = false;     ///< the call performed a state change
    bool was_active = false;  ///< the node was Active before the change
  };

  void reset(NodeId n) {
    const auto sz = static_cast<std::size_t>(n);
    n_ = n;
    alive_.assign(sz, 1);
    state_.assign(sz, NodeRunState::kIdle);
    colored_at_.assign(sz, kNever);
    delivered_at_.assign(sz, kNever);
    completed_at_.assign(sz, kNever);
    activated_at_.assign(sz, kNever);
    held_payload_.assign(sz, 0);
    delivered_payload_.assign(sz, 0);
    byzantine_.assign(sz, 0);
  }

  NodeId n() const { return n_; }
  bool alive(NodeId i) const { return alive_[idx(i)] != 0; }
  NodeRunState state(NodeId i) const { return state_[idx(i)]; }
  bool done(NodeId i) const { return state_[idx(i)] == NodeRunState::kDone; }
  bool colored(NodeId i) const { return colored_at_[idx(i)] != kNever; }
  Step activated_at(NodeId i) const { return activated_at_[idx(i)]; }
  Step completed_at(NodeId i) const { return completed_at_[idx(i)]; }
  /// Payload digest node i currently holds (0 until colored).
  std::uint32_t held_payload(NodeId i) const { return held_payload_[idx(i)]; }
  bool byzantine(NodeId i) const { return byzantine_[idx(i)] != 0; }

  /// Flag node i as adversarial (engine setup, from RunConfig::byzantine).
  /// Survives revive(): a compromised host stays compromised.
  void mark_byzantine(NodeId i) { byzantine_[idx(i)] = 1; }

  /// Override the digest node i holds (SBRB Contagion adopts the winning
  /// payload just before delivering; also sets it for an uncolored node).
  void set_held_payload(NodeId i, std::uint32_t d) {
    held_payload_[idx(i)] = d;
  }

  /// Mark a node dead before the run starts (failure set F at t=0).
  void pre_fail(NodeId i) {
    CG_CHECK(i >= 0 && i < n_);
    alive_[idx(i)] = 0;
    state_[idx(i)] = NodeRunState::kDone;
  }

  /// Idle -> Active; returns true if the transition happened.
  bool activate(NodeId i, Step now) {
    if (state_[idx(i)] != NodeRunState::kIdle) return false;
    state_[idx(i)] = NodeRunState::kActive;
    activated_at_[idx(i)] = now;
    return true;
  }

  /// Protocol exit: -> Done, recording the completion step.
  Transition complete(NodeId i, Step now) {
    const NodeRunState st = state_[idx(i)];
    if (st == NodeRunState::kDone) return {};
    state_[idx(i)] = NodeRunState::kDone;
    completed_at_[idx(i)] = now;
    return {true, st == NodeRunState::kActive};
  }

  /// Crash: the node performs no further action.  completed_at stays kNever
  /// (dead nodes are excluded from every metric).
  Transition kill(NodeId i) {
    if (alive_[idx(i)] == 0) return {};
    const NodeRunState st = state_[idx(i)];
    alive_[idx(i)] = 0;
    state_[idx(i)] = NodeRunState::kDone;
    return {true, st == NodeRunState::kActive};
  }

  /// Crash-restart rejoin: a DEAD node comes back alive, Idle and with
  /// every timestamp cleared - it re-enters the run as if it had never
  /// participated (its protocol object is reconstructed by the engine).
  /// Returns true if the node was dead and is now revived.
  bool revive(NodeId i) {
    if (alive_[idx(i)] != 0) return false;
    alive_[idx(i)] = 1;
    state_[idx(i)] = NodeRunState::kIdle;
    colored_at_[idx(i)] = kNever;
    delivered_at_[idx(i)] = kNever;
    completed_at_[idx(i)] = kNever;
    activated_at_[idx(i)] = kNever;
    held_payload_[idx(i)] = 0;
    delivered_payload_[idx(i)] = 0;
    return true;
  }

  /// Record payload receipt; returns true the first time only.  `payload`
  /// is the digest the coloring message carried (0 = self-coloring, e.g.
  /// the root in on_start, which holds the true payload by definition).
  /// First-wins: a later re-color attempt never replaces the held digest.
  bool mark_colored(NodeId i, Step now, std::uint32_t payload = 0) {
    auto& c = colored_at_[idx(i)];
    if (c != kNever) return false;
    c = now;
    if (held_payload_[idx(i)] == 0)
      held_payload_[idx(i)] = payload != 0 ? payload : kTruePayload;
    return true;
  }

  /// Record formal delivery (FCG semantics); returns true the first time.
  /// Snapshots the held digest as what this node delivered.
  bool mark_delivered(NodeId i, Step now) {
    auto& d = delivered_at_[idx(i)];
    if (d != kNever) return false;
    d = now;
    const std::uint32_t h = held_payload_[idx(i)];
    delivered_payload_[idx(i)] = h != 0 ? h : kTruePayload;
    return true;
  }

  /// The single RunMetrics finalization all engines share.  Message counters
  /// (msgs_*) must already be merged into `m`; this fills the population,
  /// timing and flag fields from the per-node arrays.
  void finalize(RunMetrics& m, NodeId root, Step t_end,
                bool record_node_detail) const {
    m.n_total = n_;
    m.t_end = t_end;
    Step last_colored = 0, last_delivered = 0, last_complete = 0;
    bool any_colored = false;
    bool any_uncolored = false, any_undelivered = false, any_incomplete = false;
    for (NodeId i = 0; i < n_; ++i) {
      if (alive_[idx(i)] == 0) continue;
      // Reach/delivery guarantees quantify over CORRECT nodes: whether an
      // adversary's own replica "delivered" is meaningless (an equivocator
      // happily starves its own quorums), so Byzantine nodes count toward
      // n_byzantine below, not n_active.
      if (byzantine_[idx(i)] != 0) continue;
      ++m.n_active;
      if (colored_at_[idx(i)] != kNever) {
        ++m.n_colored;
        any_colored = true;
        last_colored = std::max(last_colored, colored_at_[idx(i)]);
        if (completed_at_[idx(i)] != kNever)
          last_complete = std::max(last_complete, completed_at_[idx(i)]);
        else
          any_incomplete = true;
      } else {
        any_uncolored = true;
      }
      if (delivered_at_[idx(i)] != kNever) {
        ++m.n_delivered;
        last_delivered = std::max(last_delivered, delivered_at_[idx(i)]);
      } else {
        any_undelivered = true;
      }
    }
    m.all_active_colored = !any_uncolored;
    m.all_active_delivered = !any_undelivered;
    m.t_last_colored = any_uncolored ? kNever : last_colored;
    // kNever (not 0) when nobody was colored: 0 is a legitimate coloring
    // step (the root's), so it cannot double as "never happened".
    m.t_last_colored_partial = any_colored ? last_colored : kNever;
    m.t_last_delivered = any_undelivered ? kNever : last_delivered;
    // Completion is over COLORED nodes: a weakly consistent protocol
    // (GOS/OCG) legitimately finishes while some nodes were never reached.
    m.t_complete = any_incomplete ? kNever : last_complete;
    m.sos_triggered = m.msgs_sos > 0;
    m.t_root_complete = completed_at_[idx(root)];
    // Byzantine accounting: payload agreement among CORRECT nodes (dead or
    // alive - a node that delivered a conflicting payload and then crashed
    // still witnessed the inconsistency).  Distinct-digest count saturates
    // at kMaxDistinct; the predicates only need "1" vs "> 1".
    constexpr int kMaxDistinct = 16;
    std::uint32_t seen[kMaxDistinct];
    int n_seen = 0;
    for (NodeId i = 0; i < n_; ++i) {
      if (byzantine_[idx(i)] != 0) {
        ++m.n_byzantine;
        continue;
      }
      const std::uint32_t d = delivered_payload_[idx(i)];
      if (d == 0) continue;
      if (d == kTruePayload)
        ++m.n_delivered_true;
      else
        ++m.n_delivered_forged;
      bool known = false;
      for (int k = 0; k < n_seen; ++k) known = known || seen[k] == d;
      if (!known && n_seen < kMaxDistinct) seen[n_seen++] = d;
    }
    m.distinct_delivered_payloads = n_seen;
    m.consistent_delivery = n_seen <= 1;
    if (record_node_detail) {
      m.colored_at.assign(colored_at_.begin(), colored_at_.end());
      m.delivered_at.assign(delivered_at_.begin(), delivered_at_.end());
      m.completed_at.assign(completed_at_.begin(), completed_at_.end());
    }
  }

  /// Heap bytes of the lifecycle arrays (memory-plan accounting).
  std::size_t footprint_bytes() const {
    return (alive_.capacity() + byzantine_.capacity()) * sizeof(std::uint8_t) +
           state_.capacity() * sizeof(NodeRunState) +
           (held_payload_.capacity() + delivered_payload_.capacity()) *
               sizeof(std::uint32_t) +
           (colored_at_.capacity() + delivered_at_.capacity() +
            completed_at_.capacity() + activated_at_.capacity()) *
               sizeof(Step);
  }

 private:
  static std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

  NodeId n_ = 0;
  // std::uint8_t, not vector<bool>: the sharded engine writes these from
  // different threads for different nodes; byte-sized elements keep that
  // race-free under the C++ memory model.
  NodeArray<std::uint8_t> alive_;
  NodeArray<NodeRunState> state_;
  NodeArray<Step> colored_at_;
  NodeArray<Step> delivered_at_;
  NodeArray<Step> completed_at_;
  NodeArray<Step> activated_at_;
  // Byzantine tier: digest each node holds / delivered (0 = none yet) and
  // the adversary flags.  Same owner-disjoint thread-safety rules apply.
  NodeArray<std::uint32_t> held_payload_;
  NodeArray<std::uint32_t> delivered_payload_;
  NodeArray<std::uint8_t> byzantine_;
};

}  // namespace cg
