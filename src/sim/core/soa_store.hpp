// Structure-of-arrays node state - the node store both engines share.
//
// SoaNodeStore<Node> is the flat memory plan behind million-node runs, and
// the stepped oracle (sim/engine.hpp) and the sharded engine
// (sim/sharded_engine.hpp) both keep their nodes in it:
//   * NodeStateStore - the canonical lifecycle/timestamp arrays and the
//     one RunMetrics finalization (semantics stay in ONE place, so the
//     engines cannot drift apart);
//   * a packed bitmap MIRRORING the Active state (kept coherent by the
//     transition wrappers below), so per-step tick sweeps scan 64 nodes
//     per word instead of a byte per node;
//   * the dense protocol slab (NodeArray<Node>, contiguous - GOS nodes are
//     ~16 bytes, so a million nodes fit in a few cache-resident MB) and
//     the per-node RNG streams, both on huge pages once they reach 2 MiB
//     (common/huge_pages.hpp);
//   * revival: revive() rebuilds the node's protocol object in place.
//
// The existing Protocol object API (on_start/on_tick/on_receive against
// BasicCtx) keeps working: each engine's ctx_* hooks forward every
// transition through this store, which updates the byte arrays and the
// bitmap together.  Protocols never see the bitmaps - they are an engine
// -side acceleration structure, not model state.
//
// Thread-safety contract (sharded engine): all mutating calls for node i
// come from i's owner shard, and shard blocks are 64-node-aligned, so
// byte arrays stay race-free per the NodeStateStore contract and bitmap
// words are owner-disjoint.
#pragma once

#include <concepts>
#include <cstddef>

#include "common/huge_pages.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/core/bitset.hpp"
#include "sim/core/node_state.hpp"

namespace cg {

template <class Node>
class SoaNodeStore {
 public:
  using Params = typename Node::Params;

  void reset(NodeId n, std::uint64_t seed, const Params& params) {
    life_.reset(n);
    active_.reset(n);
    const auto sz = static_cast<std::size_t>(n);
    if constexpr (kNodeReset) {
      if (nodes_.size() == sz) {
        for (NodeId i = 0; i < n; ++i)
          nodes_[static_cast<std::size_t>(i)].reset_for_run(params, i, n);
      } else {
        nodes_.clear();
        nodes_.reserve(sz);
        for (NodeId i = 0; i < n; ++i) nodes_.emplace_back(params, i, n);
      }
    } else {
      nodes_.clear();
      nodes_.reserve(sz);
      for (NodeId i = 0; i < n; ++i) nodes_.emplace_back(params, i, n);
    }
    rng_.clear();
    rng_.reserve(sz);
    for (NodeId i = 0; i < n; ++i)
      rng_.emplace_back(derive_seed(seed, static_cast<std::uint64_t>(i)));
  }

  NodeId n() const { return life_.n(); }
  Node& node(NodeId i) { return nodes_[static_cast<std::size_t>(i)]; }
  const Node& node(NodeId i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  Xoshiro256& rng(NodeId i) { return rng_[static_cast<std::size_t>(i)]; }

  // --- lifecycle reads (delegate to the canonical store) -----------------
  bool alive(NodeId i) const { return life_.alive(i); }
  bool done(NodeId i) const { return life_.done(i); }
  NodeRunState state(NodeId i) const { return life_.state(i); }
  bool colored(NodeId i) const { return life_.colored(i); }
  Step activated_at(NodeId i) const { return life_.activated_at(i); }
  const NodeStateStore& life() const { return life_; }

  /// Bitmap of Active nodes (engine sweep acceleration; read-only).
  const PackedBits& active_bits() const { return active_; }

  // --- dense SBRB state block (sharded SBRB step kernel) ------------------
  // One bit per node: "has staged sends" (SbrbNode::sbrb_idle() == false).
  // The sharded engine's SBRB kernel sweeps pending AND active instead of
  // ticking every active node, so idle nodes cost nothing per step.  Only
  // allocated when the engine asks for it; like the Active bitmap,
  // words are owner-disjoint under 64-aligned shard blocks.

  /// (Re)allocate and clear the pending-sends bitmap for n() nodes.
  void reset_sbrb_block() { sbrb_pending_.reset(life_.n()); }
  const PackedBits& sbrb_pending_bits() const { return sbrb_pending_; }
  void sbrb_set_pending(NodeId i) { sbrb_pending_.set(i); }
  void sbrb_clear_pending(NodeId i) { sbrb_pending_.clear(i); }

  // --- transitions (byte arrays + bitmap updated together) ---------------
  void pre_fail(NodeId i) { life_.pre_fail(i); }

  bool activate(NodeId i, Step now) {
    if (!life_.activate(i, now)) return false;
    active_.set(i);
    return true;
  }

  NodeStateStore::Transition complete(NodeId i, Step now) {
    const auto t = life_.complete(i, now);
    if (t.was_active) active_.clear(i);
    return t;
  }

  NodeStateStore::Transition kill(NodeId i) {
    const auto t = life_.kill(i);
    if (t.was_active) active_.clear(i);
    return t;
  }

  bool revive(NodeId i, const Params& params) {
    if (!life_.revive(i)) return false;
    // Fresh protocol instance, uncolored and passive (see sim/engine.hpp).
    if constexpr (kNodeReset)
      nodes_[static_cast<std::size_t>(i)].reset_for_run(params, i, life_.n());
    else
      nodes_[static_cast<std::size_t>(i)] = Node(params, i, life_.n());
    return true;
  }

  bool mark_colored(NodeId i, Step now, std::uint32_t payload = 0) {
    return life_.mark_colored(i, now, payload);
  }

  bool mark_delivered(NodeId i, Step now) {
    return life_.mark_delivered(i, now);
  }

  std::uint32_t held_payload(NodeId i) const { return life_.held_payload(i); }
  void set_held_payload(NodeId i, std::uint32_t d) {
    life_.set_held_payload(i, d);
  }
  void mark_byzantine(NodeId i) { life_.mark_byzantine(i); }

  void finalize(RunMetrics& m, NodeId root, Step t_end,
                bool record_node_detail) const {
    life_.finalize(m, root, t_end, record_node_detail);
  }

  /// Bytes held by the per-node arrays, plus the heap the nodes own when
  /// the protocol reports it (memory-plan accounting for
  /// EngineProfile::bytes_per_node).  Walks every node when it does: call
  /// it outside timed sections.
  std::size_t footprint_bytes() const {
    std::size_t node_heap = 0;
    if constexpr (kNodeHeap)
      for (const Node& nd : nodes_) node_heap += nd.heap_bytes();
    return node_heap + nodes_.capacity() * sizeof(Node) +
           rng_.capacity() * sizeof(Xoshiro256) +
           active_.footprint_bytes() + sbrb_pending_.footprint_bytes() +
           // NodeStateStore's arrays: alive, state and byzantine bytes, held
           // and delivered payloads, four timestamps (pinned to its own
           // footprint_bytes() by the SoaNodeStore tests).
           static_cast<std::size_t>(life_.n()) *
               (3 * sizeof(std::uint8_t) + 2 * sizeof(std::uint32_t) +
                4 * sizeof(Step));
  }

 private:
  /// Does the Node support in-place reset (capacity-preserving return to
  /// the freshly constructed state)?  Then trial reruns and restarts reuse
  /// the node objects instead of re-emplacing them - the zero-alloc
  /// steady state for protocols with internal buffers (SBRB's samples and
  /// subscriber list, FCG's k-arrays, the reliable sublayer's state).
  static constexpr bool kNodeReset =
      requires(Node& nd, const Params& p) {
        nd.reset_for_run(p, NodeId{0}, NodeId{2});
      };
  /// Does the Node report the heap it owns (optional heap_bytes() hook)?
  static constexpr bool kNodeHeap = requires(const Node& nd) {
    { nd.heap_bytes() } -> std::convertible_to<std::size_t>;
  };

  NodeStateStore life_;
  PackedBits active_;        // mirrors state == kActive
  PackedBits sbrb_pending_;  // SBRB kernel: nodes with staged sends
  NodeArray<Node> nodes_;
  NodeArray<Xoshiro256> rng_;
};

}  // namespace cg
