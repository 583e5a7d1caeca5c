// Opt-in reliable-delivery sublayer for correction/SOS traffic.
//
// The paper's CCG/FCG guarantees assume reliable channels: a single lost
// kFwd/kBwd message silently voids "reaches all active nodes".  This
// sublayer restores the guarantee under message loss with the classic
// ack/retransmit recipe, kept deliberately small so it composes with the
// one-send-per-step LogP discipline:
//
//   * sender side - every tracked send carries a per-sender sequence
//     number (in Message::time, unused by the correction tags) and is
//     remembered per DESTINATION; at most one transaction is outstanding
//     per destination, newer content superseding older (sound for ring
//     correction: a later message to the same peer carries at least as
//     much information).  An unacked message is retransmitted from the
//     node's send slot with bounded exponential backoff (rto, 2*rto,
//     4*rto, ... capped) and abandoned after max_retries - the peer may
//     legitimately be dead, and FCG's crash tolerance covers that case;
//   * receiver side - a cumulative kAck (acking every seq <= Message::time
//     from that peer) is owed to each sender we got tracked traffic from
//     and is flushed from the receiver's own send slots, acks first, so a
//     duplicate data message re-triggers the ack it may have lost.  Owed
//     acks flush in (step-owed, peer-id) order: under RxPolicy::kDrainAll
//     the engines process a step's arrivals in engine-specific order, so
//     any queue keyed on ARRIVAL order would leak scheduling into ack
//     timing and break cross-engine parity.
//     Duplicate suppression is the paper's Claim 1 bookkeeping: a tracked
//     message is fresh exactly when its seq exceeds the highest seq seen
//     from its sender (the per-peer counter the cumulative ack already
//     keeps), so no per-node array sized by N is needed;
//   * acks are never themselves acked or retransmitted - the data-side
//     timer covers a lost ack (the data is retransmitted, re-acked and
//     deduplicated).
//
// Retransmissions count as work: they are flagged on the Message
// (retrans = 1) and surface as msgs_retrans next to the per-tag counters.
// Determinism: the sublayer holds no RNG; every decision is a pure
// function of the callback sequence, so engine parity is preserved.
//
// Memory plan: ALL sublayer state lives behind one pointer, allocated only
// when the sublayer is enabled.  A disabled link is pointer-sized, which is
// what keeps CcgNode/FcgNode dense enough for the million-node SoA slab
// (docs/PERF.md §6) - the default configuration embeds ~150 bytes of empty
// vectors per node otherwise.  An enabled link holds O(peers) state: a few
// entries per node it exchanged tracked traffic with, never one per node
// of the run.  reset_for_run() returns it to the fresh state and keeps the
// vectors' capacities, so replayed trials allocate nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"

namespace cg {

struct ReliableParams {
  bool enabled = false;
  /// Retransmit timeout in steps before the first resend; 0 = auto
  /// (2 * delivery_delay + 2: a round trip plus the receiver's ack slot).
  Step rto = 0;
  /// Resends per transaction before abandoning the destination (it may
  /// have crashed or completed; unbounded retries would livelock the run).
  int max_retries = 6;
  /// Backoff is min(rto << attempt, backoff_cap) steps.
  Step backoff_cap = 64;
};

/// True for tags the sublayer tracks (correction + SOS).  Gossip-phase
/// messages stay fire-and-forget: the gossip phase is probabilistic by
/// design and correction exists to mop up after it.
constexpr bool is_reliable_tag(Tag t) {
  return is_ring_corr(t) || t == Tag::kSos;
}

class ReliableLink {
 public:
  /// What on_receive() decided about an incoming message.
  enum class Rx : std::uint8_t {
    kProcess,    ///< fresh data (or sublayer disabled): run protocol logic
    kDuplicate,  ///< already seen: suppressed (ack re-sent), skip it
    kAck,        ///< sublayer control traffic: skip it
  };

  ReliableLink() = default;

  // Deep-copyable so protocol nodes stay regular values (the engines only
  // ever move, but tests and helpers may copy).
  ReliableLink(const ReliableLink& o)
      : st_(o.st_ ? std::make_unique<State>(*o.st_) : nullptr) {}
  ReliableLink& operator=(const ReliableLink& o) {
    if (this != &o) st_ = o.st_ ? std::make_unique<State>(*o.st_) : nullptr;
    return *this;
  }
  ReliableLink(ReliableLink&&) noexcept = default;
  ReliableLink& operator=(ReliableLink&&) noexcept = default;

  /// Start a run with `p`.  An enabled link keeps the State of an earlier
  /// run and its vectors' capacities; a disabled one frees it (a disabled
  /// link is a null pointer).
  void reset_for_run(const ReliableParams& p, NodeId self) {
    if (!p.enabled) {
      st_.reset();
    } else if (st_) {
      st_->reset(p, self);
    } else {
      st_ = std::make_unique<State>(p, self);
    }
  }

  bool enabled() const { return st_ != nullptr; }

  /// No unacked transactions and no acks owed: safe to complete().
  bool idle() const {
    return !st_ || (st_->pending.empty() && st_->ack_queue.empty());
  }

  std::int64_t abandoned() const { return st_ ? st_->abandoned : 0; }

  /// Heap the sublayer holds: its State and the vectors' capacities (0
  /// when disabled).
  std::size_t heap_bytes() const {
    if (!st_) return 0;
    return sizeof(State) + st_->pending.capacity() * sizeof(Pending) +
           st_->ack_queue.capacity() * sizeof(OwedAck) +
           st_->last_seq_v.capacity() *
               sizeof(std::pair<NodeId, std::uint64_t>) +
           st_->ack_owed_v.capacity() *
               sizeof(std::pair<NodeId, std::uint8_t>);
  }

  /// Send `m` to `to` with delivery tracking (consumes this step's slot).
  /// With the sublayer disabled this is a plain ctx.send().
  template <class Ctx>
  void send(Ctx& ctx, NodeId to, Message m) {
    if (!st_ || !is_reliable_tag(m.tag)) {
      ctx.send(to, m);
      return;
    }
    CG_CHECK(to != st_->self);
    m.time = static_cast<Step>(++st_->next_seq);
    // One outstanding transaction per destination: newer content
    // supersedes (ring-correction messages to the same peer are monotone
    // in information content).
    st_->drop_pending(to);
    st_->pending.push_back({to, m, ctx.now() + rto(ctx), 0});
    ctx.send(to, m);
  }

  /// Flush control traffic from this step's send slot: owed acks first,
  /// then due retransmits.  Returns true if the slot was consumed - the
  /// protocol must then skip its own emission this step.
  template <class Ctx>
  bool on_tick(Ctx& ctx) {
    if (!st_) return false;
    auto& pending_ = st_->pending;
    auto& ack_queue_ = st_->ack_queue;
    const Step now = ctx.now();
    if (!ack_queue_.empty()) {
      // Oldest owed step first, lowest peer id on ties: canonical across
      // engines (same-step arrivals owe at the same step regardless of the
      // order they were drained in).
      std::size_t best = 0;
      for (std::size_t k = 1; k < ack_queue_.size(); ++k) {
        const auto& a = ack_queue_[k];
        const auto& b = ack_queue_[best];
        if (a.since < b.since || (a.since == b.since && a.peer < b.peer))
          best = k;
      }
      const NodeId peer = ack_queue_[best].peer;
      ack_queue_.erase(ack_queue_.begin() +
                       static_cast<std::ptrdiff_t>(best));
      st_->ack_owed(peer) = 0;
      Message a;
      a.tag = Tag::kAck;
      a.time = static_cast<Step>(st_->last_seq(peer));
      ctx.send(peer, a);
      return true;
    }
    // First due transaction in insertion order (deterministic; insertion
    // order is oldest-first, so starvation is impossible).
    for (std::size_t k = 0; k < pending_.size();) {
      auto& tx = pending_[k];
      if (tx.due > now) {
        ++k;
        continue;
      }
      if (tx.attempts >= st_->p.max_retries) {
        ++st_->abandoned;
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(k));
        continue;  // dead/completed peer: give up, try the next one
      }
      ++tx.attempts;
      tx.due = now + backoff(ctx, tx.attempts);
      Message m = tx.msg;
      m.retrans = 1;
      ctx.send(tx.to, m);
      return true;
    }
    return false;
  }

  /// Classify an incoming message and update sublayer state.  kProcess
  /// means the caller should run its protocol logic on `m`.
  template <class Ctx>
  Rx on_receive(Ctx& ctx, const Message& m) {
    if (!st_) return Rx::kProcess;
    auto& pending_ = st_->pending;
    if (m.tag == Tag::kAck) {
      // Cumulative: clears the pending transaction to m.src if its seq is
      // covered.
      for (std::size_t k = 0; k < pending_.size(); ++k) {
        if (pending_[k].to == m.src && pending_[k].msg.time <= m.time) {
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
      }
      return Rx::kAck;
    }
    if (!is_reliable_tag(m.tag)) return Rx::kProcess;
    // Claim-1 dedup: fresh exactly when the seq beats the highest one seen
    // from this sender, read before it is raised.  Either way, owe the
    // sender a cumulative ack (duplicates re-queue it: our previous ack may
    // have been lost).
    const auto seq = static_cast<std::uint64_t>(m.time);
    auto& hi = st_->last_seq(m.src);
    const bool fresh = seq > hi;
    hi = std::max(hi, seq);
    if (st_->ack_owed(m.src) == 0) {
      st_->ack_owed(m.src) = 1;
      st_->ack_queue.push_back({m.src, ctx.now()});
    }
    return fresh ? Rx::kProcess : Rx::kDuplicate;
  }

 private:
  struct Pending {
    NodeId to = kNoNode;
    Message msg;
    Step due = 0;
    int attempts = 0;
  };

  struct OwedAck {
    NodeId peer = kNoNode;
    Step since = 0;  ///< step the ack became owed
  };

  /// Everything an ENABLED link needs; a disabled link is just a null
  /// pointer to this (see the memory-plan note in the file comment).
  struct State {
    State(const ReliableParams& params, NodeId self_id) {
      reset(params, self_id);
    }

    /// The fresh state; the vectors keep their capacities.
    void reset(const ReliableParams& params, NodeId self_id) {
      CG_CHECK(params.max_retries >= 0);
      CG_CHECK(params.rto >= 0 && params.backoff_cap >= 1);
      p = params;
      self = self_id;
      next_seq = 0;
      pending.clear();
      ack_queue.clear();
      last_seq_v.clear();
      ack_owed_v.clear();
      abandoned = 0;
    }

    void drop_pending(NodeId to) {
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (pending[k].to == to) {
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
          return;
        }
      }
    }

    // Per-peer scalars kept as sparse pair-vectors: a node exchanges
    // tracked traffic with O(gap) ring neighbors, not with all N.
    std::uint64_t& last_seq(NodeId peer) { return sparse(peer, last_seq_v); }
    std::uint8_t& ack_owed(NodeId peer) { return sparse(peer, ack_owed_v); }

    template <class T>
    T& sparse(NodeId peer, std::vector<std::pair<NodeId, T>>& v) {
      for (auto& [id, val] : v)
        if (id == peer) return val;
      v.emplace_back(peer, T{});
      return v.back().second;
    }

    ReliableParams p{};
    NodeId self = kNoNode;
    std::uint64_t next_seq = 0;
    std::vector<Pending> pending;                        // oldest first
    std::vector<OwedAck> ack_queue;                      // owed acks
    std::vector<std::pair<NodeId, std::uint64_t>> last_seq_v;
    std::vector<std::pair<NodeId, std::uint8_t>> ack_owed_v;
    std::int64_t abandoned = 0;
  };

  template <class Ctx>
  Step rto(const Ctx& ctx) const {
    return st_->p.rto > 0 ? st_->p.rto
                          : 2 * ctx.logp().delivery_delay() + 2;
  }

  template <class Ctx>
  Step backoff(const Ctx& ctx, int attempt) const {
    const Step base = rto(ctx);
    Step b = base;
    for (int i = 0; i < attempt && b < st_->p.backoff_cap; ++i) b *= 2;
    return std::min(b, std::max(st_->p.backoff_cap, base));
  }

  std::unique_ptr<State> st_;
};

}  // namespace cg
