// Multi-broadcast bookkeeping per the paper's Claim 1: in a system issuing
// many broadcasts, integrity (I) and no-duplicates (II) are obtained by
// counting broadcasts per root - "the initiating root node can increment
// this counter before calling bcast() and each message can carry this
// counter.  Each node can keep a received-bcast counter, c[i], per
// root-node i, then discard all messages with root-node i and a counter
// smaller or equal than c[i].  When new nodes join, they should run a
// special protocol to reset their c[i] for all active nodes."
//
// BroadcastFilter is that per-node state machine; BroadcastStamp is what a
// root attaches to each outgoing broadcast.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace cg {

/// (root, sequence) identity of one broadcast instance.
struct BroadcastStamp {
  NodeId root = kNoNode;
  std::uint64_t sequence = 0;  ///< per-root counter, starts at 1

  friend bool operator==(const BroadcastStamp&, const BroadcastStamp&) =
      default;
};

/// Root-side counter: stamps successive bcast() calls.
class BroadcastCounter {
 public:
  explicit BroadcastCounter(NodeId self) : self_(self) {}

  /// Stamp for the next broadcast this root initiates.
  BroadcastStamp next() { return {self_, ++count_}; }

  std::uint64_t issued() const { return count_; }

 private:
  NodeId self_;
  std::uint64_t count_ = 0;
};

/// Receiver-side filter: accepts each (root, sequence) exactly once and
/// discards replays and stragglers of delivered broadcasts.
class BroadcastFilter {
 public:
  explicit BroadcastFilter(NodeId n)
      : delivered_(static_cast<std::size_t>(n), 0) {
    CG_CHECK(n >= 1);
  }

  /// True exactly once per broadcast: the first time this stamp (or a
  /// NEWER one from the same root, which supersedes the older) is seen.
  /// Per Claim 1, anything with sequence <= c[root] is discarded.
  bool accept(const BroadcastStamp& stamp) {
    CG_CHECK(stamp.root >= 0 &&
             stamp.root < static_cast<NodeId>(delivered_.size()));
    auto& c = delivered_[static_cast<std::size_t>(stamp.root)];
    if (stamp.sequence <= c) return false;
    c = stamp.sequence;
    return true;
  }

  /// Would `accept` return true, without consuming it?
  bool fresh(const BroadcastStamp& stamp) const {
    return stamp.sequence >
           delivered_[static_cast<std::size_t>(stamp.root)];
  }

  /// Highest sequence delivered from `root`.
  std::uint64_t last_from(NodeId root) const {
    return delivered_[static_cast<std::size_t>(root)];
  }

  /// The paper's join protocol: a (re)joining node resets its counters to
  /// the values reported by active nodes, so it never re-delivers old
  /// broadcasts it may observe in flight.
  void reset_from(const BroadcastFilter& active_peer) {
    delivered_ = active_peer.delivered_;
  }

  /// Heap held by the per-root counters.
  std::size_t heap_bytes() const {
    return delivered_.capacity() * sizeof(std::uint64_t);
  }

  /// Explicit counter injection (e.g., from a state snapshot).
  void reset_counter(NodeId root, std::uint64_t sequence) {
    delivered_[static_cast<std::size_t>(root)] = sequence;
  }

 private:
  std::vector<std::uint64_t> delivered_;
};

}  // namespace cg
