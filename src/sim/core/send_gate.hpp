// One-emission-per-node-per-step enforcement (the LogP overhead O charged
// per message; DESIGN.md Section 2, rule R1).
//
// Keeps one last-send step per node, so the check holds no matter how many
// nodes interleave their sends within a step.  (The previous engine kept a
// single global (node, step) slot that only remembered the LAST sender: a
// node sending twice in one step escaped detection whenever another node's
// send landed in between.)
//
// Thread-safety contract (sharded engine): on_send(from, ...) touches only
// the sender's slot, and node `from`'s callbacks run only on its owner
// shard.
#pragma once

#include "common/check.hpp"
#include "common/huge_pages.hpp"
#include "common/types.hpp"

namespace cg {

class SendGate {
 public:
  void reset(NodeId n) {
    last_send_.assign(static_cast<std::size_t>(n), kNeverSent);
  }

  /// Record an emission by `from` at step `now`; aborts on a second emission
  /// in the same step.
  void on_send(NodeId from, Step now) {
    auto& last = last_send_[static_cast<std::size_t>(from)];
    CG_CHECK_MSG(last != now, "protocol emitted >1 message in one step");
    last = now;
  }

 private:
  static constexpr Step kNeverSent = -1;  // valid steps are >= 0

  NodeArray<Step> last_send_;
};

}  // namespace cg
