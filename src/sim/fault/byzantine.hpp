// Byzantine adversary tier: nodes that lie instead of merely dying
// (docs/FAULTS.md "Byzantine tier").  A Byzantine node still runs the
// honest protocol code; the adversary sits between the node and the wire
// and rewrites what it sends.  Four roles:
//
//   * silent      - sends nothing at all (a crash the membership never
//                   detects: the node keeps receiving and occupying its
//                   ring position);
//   * equivocator - payload-bearing sends carry payload A to one
//                   hash-selected half of destinations and payload B to
//                   the other half.  Only the broadcast SOURCE can sign
//                   two payloads, so a Byzantine root equivocates with a
//                   *signed* alternate (kAltPayload) while a non-root
//                   equivocator's alternate carries kForgedBit;
//   * corruptor   - flips the payload/SOS content of every send to a
//                   per-(sender,dest,step) forged digest (kForgedBit);
//   * spammer     - rewrites each of its sends into an unsolicited forged
//                   gossip ("colored") message to a hash-chosen victim.
//
// Signature model: payloads are digests (Message::payload).  Only
// kTruePayload and kAltPayload are "validly signed by the source"; the
// adversary's digests carry kForgedBit, a signature failure that
// authenticated protocols (SBRB, src/gossip/sbrb.hpp) detect and drop,
// while the crash-model gossip family accepts it.
//
// Determinism: every adversary decision is a pure splitmix64 hash of
// (seed, from, to, step, tag) - no RNG stream is consumed - so Byzantine
// runs stay byte-identical across all four engines, shard counts and
// thread counts, and adding Byzantine nodes never perturbs the existing
// failure/straggler/partition draws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/huge_pages.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"

namespace cg {

/// Adversary role of one Byzantine node.
enum class ByzMode : std::uint8_t {
  kSilent = 0,
  kEquivocator,
  kCorruptor,
  kSpammer,
};

/// Number of ByzMode values (for parsing / counter arrays).
inline constexpr int kByzModeCount = 4;

constexpr const char* byz_mode_name(ByzMode m) {
  switch (m) {
    case ByzMode::kSilent: return "silent";
    case ByzMode::kEquivocator: return "equivocator";
    case ByzMode::kCorruptor: return "corruptor";
    case ByzMode::kSpammer: return "spammer";
  }
  return "?";
}

/// Shared --byz-mode parsing (mirrors engine_from_name); returns false for
/// unknown names.
constexpr bool byz_mode_from_name(std::string_view name, ByzMode& out) {
  for (int m = 0; m < kByzModeCount; ++m) {
    const auto mode = static_cast<ByzMode>(m);
    if (name == byz_mode_name(mode)) {
      out = mode;
      return true;
    }
  }
  return false;
}

/// For error messages: "silent|equivocator|corruptor|spammer".
constexpr const char* byz_mode_names_list() {
  return "silent|equivocator|corruptor|spammer";
}

/// Payload digests (Message::payload).  0 means "not carrying a payload".
inline constexpr std::uint32_t kTruePayload = 1;  ///< the root's real payload
/// The second validly-signed payload an equivocating ROOT broadcasts.
inline constexpr std::uint32_t kAltPayload = 2;
/// Set on digests no honest signature could have produced.
inline constexpr std::uint32_t kForgedBit = 0x8000'0000u;

/// Every digest a valid source signature produces: the root signs its
/// payload and, when it equivocates, the alternate.  Nothing else does.
inline constexpr std::uint32_t kSignedPayloads[] = {kTruePayload, kAltPayload};

/// True when `d` carries a valid source signature.  Authenticated
/// protocols drop unsigned payloads at receive; the crash-model gossip
/// family never checks.
constexpr bool payload_signed(std::uint32_t d) {
  return std::ranges::count(kSignedPayloads, d) != 0;
}

/// One Byzantine node with its role.
struct ByzantineNode {
  NodeId node = kNoNode;
  ByzMode mode = ByzMode::kSilent;
};

/// The per-run Byzantine schedule (RunConfig::byzantine), FailureSchedule-
/// style: explicit node list, validated by config_error() (in range, no
/// duplicates, disjoint from the crash/restart sets, root excluded unless
/// explicitly configured).
struct ByzantineFaults {
  std::vector<ByzantineNode> nodes;

  bool empty() const { return nodes.empty(); }

  /// Sample `count` distinct Byzantine nodes, all with role `mode`.  The
  /// root is excluded unless `root_can_be_byz` (an equivocating root is
  /// the canonical consistency attack - opt in deliberately).
  static ByzantineFaults random(NodeId n, int count, ByzMode mode,
                                Xoshiro256& rng, NodeId root = 0,
                                bool root_can_be_byz = false) {
    ByzantineFaults out;
    if (count <= 0 || n <= 0) return out;
    std::vector<std::uint8_t> taken(static_cast<std::size_t>(n), 0);
    if (!root_can_be_byz && root >= 0 && root < n) taken[root] = 1;
    for (int k = 0; k < count; ++k) {
      NodeId pick = kNoNode;
      for (int tries = 0; tries < 16 * n; ++tries) {
        const NodeId cand = static_cast<NodeId>(rng.bounded(
            static_cast<std::uint64_t>(n)));
        if (!taken[cand]) {
          pick = cand;
          break;
        }
      }
      if (pick == kNoNode) break;  // set exhausted
      taken[pick] = 1;
      out.nodes.push_back({pick, mode});
    }
    return out;
  }
};

/// What the adversary did to one send (drives trace events + counters).
enum class ByzAction : std::uint8_t {
  kHonest,       ///< message passed through unchanged
  kSuppressed,   ///< message silently dropped at the sender
  kEquivocated,  ///< payload replaced by the sender's alternate digest
  kForged,       ///< payload (and possibly tag/destination) forged
};

/// The engine-side transform hook.  reset() from a RunConfig, then call
/// transform() inside do_send for every outgoing message.  Stateless per
/// message (pure hash decisions), hence trivially thread-safe and
/// identical across engines.
class ByzantineModel {
 public:
  void reset(NodeId n, NodeId root, std::uint64_t seed,
             const ByzantineFaults& faults) {
    n_ = n;
    root_ = root;
    salt_ = derive_seed(seed, 0xb12a);
    role_.assign(static_cast<std::size_t>(n), 0);
    for (const auto& b : faults.nodes)
      if (b.node >= 0 && b.node < n)
        role_[b.node] = static_cast<std::uint8_t>(b.mode) + 1;
    any_ = !faults.nodes.empty();
  }

  bool any() const { return any_; }
  bool is_byzantine(NodeId i) const { return any_ && role_[i] != 0; }

  /// Apply the sender's role to an outgoing message.  May rewrite the
  /// payload, tag and destination.  Call BEFORE the engine routes/owns the
  /// destination (the spammer redirects), AFTER the true payload digest
  /// has been stamped.
  ByzAction transform(NodeId from, NodeId& to, Message& m, Step now) const {
    if (!any_ || role_[from] == 0) return ByzAction::kHonest;
    const auto mode = static_cast<ByzMode>(role_[from] - 1);
    switch (mode) {
      case ByzMode::kSilent:
        return ByzAction::kSuppressed;
      case ByzMode::kEquivocator: {
        // Only payload-bearing sends can equivocate; control messages
        // (acks, pull requests from uncolored nodes) pass through.
        if (m.payload == 0) return ByzAction::kHonest;
        if ((decide(from, to, now, m.tag) & 1) == 0) return ByzAction::kHonest;
        m.payload = from == root_ ? kAltPayload : alt_digest(from);
        return ByzAction::kEquivocated;
      }
      case ByzMode::kCorruptor: {
        if (m.payload == 0) return ByzAction::kHonest;
        m.payload = forged_digest(from, to, now);
        return ByzAction::kForged;
      }
      case ByzMode::kSpammer: {
        // Unsolicited "colored" gossip to a hash-chosen victim.
        if (n_ > 1) {
          const NodeId victim = static_cast<NodeId>(
              decide(from, to, now, m.tag) % static_cast<std::uint64_t>(n_));
          if (victim != from) to = victim;
        }
        m.tag = Tag::kGossip;
        m.time = now;
        m.known_count = 0;
        m.payload = forged_digest(from, to, now);
        return ByzAction::kForged;
      }
    }
    return ByzAction::kHonest;
  }

 private:
  std::uint64_t decide(NodeId from, NodeId to, Step now, Tag tag) const {
    SplitMix64 sm(salt_ ^ (static_cast<std::uint64_t>(from) << 40) ^
                  (static_cast<std::uint64_t>(to) << 16) ^
                  (static_cast<std::uint64_t>(now) << 24) ^
                  static_cast<std::uint64_t>(tag));
    sm.next();
    return sm.next();
  }

  /// A non-root equivocator cannot sign, so its alternate is forged.
  std::uint32_t alt_digest(NodeId from) const {
    SplitMix64 sm(salt_ ^ 0xe41u ^ static_cast<std::uint64_t>(from));
    return static_cast<std::uint32_t>(sm.next()) | kForgedBit;
  }

  std::uint32_t forged_digest(NodeId from, NodeId to, Step now) const {
    return static_cast<std::uint32_t>(decide(from, to, now, Tag::kGossip)) |
           kForgedBit;
  }

  NodeArray<std::uint8_t> role_;
  std::uint64_t salt_ = 0;
  NodeId n_ = 0;
  NodeId root_ = 0;
  bool any_ = false;
};

}  // namespace cg
