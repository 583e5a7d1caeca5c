// Delivery-effect model shared by every execution engine.
//
// NetworkModel owns everything that happens to a message between send and
// receive: the LogP base delay (L/O + 1), uniform per-message jitter,
// deterministic per-link extra latency, i.i.d. message loss, and the fault
// models from src/sim/fault/ (Gilbert-Elliott burst loss, straggler send
// slowdown, transient partitions).  Loss, jitter and the burst chain each
// draw from a DEDICATED per-sender RNG stream, and a sender's messages are
// routed in program order on every engine, so the fate of each message is
// bit-identical across the stepped and sharded engines (and across shard
// counts) for a given seed.  See docs/FAULTS.md for the full
// determinism/parity contract.
//
// Thread-safety contract (sharded engine): route(from, ...) mutates only
// the sender's streams and chain state, and node `from`'s callbacks run
// only on its owner shard, so concurrent route() calls for different
// senders never race.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"
#include "sim/core/run_config.hpp"
#include "sim/metrics.hpp"

namespace cg {

class NetworkModel {
 public:
  /// route() result for a message lost on the wire.
  static constexpr Step kLost = -1;

  void reset(const RunConfig& cfg) {
    base_delay_ = cfg.logp.delivery_delay();
    jitter_max_ = cfg.jitter_max;
    link_extra_ = cfg.link_extra;
    link_extra_max_ = cfg.link_extra_max;
    // drop_prob == 1.0 is legal (blackhole links); range errors are caught
    // by cg::config_error() before the engine runs.
    drop_prob_ = cfg.drop_prob;
    burst_ = cfg.burst;
    const auto n = static_cast<std::size_t>(cfg.n);
    jitter_rng_.clear();
    if (jitter_max_ > 0) {
      jitter_rng_.reserve(n);
      for (NodeId i = 0; i < cfg.n; ++i)
        jitter_rng_.emplace_back(derive_seed(
            cfg.seed, static_cast<std::uint64_t>(i) + kJitterStream));
    }
    loss_rng_.clear();
    if (drop_prob_ > 0.0) {
      loss_rng_.reserve(n);
      for (NodeId i = 0; i < cfg.n; ++i)
        loss_rng_.emplace_back(derive_seed(
            cfg.seed, static_cast<std::uint64_t>(i) + kLossStream));
    }
    burst_rng_.clear();
    burst_bad_.clear();
    burst_step_.clear();
    if (burst_.enabled()) {
      burst_rng_.reserve(n);
      for (NodeId i = 0; i < cfg.n; ++i)
        burst_rng_.emplace_back(derive_seed(
            cfg.seed, static_cast<std::uint64_t>(i) + kBurstStream));
      burst_bad_.assign(n, 0);   // every channel starts in the good state
      burst_step_.assign(n, 0);  // chains are advanced lazily on route()
    }
    factor_.clear();
    max_factor_ = 1;
    if (!cfg.stragglers.empty()) {
      factor_.assign(n, 1);
      for (const auto& s : cfg.stragglers) {
        factor_[static_cast<std::size_t>(s.node)] = s.factor;
        max_factor_ = std::max(max_factor_, s.factor);
      }
    }
    partitions_.clear();
    for (const auto& pw : cfg.partitions) {
      PartitionMask pm;
      pm.from = pw.from;
      pm.until = pw.until;
      pm.inside.assign(n, 0);
      for (const NodeId i : pw.members)
        pm.inside[static_cast<std::size_t>(i)] = 1;
      partitions_.push_back(std::move(pm));
    }
  }

  /// Decide the fate of one message emitted at step `now`: kLost if it is
  /// dropped, otherwise the absolute delivery step.  Loss checks run in a
  /// fixed order - partitions (no RNG), then the i.i.d. loss stream, then
  /// the burst chain - and a sender's streams are consumed in program
  /// order, so the outcome is identical on every engine.
  Step route(NodeId from, NodeId to, Step now) {
    for (const auto& pm : partitions_)
      if (now >= pm.from && now < pm.until &&
          pm.inside[static_cast<std::size_t>(from)] !=
              pm.inside[static_cast<std::size_t>(to)])
        return kLost;
    if (drop_prob_ > 0.0 &&
        loss_rng_[static_cast<std::size_t>(from)].uniform01() < drop_prob_)
      return kLost;
    if (burst_.enabled() && burst_lost(from, now)) return kLost;
    Step at = now + base_delay_ * send_factor(from);
    if (jitter_max_ > 0)
      at += jitter_rng_[static_cast<std::size_t>(from)].uniform(0, jitter_max_);
    if (link_extra_) {
      const Step extra = link_extra_(from, to);
      CG_CHECK(extra >= 0 && extra <= link_extra_max_);
      at += extra;
    }
    return at;
  }

  /// Upper bound on send-to-delivery delay (delivery-calendar ring sizing).
  Step max_delay() const {
    return base_delay_ * max_factor_ + jitter_max_ + link_extra_max_;
  }

  /// Straggler slowdown factor for a node's sends (1 = normal).
  Step send_factor(NodeId i) const {
    return factor_.empty() ? 1 : factor_[static_cast<std::size_t>(i)];
  }

 private:
  struct PartitionMask {
    Step from = 0;
    Step until = 0;
    std::vector<std::uint8_t> inside;  // membership byte per node
  };

  /// Advance the sender's Gilbert-Elliott chain to `now` (one transition
  /// draw per elapsed step - the chain lives in step time, not message
  /// time, so a backed-off retransmit really can escape a burst) and draw
  /// this message's fate from the resulting state.
  bool burst_lost(NodeId from, Step now) {
    const auto idx = static_cast<std::size_t>(from);
    auto& rng = burst_rng_[idx];
    auto& bad = burst_bad_[idx];
    for (Step& last = burst_step_[idx]; last < now; ++last) {
      const double p = bad != 0 ? burst_.p_bad_good : burst_.p_good_bad;
      if (rng.uniform01() < p) bad ^= 1;
    }
    const double loss = bad != 0 ? burst_.loss_bad : burst_.loss_good;
    return loss > 0.0 && rng.uniform01() < loss;
  }

  // Stream-derivation offsets (kept from the original engines so seeds keep
  // producing the same runs).
  static constexpr std::uint64_t kJitterStream = 0x4A17E500000000ULL;
  static constexpr std::uint64_t kLossStream = 0x10550000000000ULL;
  static constexpr std::uint64_t kBurstStream = 0x6E11B370000000ULL;

  Step base_delay_ = 1;
  Step jitter_max_ = 0;
  std::function<Step(NodeId, NodeId)> link_extra_;
  Step link_extra_max_ = 0;
  double drop_prob_ = 0.0;
  BurstLoss burst_{};
  std::vector<Xoshiro256> jitter_rng_;
  std::vector<Xoshiro256> loss_rng_;
  std::vector<Xoshiro256> burst_rng_;
  std::vector<std::uint8_t> burst_bad_;  // chain state per sender (0 = good)
  std::vector<Step> burst_step_;         // step the chain was advanced to
  std::vector<Step> factor_;             // straggler factors (empty = all 1)
  Step max_factor_ = 1;
  std::vector<PartitionMask> partitions_;
};

/// Per-tag message-work accounting, identical across engines (the serial
/// engine's convention is canonical: pull requests count as gossip work,
/// tree/ack/nack as tree work).  The sharded engine keeps one instance per
/// shard and merges at the end of the run.
struct MessageCounts {
  std::int64_t total = 0;
  std::int64_t gossip = 0;
  std::int64_t correction = 0;
  std::int64_t sos = 0;
  std::int64_t tree = 0;
  std::int64_t retrans = 0;  ///< reliable-sublayer retransmissions
  std::int64_t dropped = 0;  ///< protocol backpressure drops (not sends)
  std::int64_t sbrb = 0;     ///< SBRB subscribe/echo/ready messages
  std::int64_t forged = 0;       ///< Byzantine-rewritten sends (on the wire)
  std::int64_t equivocated = 0;  ///< Byzantine alternate-digest sends
  std::int64_t suppressed = 0;   ///< sends a silent adversary swallowed

  void add(const Message& m) {
    ++total;
    if (m.retrans != 0) ++retrans;
    switch (m.tag) {
      case Tag::kGossip:
      case Tag::kPullReq: ++gossip; break;
      case Tag::kOcgCorr:
      case Tag::kFwd:
      case Tag::kBwd: ++correction; break;
      case Tag::kSos: ++sos; break;
      case Tag::kTree:
      case Tag::kNack:
      case Tag::kAck: ++tree; break;
      case Tag::kSbrbSubEcho:
      case Tag::kSbrbSubReady:
      case Tag::kSbrbEcho:
      case Tag::kSbrbReady: ++sbrb; break;
    }
  }

  void add_dropped() { ++dropped; }
  void add_forged() { ++forged; }
  void add_equivocated() { ++equivocated; }
  void add_suppressed() { ++suppressed; }

  void merge_into(RunMetrics& m) const {
    m.msgs_total += total;
    m.msgs_gossip += gossip;
    m.msgs_correction += correction;
    m.msgs_sos += sos;
    m.msgs_tree += tree;
    m.msgs_retrans += retrans;
    m.msgs_dropped += dropped;
    m.msgs_sbrb += sbrb;
    m.msgs_forged += forged;
    m.msgs_equivocated += equivocated;
    m.msgs_suppressed += suppressed;
  }
};

/// Canonical processing order for messages arriving at the same node in the
/// same step under RxPolicy::kOnePerStep.  Engines enqueue same-step
/// arrivals in this order (a node sends at most once per step, so `src`
/// almost always decides; the remaining comparisons make the order total on
/// message CONTENT - under jitter one sender's messages from different
/// steps can share an arrival step), which makes "which message is deferred
/// to the next step" identical across engines regardless of internal
/// scheduling.  Fully identical messages are interchangeable.
inline bool rx_order_before(const Message& a, const Message& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.tag != b.tag) return a.tag < b.tag;
  if (a.time != b.time) return a.time < b.time;
  if (a.known_count != b.known_count) return a.known_count < b.known_count;
  for (std::uint8_t i = 0; i < a.known_count; ++i)
    if (a.known[i] != b.known[i]) return a.known[i] < b.known[i];
  // Payload digest last: only an equivocating sender can put two
  // otherwise-identical messages with different digests in flight, so this
  // tiebreak is a no-op in every non-Byzantine run.
  return a.payload < b.payload;
}

}  // namespace cg
