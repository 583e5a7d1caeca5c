// SBRB: sample-based Byzantine reliable broadcast (Murmur/Sieve/Contagion).
//
// The crash-model protocols in this directory (GOS/OCG/CCG/FCG) trust
// every message: a single equivocating sender splits them into two
// payload camps (tests/test_byzantine.cpp demonstrates this).  SBRB is
// the scalable Byzantine-tolerant counterpart from Guerraoui et al.'s
// "Scalable Byzantine Reliable Broadcast": instead of quorums over all N
// nodes, every node draws small random SAMPLES of size O(log N +
// log 1/eps) and decides from sample-local thresholds, giving consistency
// and totality with probability >= 1 - eps.  Three stacked layers:
//
//   * Murmur (dissemination): colored nodes push the payload to `g`
//     random peers - plain gossip, whp reaches every correct node;
//   * Sieve (consistency): each node subscribes to the Echo stream of an
//     `e`-sample.  A node echoes its FIRST candidate payload to its
//     subscribers; a candidate is "sieve-delivered" once >= E_hat sample
//     members echoed that same payload.  E_hat > e/2, so two conflicting
//     payloads cannot both pass anyone's sieve (whp over sample draws);
//   * Contagion (totality): sieve-delivery makes a node Ready; Ready
//     spreads through `r`-sample feedback (>= R_hat Readies make a node
//     Ready even without sieve-delivery) and a node DELIVERS once
//     >= D_hat of its `d`-sample is Ready - even a node the gossip never
//     reached adopts and delivers the sample-winning payload.
//
// Signature model (sim/fault/byzantine.hpp): payload digests with
// kForgedBit fail verification and are dropped on receive, so a
// non-root Byzantine node degrades to a crash fault here; the undetectable
// attack is a Byzantine ROOT equivocating between two validly signed
// payloads, which is exactly what the sample thresholds defend against.
// Consistency holds always; totality is only promised under a correct
// root (a splitting root can starve both camps below E_hat - then nobody
// delivers, which is the consistent outcome).
//
// Engine contract: nodes self-activate in on_start and dribble all
// traffic one message per tick, so the SendGate's one-emission-per-step
// invariant holds on every engine.  Nothing is copied into a send queue:
// sample subscriptions are a cursor into the node's own samples, and
// gossip/echo/Ready traffic is a few run descriptors over its subscriber
// list (SbrbNode's "staged sends" below).  Completion is a fixed deadline
// step - reached whether or not delivery happened - so runs terminate
// without a global convergence detector.
//
// Sample-generation determinism (docs/PERF.md §7): samples are computed
// by a splitmix64 stream keyed on (run seed, node, phase) via
// sbrb_fill_sample - they consume NOTHING from the node's trial RNG
// stream (which keeps feeding Murmur's gossip-target draws), and they
// come out SORTED, so binary-search membership rank and linear-scan
// position agree.
//
// SbrbNode is the production fast path: sorted flat sample arrays with
// binary-search membership, dense per-candidate counters, cursor-staged
// sends (no per-message storage; zero-alloc steady state), and the
// staged-send kernel contract the sharded engine batches on.  Its oracle
// is SbrbRefNode in tests/reference_sbrb.hpp - the stock Protocol-API
// implementation (linear scans, heap-allocated queues) sharing only
// sbrb_fill_sample, which is what makes their traces byte-identical;
// tests/test_sbrb_fastpath.cpp pins SbrbNode's traces byte-for-byte
// against it on both engines and across shard counts.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"
#include "sim/fault/byzantine.hpp"
#include "sim/logp.hpp"

namespace cg {

/// Sample sizes and thresholds for one SBRB configuration.  All sizes are
/// capped at 64 (per-candidate tallies are single uint64 bitmasks) and at
/// n-1 (samples exclude self).
struct SbrbSamples {
  int g = 0;  ///< Murmur gossip fanout
  int e = 0;  ///< Sieve echo-sample size
  int r = 0;  ///< Contagion ready-sample size (feedback)
  int d = 0;  ///< Contagion delivery-sample size
  int e_thresh = 0;  ///< E_hat: echoes required to sieve-deliver (> e/2)
  int r_thresh = 0;  ///< R_hat: Readies required to turn Ready by feedback
  int d_thresh = 0;  ///< D_hat: Readies required to deliver (> d/2)
};

/// Validate the user-facing SBRB knobs, config_error()-style (see
/// sim/fault/validate.hpp): returns an empty string when valid, else a
/// human-readable description of the first problem.
inline std::string sbrb_config_error(double eps, double byz_frac) {
  if (!(eps > 0.0) || !(eps < 1.0))
    return "sbrb_eps must be in (0, 1): got " + std::to_string(eps);
  if (!(byz_frac >= 0.0) || byz_frac >= 0.5)
    return "sbrb_byz_frac must be in [0, 0.5): got " +
           std::to_string(byz_frac);
  return {};
}

/// Derive sample sizes from the target failure probability eps and the
/// assumed Byzantine fraction.  Sizes grow as ln(n) + ln(1/eps) (the
/// paper's scaling); the consistency-critical thresholds sit a byz_frac
/// margin above a strict majority of their sample.
inline SbrbSamples sbrb_samples(NodeId n, double eps, double byz_frac) {
  CG_CHECK(n >= 1);
  const std::string err = sbrb_config_error(eps, byz_frac);
  CG_CHECK_MSG(err.empty(), err.c_str());
  SbrbSamples s;
  const int cap = static_cast<int>(std::min<NodeId>(n - 1, 64));
  if (cap < 1) return s;  // n == 1: no peers, nothing to sample
  const double base =
      std::log(static_cast<double>(n)) + std::log(1.0 / eps);
  const auto sized = [cap](double v, int lo) {
    return std::clamp(static_cast<int>(std::ceil(v)), std::min(lo, cap), cap);
  };
  s.g = sized(base, 3);
  s.e = sized(1.5 * base, 4);
  s.r = sized(1.5 * base, 4);
  s.d = sized(1.5 * base, 4);
  const auto margin = [byz_frac](int size) {
    return static_cast<int>(std::ceil(byz_frac * size));
  };
  s.e_thresh = std::min(s.e, s.e / 2 + 1 + margin(s.e));
  s.r_thresh = std::clamp(static_cast<int>(std::ceil(0.3 * s.r)), 1, s.r);
  s.d_thresh = std::min(s.d, s.d / 2 + 1 + margin(s.d));
  return s;
}

/// Completion deadline: generous bound on subscription dribble + a few
/// gossip/echo/ready round trips.  Protocol liveness does not depend on
/// it being tight - only termination does.
inline Step sbrb_deadline(const SbrbSamples& s, const LogP& p) {
  CG_CHECK(s.g >= 0 && s.e >= 0 && s.r >= 0 && s.d >= 0);
  return 4 * static_cast<Step>(s.g + s.e + s.r + s.d + 8) +
         24 * p.delivery_delay() + 32;
}

/// Fill out[0..k) with k DISTINCT node ids != self, SORTED ascending,
/// from a splitmix64 stream keyed on (seed, self, phase).  Phases 0/1/2
/// are the echo/ready/delivery samples; the draws never touch the node's
/// trial RNG stream, so samples can be (re)generated at any time without
/// perturbing protocol randomness.  Requires n >= k + 1.
inline void sbrb_fill_sample(std::uint64_t seed, NodeId self, NodeId n,
                             int phase, int k, NodeId* out) {
  if (k <= 0) return;
  CG_CHECK(n >= static_cast<NodeId>(k) + 1);
  SplitMix64 sm(derive_seed(
      derive_seed(seed, 0x5b9bull + static_cast<std::uint64_t>(phase)),
      static_cast<std::uint64_t>(self)));
  // Rejection depends only on SET MEMBERSHIP of the draw so far, so
  // collect-unsorted-then-sort accepts exactly the draws a maintain-
  // sorted-insert loop would (k <= 64: the linear dup scan is cheaper
  // than per-draw insertion shifting) and ends in the same sorted array.
  int cnt = 0;
  while (cnt < k) {
    auto t = static_cast<NodeId>(sm.next() %
                                 static_cast<std::uint64_t>(n - 1));
    if (t >= self) ++t;  // skip self (same mapping as Xoshiro256::other_node)
    bool dup = false;
    for (int j = 0; j < cnt; ++j) {
      if (out[j] == t) {
        dup = true;
        break;
      }
    }
    if (dup) continue;  // duplicate: redraw
    out[cnt++] = t;
  }
  // k <= 64 distinct ids: insertion sort beats the introsort call overhead
  // and yields the same ascending array (all values unique).
  for (int i = 1; i < k; ++i) {
    NodeId v = out[i];
    int j = i - 1;
    for (; j >= 0 && out[j] > v; --j) out[j + 1] = out[j];
    out[j + 1] = v;
  }
}

// ---------------------------------------------------------------------------
// SbrbNode - the production fast path
// ---------------------------------------------------------------------------

class SbrbNode {
 public:
  struct Params {
    SbrbSamples s{};
    Step deadline = 64;  ///< fixed completion step (see sbrb_deadline)
  };

  /// Samples are capped at 64 ids each (sbrb_samples).
  static constexpr int kMaxSample = 64;

  SbrbNode(const Params& p, NodeId self, NodeId n) {
    reset_for_run(p, self, n);
  }

  /// Capacity-preserving reset to the freshly-constructed state.  The
  /// engines' trial-reuse paths (SoaNodeStore::reset, restart revival)
  /// detect this method and call it instead of re-emplacing the node,
  /// which is what makes steady-state SBRB trials allocation-free
  /// (tests/test_trial_farm.cpp).
  void reset_for_run(const Params& p, NodeId self, NodeId n) {
    p_ = p;
    self_ = self;
    n_ = n;
    // Sample segments stay EMPTY until draw_samples() runs in on_start:
    // a restart-revived node never re-runs on_start, and its membership
    // checks must all miss (the reference node's fresh instance has empty
    // sample vectors - rank_in must agree with that, not read stale ids).
    r_off_ = 0;
    d_off_ = 0;
    s_end_ = 0;
    sub_next_ = 0;
    sub_skip_ = 0;
    subs_.clear();
    // A revived node keeps its trial RNG stream, from which the reference
    // drew every staged gossip target at staging time: targets staged but
    // never sent are owed to the stream (on_start clears the debt, since a
    // new run reseeds the stream).
    gossip_owed_ = static_cast<std::uint8_t>(gossip_owed_ + gossip_left_);
    gossip_left_ = 0;
    run_ = kRunIdle;
    at_pos_ = 0;
    run_end_ = 0;
    at_ev_ = 0;
    at_k_ = 0;
    run_mask_ = 0;
    run_colored_ = false;
    n_ev_ = 0;
    for (int k = 0; k < n_cands_; ++k) cands_[k] = Cand{};
    n_cands_ = 0;
    candidate_ = 0;
    sieve_delivered_ = false;
    delivered_ = false;
  }

  template <class Ctx>
  void on_start(Ctx& ctx) {
    ctx.activate();  // every node subscribes, so every node participates
    gossip_owed_ = 0;
    draw_samples(ctx.seed());
    if (ctx.is_root()) {
      candidate_ = kTruePayload;
      ctx.mark_colored();
      ctx.deliver();
      delivered_ = true;
      if (n_ == 1) {
        ctx.complete();
        return;
      }
      stage_event(ctx, kEvColored);
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    // Signature verification: forged digests (kForgedBit) never influence
    // state.  This single check is what reduces corruptors/spammers and
    // non-root equivocators to crash faults.
    if (m.payload != 0 && !payload_signed(m.payload)) return;
    switch (m.tag) {
      case Tag::kGossip: on_gossip(ctx, m); break;
      case Tag::kSbrbSubEcho: on_sub(static_cast<std::uint32_t>(m.src)); break;
      case Tag::kSbrbSubReady:
        on_sub(static_cast<std::uint32_t>(m.src) | kReadySub);
        break;
      case Tag::kSbrbEcho: on_echo(ctx, m.src, m.payload); break;
      case Tag::kSbrbReady: on_ready(ctx, m.src, m.payload); break;
      default: break;  // foreign traffic (cross-protocol tests) ignored
    }
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    const Step now = ctx.now();
    if (now >= p_.deadline) {
      ctx.complete();
      return;
    }
    if (sbrb_idle()) return;
    const auto [to, m] = sbrb_pop_staged(now, ctx.rng());
    ctx.send(to, m);
  }

  // --- staged-send kernel contract (sim/sharded_engine.hpp) ---------------
  // The sharded engine's SBRB step kernel replaces the per-node generic
  // tick sweep with a sweep over the dense pending-sends bitmap: nodes
  // with nothing staged cost nothing per step.  The contract relies on
  // the protocol properties above: all activation happens in on_start,
  // a tick before the deadline emits exactly the next staged message,
  // and completion happens only at the deadline tick.

  /// Nothing staged: a pre-deadline tick would be a no-op.
  bool sbrb_idle() const { return run_ == kRunIdle && sub_next_ >= s_end_; }

  /// Send the next staged message exactly as a pre-deadline on_tick would
  /// (urgent traffic before subscriptions), materializing the wire
  /// Message.  `rng` is the node's trial stream: gossip targets are drawn
  /// from it here, in the order the reference draws them when staging.
  /// Requires !sbrb_idle().
  std::pair<NodeId, Message> sbrb_pop_staged(Step now, Xoshiro256& rng) {
    Message m;
    m.time = now;
    NodeId to;
    if (run_ == kRunIdle) {  // subscriptions: the bulk cursor
      to = samples_[sub_next_];
      m.tag = sub_next_ < r_off_ ? Tag::kSbrbSubEcho : Tag::kSbrbSubReady;
      ++sub_next_;
      skip_subs();
      return {to, m};
    }
    if (run_ == kRunGossip) {
      --gossip_left_;
      to = rng.other_node(self_, n_);
      m.tag = Tag::kGossip;
      m.payload = candidate_;
    } else {
      const std::uint32_t s = subs_[at_pos_];
      to = static_cast<NodeId>(s & ~kReadySub);
      if ((s & kReadySub) == 0) {
        m.tag = Tag::kSbrbEcho;
        m.payload = candidate_;
        ++at_pos_;
      } else {
        m.tag = Tag::kSbrbReady;
        m.payload = cands_[at_k_].digest;
        ++at_k_;  // a subscriber may be owed one Ready per candidate
      }
    }
    settle();
    return {to, m};
  }

  /// Prefetch hints for the sharded engine's software-pipelined loops.
  /// Receives are latency-bound on a dependent-load chain (node header ->
  /// sample/subscriber data); issuing the second hop a couple of
  /// deliveries early overlaps it with the preceding handlers.  Pure
  /// reads - safe on any node in any state.
  void sbrb_prefetch(Tag t) const {
    const NodeId* const d = samples_.data();
    switch (t) {
      case Tag::kSbrbEcho:
        __builtin_prefetch(d);  // echo segment leads the flat array
        break;
      case Tag::kSbrbReady:
        __builtin_prefetch(d + r_off_);
        __builtin_prefetch(d + d_off_);
        break;
      case Tag::kSbrbSubEcho:
      case Tag::kSbrbSubReady:
        __builtin_prefetch(subs_.data());
        break;
      default:  // kGossip reads only the header line
        break;
    }
  }

  /// Companion hint for the staged-send sweep: the pop's dependent line is
  /// the subscriber or sample entry under the cursor.
  void sbrb_prefetch_pop() const {
    if (run_ == kRunIdle) {
      if (sub_next_ < s_end_) __builtin_prefetch(samples_.data() + sub_next_);
    } else if (run_ != kRunGossip) {
      __builtin_prefetch(subs_.data() + at_pos_);
    }
  }

  /// Heap this node owns, at capacity (EngineProfile::bytes_per_node).
  std::size_t heap_bytes() const {
    return samples_.capacity() * sizeof(NodeId) +
           subs_.capacity() * sizeof(std::uint32_t);
  }

  bool colored() const { return candidate_ != 0; }
  bool sieve_delivered() const { return sieve_delivered_; }
  bool delivered() const { return delivered_; }
  std::uint32_t candidate() const { return candidate_; }

 private:
  /// Per-candidate tallies.  Only validly signed digests get a slot, so
  /// two (kTruePayload + the root-equivocation kAltPayload) is the
  /// realistic maximum; the array guards the theoretical worst case.
  /// Masks dedup repeat votes per sample slot; the counters are the
  /// dense increment-on-new-vote mirrors the thresholds compare against.
  struct Cand {
    std::uint64_t echo_mask = 0;      ///< echoes seen, bit per e-sample rank
    std::uint64_t ready_mask = 0;     ///< Readies from the r-sample
    std::uint64_t delivery_mask = 0;  ///< Readies from the d-sample
    std::uint32_t digest = 0;
    std::uint8_t echo_cnt = 0;
    std::uint8_t ready_cnt = 0;
    std::uint8_t delivery_cnt = 0;
    bool ready = false;               ///< this node announced Ready(digest)
  };
  static_assert(sizeof(Cand) == 32);
  static constexpr int kMaxCandidates = 8;

  // --- staged sends ---------------------------------------------------------
  // The reference stages every message in a FIFO at the moment the
  // protocol decides to send it; SbrbNode derives the same sequence from
  // state it keeps anyway.
  //
  // Subscriptions (sent only when nothing urgent is staged) are a cursor,
  // sub_next_, into samples_: the echo segment sends kSbrbSubEcho, the
  // ready segment kSbrbSubReady, and the delivery segment kSbrbSubReady
  // except to members of the ready sample (bit per delivery rank in
  // sub_skip_, computed in on_start).
  //
  // Urgent traffic follows the subscriber list subs_, which holds every
  // subscription in arrival order (kReadySub marks a Ready one).  Each
  // state change is an EVENT recording subs_.size() at that moment:
  //   * coloring  - g gossip forwards, then an Echo to every earlier echo
  //                 subscriber (the echo fan-out);
  //   * candidate k turns Ready - a Ready(k) to every earlier Ready
  //                 subscriber.
  // Between events i and i+1, each new subscription is owed what the
  // state after event i owes it: an Echo if colored, one Ready per Ready
  // candidate.  So the FIFO is, per event: its fan-out run over
  // subs_[0, len_i), then the segment subs_[len_i, len_{i+1}) - at most
  // 1 + kMaxCandidates events, and no per-message storage.  Both kinds of
  // run are one walk over subs_ that owes each echo subscriber an Echo
  // when run_colored_ and each Ready subscriber one Ready per candidate
  // in run_mask_.  Gossip targets are drawn when sent: only gossip draws
  // from the node's RNG stream, so the draw order is the reference's.
  static constexpr std::uint32_t kReadySub = 0x8000'0000u;
  static constexpr unsigned kEvColored = 8;  ///< event kind; 0-7: Ready(k)
  static constexpr int kMaxEvents = 1 + kMaxCandidates;
  static constexpr std::uint32_t kLiveEnd = ~std::uint32_t{0};
  /// What the urgent cursor is walking.
  enum Run : std::uint8_t {
    kRunIdle,     ///< nothing urgent: parked at the live end of subs_
    kRunGossip,   ///< the coloring event's gossip forwards
    kRunFanout,   ///< subs_[at_pos_, run_end_) for event at_ev_ ...
    kRunSegment,  ///< ... then the subscriptions that arrived after it
  };

  /// Rank of x inside the sorted sample segment [lo, hi) of samples_,
  /// or -1 when absent.  The rank doubles as the candidate-mask bit
  /// index (identical to the reference's linear-scan position, because
  /// both walk the same sorted array).  Deliberately a branchless linear
  /// scan, not a binary search: segments are <= 64 cache-resident ids, so
  /// the compiler's vectorized compare beats lower_bound's serial
  /// data-dependent (mispredicting) branches - receives are the hot path.
  int rank_in(int lo, int hi, NodeId x) const {
    const NodeId* const d = samples_.data();
    int r = -1;
    for (int j = lo; j < hi; ++j) r = d[j] == x ? j - lo : r;
    return r;
  }

  void draw_samples(std::uint64_t seed) {
    const int r_off = p_.s.e;
    const int d_off = r_off + p_.s.r;
    const int s_end = d_off + p_.s.d;
    CG_CHECK(s_end <= 3 * kMaxSample);
    r_off_ = static_cast<std::uint8_t>(r_off);
    d_off_ = static_cast<std::uint8_t>(d_off);
    s_end_ = static_cast<std::uint8_t>(s_end);
    // Exact-size heap storage: resize() preserves capacity across
    // reset_for_run, so replayed trials stay allocation-free.
    if (static_cast<int>(samples_.size()) < s_end)
      samples_.resize(static_cast<std::size_t>(s_end));
    NodeId* const d = samples_.data();
    sbrb_fill_sample(seed, self_, n_, 0, p_.s.e, d);
    sbrb_fill_sample(seed, self_, n_, 1, p_.s.r, d + r_off);
    sbrb_fill_sample(seed, self_, n_, 2, p_.s.d, d + d_off);
    // Both segments are sorted: one merge pass finds the delivery members
    // that the ready subscription already covers.
    int a = r_off;
    for (int j = d_off; j < s_end; ++j) {
      while (a < d_off && d[a] < d[j]) ++a;
      if (a < d_off && d[a] == d[j]) sub_skip_ |= std::uint64_t{1} << (j - d_off);
    }
    skip_subs();
  }

  /// Advance the subscription cursor past skipped delivery members.
  void skip_subs() {
    while (sub_next_ < s_end_ && sub_next_ >= d_off_ &&
           ((sub_skip_ >> (sub_next_ - d_off_)) & 1) != 0)
      ++sub_next_;
  }

  Cand* slot_for(std::uint32_t digest) {
    for (int k = 0; k < n_cands_; ++k)
      if (cands_[k].digest == digest) return &cands_[k];
    if (n_cands_ >= kMaxCandidates) return nullptr;
    cands_[n_cands_].digest = digest;
    return &cands_[n_cands_++];
  }

  /// Record a state change (kEvColored, or k for candidate k turning
  /// Ready) and, if the cursor was parked, start on its fan-out.
  template <class Ctx>
  void stage_event(Ctx& ctx, unsigned kind) {
    const auto len = static_cast<std::uint32_t>(subs_.size());
    CG_CHECK(n_ev_ < kMaxEvents && len < (std::uint32_t{1} << 28));
    if (kind == kEvColored) {
      // Settle the draws a revived node's reference self already made.
      for (; gossip_owed_ > 0; --gossip_owed_)
        (void)ctx.rng().other_node(self_, n_);
      gossip_left_ = static_cast<std::uint8_t>(p_.s.g);
    }
    ev_[n_ev_++] = len << 4 | kind;
    if (run_ == kRunSegment && run_end_ == kLiveEnd) run_end_ = len;
    if (run_ == kRunIdle) {
      open_event(n_ev_ - 1);
      settle();
    }
  }

  void open_event(int i) {
    at_ev_ = static_cast<std::uint8_t>(i);
    if ((ev_[i] & 0xF) == kEvColored)
      run_ = kRunGossip;
    else
      open_run(kRunFanout);
  }

  /// Start event at_ev_'s fan-out, or the segment after it with the state
  /// every event up to it left.
  void open_run(Run r) {
    const std::uint32_t ev = ev_[at_ev_];
    run_ = r;
    at_k_ = 0;
    run_colored_ = false;
    run_mask_ = 0;
    for (int j = r == kRunFanout ? at_ev_ : 0; j <= at_ev_; ++j) {
      const unsigned kind = ev_[j] & 0xF;
      if (kind == kEvColored)
        run_colored_ = true;
      else
        run_mask_ = static_cast<std::uint8_t>(run_mask_ | 1u << kind);
    }
    if (r == kRunFanout) {
      at_pos_ = 0;
      run_end_ = ev >> 4;
    } else {
      at_pos_ = ev >> 4;
      run_end_ = at_ev_ + 1 < n_ev_ ? ev_[at_ev_ + 1] >> 4 : kLiveEnd;
    }
  }

  /// Move the cursor onto the next message owed, or park it (kRunIdle)
  /// at the live end of subs_ when nothing is.
  void settle() {
    while (run_ != kRunIdle) {
      if (run_ == kRunGossip) {
        if (gossip_left_ > 0) return;
        open_run(kRunFanout);
        continue;
      }
      const std::uint32_t end =
          run_end_ == kLiveEnd ? static_cast<std::uint32_t>(subs_.size())
                               : run_end_;
      for (; at_pos_ < end; ++at_pos_, at_k_ = 0) {
        if ((subs_[at_pos_] & kReadySub) == 0) {
          if (run_colored_) return;
        } else if (const unsigned rest = run_mask_ >> at_k_; rest != 0) {
          at_k_ = static_cast<std::uint8_t>(at_k_ + std::countr_zero(rest));
          return;
        }
      }
      if (run_ == kRunFanout)
        open_run(kRunSegment);
      else if (run_end_ == kLiveEnd)
        run_ = kRunIdle;
      else
        open_event(at_ev_ + 1);
    }
  }

  /// Adopt `digest` as this node's one-and-only candidate: forward it to
  /// the gossip fanout and echo it to everyone sampling us.
  template <class Ctx>
  void become_colored(Ctx& ctx, std::uint32_t digest) {
    candidate_ = digest;
    ctx.mark_colored();
    stage_event(ctx, kEvColored);
  }

  template <class Ctx>
  void on_gossip(Ctx& ctx, const Message& m) {
    if (candidate_ != 0 || m.payload == 0) return;  // first candidate wins
    become_colored(ctx, m.payload);
  }

  /// A node subscribes to our Echo (or Ready) stream: remember it, and
  /// replay what we already announced (the cursor decides what that is).
  void on_sub(std::uint32_t key) {
    if (std::find(subs_.begin(), subs_.end(), key) != subs_.end()) return;
    subs_.push_back(key);
    if (run_ == kRunIdle && n_ev_ > 0) {
      run_ = kRunSegment;  // parked at this entry, in the live segment
      settle();
    }
  }

  template <class Ctx>
  void on_echo(Ctx& ctx, NodeId src, std::uint32_t payload) {
    const int idx = rank_in(0, r_off_, src);
    if (idx < 0 || payload == 0) return;  // not in our sample: no vote
    Cand* const c = slot_for(payload);
    if (c == nullptr) return;
    const std::uint64_t bit = std::uint64_t{1} << idx;
    if ((c->echo_mask & bit) == 0) {
      c->echo_mask |= bit;
      ++c->echo_cnt;
    }
    if (!sieve_delivered_ && payload == candidate_ &&
        c->echo_cnt >= p_.s.e_thresh) {
      sieve_delivered_ = true;  // Sieve consistency gate passed
      become_ready(ctx, *c);
    }
  }

  template <class Ctx>
  void become_ready(Ctx& ctx, Cand& c) {
    if (c.ready) return;
    c.ready = true;
    stage_event(ctx, static_cast<unsigned>(&c - cands_));
  }

  template <class Ctx>
  void on_ready(Ctx& ctx, NodeId src, std::uint32_t payload) {
    if (payload == 0) return;
    Cand* const c = slot_for(payload);
    if (c == nullptr) return;
    const int ri = rank_in(r_off_, d_off_, src);
    if (ri >= 0) {
      const std::uint64_t bit = std::uint64_t{1} << ri;
      if ((c->ready_mask & bit) == 0) {
        c->ready_mask |= bit;
        ++c->ready_cnt;
      }
    }
    const int di = rank_in(d_off_, s_end_, src);
    if (di >= 0) {
      const std::uint64_t bit = std::uint64_t{1} << di;
      if ((c->delivery_mask & bit) == 0) {
        c->delivery_mask |= bit;
        ++c->delivery_cnt;
      }
    }
    // Contagion feedback: enough sample Readies make us Ready too, even
    // without sieve-delivery (this is what spreads Ready to nodes whose
    // own sieve starved).
    if (!c->ready && c->ready_cnt >= p_.s.r_thresh) become_ready(ctx, *c);
    // Delivery: a majority-with-margin of the delivery sample is Ready.
    if (!delivered_ && c->delivery_cnt >= p_.s.d_thresh) {
      delivered_ = true;
      if (candidate_ == 0) {
        // Gossip never reached us: adopt the sample-winning payload.
        become_colored(ctx, payload);
      }
      ctx.adopt_payload(payload);  // deliver the sample winner, always
      ctx.deliver();
    }
  }

  // Field order is deliberate: a receive's dependent-load chain starts at
  // the node's FIRST line - the samples_ vector header leads, so its data
  // pointer, the segment offsets and the candidate word are available
  // from one line fill, with the thresholds (p_) and the subscriber list
  // header on the second and the first candidate's tallies on the third.
  // The dispatch loops prefetch the first two lines a few deliveries
  // ahead, which turns the 2-3 serial misses per receive of the naive
  // layout into ~one (docs/PERF.md §7).  The staged-send cursor sits on
  // the first line too, so a send touches the header lines and the one
  // sample or subscriber entry it names.  The exact-size heap sample
  // array (vs an inline 3*kMaxSample array) also cuts the per-node
  // footprint ~4x.
  //
  // Sorted flat sample storage: samples_[0, r_off_) echo,
  // [r_off_, d_off_) ready, [d_off_, s_end_) delivery.
  std::vector<NodeId> samples_;
  std::uint32_t candidate_ = 0;  // first payload adopted (0 = uncolored)
  std::uint8_t n_cands_ = 0;
  bool sieve_delivered_ = false;
  bool delivered_ = false;
  std::uint8_t sub_next_ = 0;  // subscription cursor into samples_
  std::uint8_t r_off_ = 0;
  std::uint8_t d_off_ = 0;
  std::uint8_t s_end_ = 0;
  Run run_ = kRunIdle;  // urgent cursor: current run ...
  NodeId self_ = 0;
  NodeId n_ = 1;
  std::uint32_t at_pos_ = 0;   // ... its position in subs_ ...
  std::uint32_t run_end_ = 0;  // ... and end (kLiveEnd: subs_.size())
  std::uint8_t at_ev_ = 0;      // event the cursor is in
  std::uint8_t at_k_ = 0;       // candidate slot of the next Ready
  std::uint8_t run_mask_ = 0;   // Ready candidates owed per Ready subscriber
  bool run_colored_ = false;    // an Echo is owed per echo subscriber
  std::uint8_t n_ev_ = 0;
  std::uint8_t gossip_left_ = 0;  // gossip forwards not yet sent
  std::uint8_t gossip_owed_ = 0;  // see reset_for_run
  Params p_;
  std::vector<std::uint32_t> subs_;  // subscribers, arrival order
  Cand cands_[kMaxCandidates]{};
  std::uint64_t sub_skip_ = 0;            // see "staged sends"
  std::uint32_t ev_[kMaxEvents]{};        // len << 4 | kind, in order
};

}  // namespace cg
