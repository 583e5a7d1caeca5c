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
// traffic one message per tick through two FIFO queues (urgent:
// gossip/echo/ready; bulk: sample subscriptions), so the SendGate's
// one-emission-per-step invariant holds on every engine.  Completion is a
// fixed deadline step - reached whether or not delivery happened - so
// runs terminate without a global convergence detector.
//
// Sample-generation determinism (docs/PERF.md §7): samples are computed
// by a splitmix64 stream keyed on (run seed, node, phase) via
// sbrb_fill_sample - they consume NOTHING from the node's trial RNG
// stream (which keeps feeding Murmur's gossip-target draws), and they
// come out SORTED, so binary-search membership rank and linear-scan
// position agree.
//
// SbrbNode is the production fast path: sorted flat sample arrays with
// binary-search membership, dense per-candidate counters, compact
// reusable send-staging slabs (zero-alloc steady state), and the
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
  /// engines' trial-reuse paths (Engine::run_impl, SoaNodeStore::reset,
  /// restart revival) detect this method and call it instead of
  /// re-emplacing the node, which is what makes steady-state SBRB trials
  /// allocation-free (tests/test_trial_farm.cpp).
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
    echo_subs_.clear();
    ready_subs_.clear();
    urgent_.items.clear();
    urgent_.head = 0;
    bulk_.items.clear();
    bulk_.head = 0;
    for (int k = 0; k < n_cands_; ++k) cands_[k] = Cand{};
    n_cands_ = 0;
    candidate_ = 0;
    sieve_delivered_ = false;
    delivered_ = false;
  }

  template <class Ctx>
  void on_start(Ctx& ctx) {
    ctx.activate();  // every node subscribes, so every node participates
    draw_samples(ctx.seed());
    // Subscriptions ride the bulk queue: payload traffic (urgent queue)
    // preempts them, so a late subscription only delays feedback, never
    // dissemination.
    for (int i = 0; i < r_off_; ++i)
      queue(bulk_, samples_[static_cast<std::size_t>(i)], Tag::kSbrbSubEcho, 0);
    for (int i = r_off_; i < d_off_; ++i)
      queue(bulk_, samples_[static_cast<std::size_t>(i)], Tag::kSbrbSubReady,
            0);
    for (int i = d_off_; i < s_end_; ++i) {
      const NodeId t = samples_[static_cast<std::size_t>(i)];
      if (rank_in(r_off_, d_off_, t) < 0)
        queue(bulk_, t, Tag::kSbrbSubReady, 0);
    }
    if (ctx.is_root()) {
      candidate_ = kTruePayload;
      ctx.mark_colored();
      ctx.deliver();
      delivered_ = true;
      if (n_ == 1) {
        ctx.complete();
        return;
      }
      queue_gossip(ctx);
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
      case Tag::kSbrbSubEcho: on_sub_echo(ctx, m.src); break;
      case Tag::kSbrbSubReady: on_sub_ready(ctx, m.src); break;
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
    const auto [to, m] = sbrb_pop_staged(now);
    ctx.send(to, m);
  }

  // --- staged-send kernel contract (sim/sharded_engine.hpp) ---------------
  // The sharded engine's SBRB step kernel replaces the per-node generic
  // tick sweep with a sweep over the dense pending-sends bitmap: nodes
  // with nothing staged cost nothing per step.  The contract relies on
  // the protocol properties above: all activation happens in on_start,
  // a tick before the deadline emits exactly the front staged message,
  // and completion happens only at the deadline tick.

  /// Nothing staged: a pre-deadline tick would be a no-op.
  bool sbrb_idle() const { return empty(urgent_) && empty(bulk_); }

  /// Pop the next staged message exactly as a pre-deadline on_tick would
  /// (urgent before bulk), materializing the wire Message.  Requires
  /// !sbrb_idle().
  std::pair<NodeId, Message> sbrb_pop_staged(Step now) {
    auto& q = !empty(urgent_) ? urgent_ : bulk_;
    const Staged st = q.items[q.head++];
    Message m;
    m.tag = st.tag;
    m.payload = st.payload;
    m.time = now;
    return {st.to, m};
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
        __builtin_prefetch(echo_subs_.data());
        break;
      case Tag::kSbrbSubReady:
        __builtin_prefetch(ready_subs_.data());
        break;
      default:  // kGossip reads only the header line
        break;
    }
  }

  /// Companion hint for the staged-send sweep: the pop's dependent line is
  /// the front of whichever queue is up next.
  void sbrb_prefetch_pop() const {
    const auto& q = !empty(urgent_) ? urgent_ : bulk_;
    if (q.head < q.items.size()) __builtin_prefetch(q.items.data() + q.head);
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

  /// Compact staged send: tag/payload/destination only.  The wire Message
  /// is materialized at pop time (its `time` field is stamped with the
  /// send step either way, and `src` is stamped by the engine), so
  /// staging 12 bytes instead of a 64-byte Message is behavior-neutral.
  struct Staged {
    NodeId to;
    Tag tag;
    std::uint32_t payload;
  };
  struct SendQ {
    std::vector<Staged> items;
    std::size_t head = 0;
  };
  static bool empty(const SendQ& q) { return q.head >= q.items.size(); }
  static void queue(SendQ& q, NodeId to, Tag tag, std::uint32_t payload) {
    q.items.push_back({to, tag, payload});
  }

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

  static bool contains(const std::vector<NodeId>& v, NodeId x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }

  void draw_samples(std::uint64_t seed) {
    r_off_ = p_.s.e;
    d_off_ = r_off_ + p_.s.r;
    s_end_ = d_off_ + p_.s.d;
    CG_CHECK(s_end_ <= 3 * kMaxSample);
    // Exact-size heap storage: resize() preserves capacity across
    // reset_for_run, so replayed trials stay allocation-free.
    if (static_cast<int>(samples_.size()) < s_end_)
      samples_.resize(static_cast<std::size_t>(s_end_));
    sbrb_fill_sample(seed, self_, n_, 0, p_.s.e, samples_.data());
    sbrb_fill_sample(seed, self_, n_, 1, p_.s.r, samples_.data() + r_off_);
    sbrb_fill_sample(seed, self_, n_, 2, p_.s.d, samples_.data() + d_off_);
  }

  Cand* slot_for(std::uint32_t digest) {
    for (int k = 0; k < n_cands_; ++k)
      if (cands_[k].digest == digest) return &cands_[k];
    if (n_cands_ >= kMaxCandidates) return nullptr;
    cands_[n_cands_].digest = digest;
    return &cands_[n_cands_++];
  }

  template <class Ctx>
  void queue_gossip(Ctx& ctx) {
    for (int k = 0; k < p_.s.g; ++k)
      queue(urgent_, ctx.rng().other_node(self_, n_), Tag::kGossip,
            candidate_);
  }

  /// Adopt `digest` as this node's one-and-only candidate: forward it to
  /// the gossip fanout and echo it to everyone sampling us.
  template <class Ctx>
  void become_colored(Ctx& ctx, std::uint32_t digest) {
    candidate_ = digest;
    ctx.mark_colored();
    queue_gossip(ctx);
    for (const NodeId s : echo_subs_)
      queue(urgent_, s, Tag::kSbrbEcho, candidate_);
  }

  template <class Ctx>
  void on_gossip(Ctx& ctx, const Message& m) {
    if (candidate_ != 0 || m.payload == 0) return;  // first candidate wins
    become_colored(ctx, m.payload);
  }

  template <class Ctx>
  void on_sub_echo(Ctx&, NodeId src) {
    if (contains(echo_subs_, src)) return;
    echo_subs_.push_back(src);
    if (candidate_ != 0)  // late subscriber: replay our echo
      queue(urgent_, src, Tag::kSbrbEcho, candidate_);
  }

  template <class Ctx>
  void on_sub_ready(Ctx&, NodeId src) {
    if (contains(ready_subs_, src)) return;
    ready_subs_.push_back(src);
    for (int k = 0; k < n_cands_; ++k)  // late subscriber: replay Readies
      if (cands_[k].ready)
        queue(urgent_, src, Tag::kSbrbReady, cands_[k].digest);
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
  void become_ready(Ctx&, Cand& c) {
    if (c.ready) return;
    c.ready = true;
    for (const NodeId s : ready_subs_)
      queue(urgent_, s, Tag::kSbrbReady, c.digest);
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
  // pointer, the segment offsets, the candidate word and the thresholds
  // (p_) are all available from one line fill, with the first candidate's
  // tallies on the adjacent line.  The dispatch loops prefetch exactly
  // this region a few deliveries ahead, which turns the 2-3 serial misses
  // per receive of the naive layout into ~one (docs/PERF.md §7).  The
  // exact-size heap sample array (vs an inline 3*kMaxSample array) also
  // cuts the per-node footprint ~4x.
  //
  // Sorted flat sample storage: samples_[0, r_off_) echo,
  // [r_off_, d_off_) ready, [d_off_, s_end_) delivery.
  std::vector<NodeId> samples_;
  std::uint32_t candidate_ = 0;  // first payload adopted (0 = uncolored)
  std::uint8_t n_cands_ = 0;
  bool sieve_delivered_ = false;
  bool delivered_ = false;
  int r_off_ = 0;
  int d_off_ = 0;
  int s_end_ = 0;
  NodeId self_ = 0;
  NodeId n_ = 1;
  Params p_;
  SendQ urgent_;  // gossip forwards, echoes, Readies
  SendQ bulk_;    // sample subscriptions
  Cand cands_[kMaxCandidates]{};
  std::vector<NodeId> echo_subs_;   // who counts OUR echoes
  std::vector<NodeId> ready_subs_;  // who counts OUR Readies
};

}  // namespace cg
