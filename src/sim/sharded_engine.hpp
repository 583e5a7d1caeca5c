// Window-sharded execution over the structure-of-arrays node store - the
// engine for million-node runs.
//
// Nodes are split into contiguous 64-aligned blocks, one per shard, and
// each shard owns a PRIVATE delivery calendar (the PR 4 ring-of-slots
// kernel) plus the SoA state for its block.  The LogP model gives a
// conservative lookahead: every message emitted at step s is delivered no
// earlier than s + L/O + 1 (jitter, stragglers and link extras only ADD
// delay), so a window of W = L/O + 1 steps can be simulated by every
// shard INDEPENDENTLY - all deliveries inside the window were scheduled
// in earlier windows and already sit in the owning shard's calendar.
//
// Structure per window, for each shard:
//   phase A: run the window's W steps locally - revivals, due deliveries,
//            tick sweep over the Active bitmap; same-shard sends go
//            straight into the private calendar, cross-shard sends into
//            the shard's parity outbox;
//   barrier (SenseBarrier; completion folds per-shard deltas, flushes
//            trace buffers in shard order, advances the window, decides
//            termination);
//   phase B: drain every other shard's parity outbox into the private
//            calendar (owned destinations only).
//
// One barrier per WINDOW, not one per step.  A second barrier (between
// phase B and the next phase A) is not needed either: the outboxes are
// double-buffered by window parity.  Phase A of window k writes
// outbox[k&1], phase B of window k+1 reads every shard's outbox[k&1], and
// the owner clears that buffer again only in phase A of window k+2 - by
// which point every reader has long since passed the barrier after window
// k+1, so no synchronization is needed.  Phase B writes only the calendar
// of the shard running it, and phase A reads only its own calendar, so
// one shard's phase B may overlap another's phase A freely.
//
// Ownership: the contiguous blocks are rounded up to a 64-node boundary,
// so the per-node byte arrays and bitmap words a shard mutates never
// share a cache line (or a word) with another shard's - the false
// sharing a modulo striding of nodes would cause.
//
// Calendar records (sim/core/calendar.hpp).  Every protocol's deliveries
// are stored as one 32-byte CalRecord - emission step (low 32 bits),
// destination and every Message field except the known[] id array - and
// a boundary record adds the delivery step (40 bytes).  The few messages
// that carry known ids (FCG, BFB, opt) keep them in a side array of the
// same slot or outbox, which the record indexes; the Message handed to
// on_receive is rebuilt from the record at dispatch.
//
// Each due calendar slot is put into (send step, sender) order before
// dispatch - a unique key, since the SendGate admits one emission per
// node per step - which realizes the canonical (step, sender, dest)
// boundary-exchange order without caring how or when entries were
// inserted, so traces and metrics are byte-identical across shard counts
// (tests/test_sharded_engine.cpp sweeps {1, 2, 8}).  A slot is a few
// runs already in that order - the shard's own sends, then each phase-B
// boundary append - so SlotMerger merges its natural runs pairwise
// through a per-shard scratch buffer, O(n) for the usual two or three
// runs.  Under kOnePerStep the slot is instead sorted by (destination,
// rx_order_before, send step, sender) and staged into the inbox slab.
//
// Dispatch is software-pipelined like the stepped engine's: the drain
// loop prefetches the receiving node's header six deliveries ahead and
// the protocol's tag-directed hint (sbrb_prefetch) two ahead, and the
// SBRB staged-send sweep prefetches the next nodes' send cursors.
//
// Crash schedules are applied LAZILY, which is what lets a shard run past
// global quiescence without rollback: a kill becomes visible the moment
// the node would otherwise act (tick sweep, delivery, revival) and is
// stamped with its SCHEDULED step; crashes of untouched nodes are applied
// after the run, gated to the reconstructed end step, so the final
// population matches the stepped engine exactly.  The end step itself is
// reconstructed as 1 + the last completion / active-kill / consumption /
// revival - precisely the event that kept the stepped engine's
// active/in-flight/pending-restart condition true - so t_end, and with it
// every RunMetrics field, matches the stepped engine.
//
// Protocols run unchanged through BasicCtx.  Nodes reporting
// in_plain_gossip(now) (GOS and the gossip phase of OCG/CCG/FCG) take a
// batched emission path that skips the generic on_tick while consuming
// the same RNG stream, SendGate slot and message shape - behavior-
// preserving by the plain_gossip_msg contract (gossip/timing.hpp).
// Nodes exposing the SBRB staged-send contract (sbrb_idle/sbrb_pop_staged,
// see gossip/sbrb.hpp) take a second kernel: on crash-free runs the tick
// sweep walks the dense pending-sends bitmap (active AND pending) instead
// of ticking every active node, so idle nodes cost nothing per step while
// traces and profile counts stay byte-identical to the generic sweep
// (docs/PERF.md §7).  A pop advances the node's send cursor (its samples
// and subscriber list; nothing is queued per message) and draws gossip
// targets from the node's RNG stream, as the protocol's own tick would.
//
// Shard workers run on the persistent process-wide cg_pool (ROADMAP item:
// no per-run std::thread spawns).  One parallel_for spans the whole run -
// each shard holds its pool slot across every window and the shards meet
// at a SenseBarrier between windows, so the one-sync-per-window structure
// (and its cost) matches the dedicated-thread design it replaces.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/huge_pages.hpp"
#include "common/rng.hpp"
#include "gossip/timing.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sync_barrier.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/core/basic_ctx.hpp"
#include "sim/core/bitset.hpp"
#include "sim/core/calendar.hpp"
#include "sim/core/inbox.hpp"
#include "sim/core/network_model.hpp"
#include "sim/core/profile.hpp"
#include "sim/core/run_config.hpp"
#include "sim/core/send_gate.hpp"
#include "sim/core/soa_store.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace cg {

template <class Node>
class ShardedEngine {
 public:
  using Params = typename Node::Params;

  /// BasicCtx host: the engine plus the shard the callback runs on (the
  /// compatibility adapter over the SoA store - protocols keep their
  /// object API while state lives in flat arrays).
  struct ShardView {
    ShardedEngine* eng;
    int shard;

    Step ctx_now() const { return eng->shards_[st()].now; }
    const RunConfig& ctx_cfg() const { return eng->cfg_; }
    Xoshiro256& ctx_rng(NodeId i) { return eng->soa_.rng(i); }
    void ctx_send(NodeId from, NodeId to, const Message& m) {
      eng->do_send(shard, from, to, m);
    }
    void ctx_activate(NodeId i) { eng->do_activate(shard, i); }
    void ctx_mark_colored(NodeId i) {
      if (eng->soa_.mark_colored(i, ctx_now(), eng->shards_[st()].rx_payload)) {
        eng->trace(shard, {ctx_now(), TraceEvent::Kind::kColored, i, kNoNode,
                           Tag::kGossip});
        if (eng->cfg_.telemetry != nullptr)
          eng->cfg_.telemetry->record_colored(shard, ctx_now());
      }
    }
    void ctx_adopt_payload(NodeId i, std::uint32_t d) {
      eng->soa_.set_held_payload(i, d);
    }
    void ctx_deliver(NodeId i) {
      if (eng->soa_.mark_delivered(i, ctx_now()))
        eng->trace(shard, {ctx_now(), TraceEvent::Kind::kDelivered, i, kNoNode,
                           Tag::kGossip});
    }
    void ctx_complete(NodeId i) { eng->do_complete(shard, i); }
    bool ctx_colored(NodeId i) const { return eng->soa_.colored(i); }
    void ctx_note_dropped(NodeId) {
      eng->shards_[st()].counts.add_dropped();
    }

   private:
    std::size_t st() const { return static_cast<std::size_t>(shard); }
  };
  using Ctx = BasicCtx<ShardView>;

  ShardedEngine(RunConfig cfg, Params params, int shards)
      : cfg_(std::move(cfg)), params_(std::move(params)),
        nshards_(std::max(1, shards)) {
    CG_CHECK(cfg_.n >= 1);
    CG_CHECK(cfg_.root >= 0 && cfg_.root < cfg_.n);
    cfg_.logp.validate();
  }

  RunMetrics run();

 private:
  /// Does the protocol expose the batched plain-gossip contract?
  static constexpr bool kPlainGossip =
      requires(const Node& nd) { nd.in_plain_gossip(Step{0}); };

  /// Does the protocol expose the SBRB staged-send kernel contract
  /// (gossip/sbrb.hpp)?  The kernel additionally relies on the protocol
  /// properties documented there: every node activates in on_start, a
  /// pre-deadline tick emits exactly the front staged message, and
  /// completion happens only at the deadline tick.  It engages on runs
  /// with no crash schedule (any_crash_ == false); faulted runs use the
  /// generic sweep, which applies lazy kills at exact scheduled steps.
  static constexpr bool kSbrbStaged =
      requires(Node& nd, const Node& cnd, const typename Node::Params& p,
               Step s) {
        { cnd.sbrb_idle() } -> std::convertible_to<bool>;
        {
          nd.sbrb_pop_staged(s, std::declval<Xoshiro256&>())
        } -> std::convertible_to<std::pair<NodeId, Message>>;
        { p.deadline } -> std::convertible_to<Step>;
      };

  /// Does the protocol expose tag-directed receive prefetch hints?
  static constexpr bool kRxHint =
      requires(const Node& cnd, Tag t) { cnd.sbrb_prefetch(t); };
  /// ... and a hint for the staged-send pop's cursor entry?
  static constexpr bool kPopHint =
      requires(const Node& cnd) { cnd.sbrb_prefetch_pop(); };

  // Everything one shard mutates during a window, cache-line-separated.
  struct alignas(64) ShardState {
    NodeId lo = 0, hi = 0;  ///< owned node block [lo, hi)
    Step now = 0;           ///< shard-local current step inside a window
    std::vector<CalendarSlot> calendar;  // private ring, D+1 slots
    std::array<BoundaryBox, 2> outbox;   // indexed by window parity
    SlotMerger merger;                   // canonical slot-ordering scratch
    InboxSlab inbox;        // kOnePerStep; local-node indexed
    PackedBits inbox_bits;  // local nodes with a nonempty inbox
    std::vector<Restart> revives;  // owned revivals, sorted by up_at
    std::size_t next_revive = 0;
    // Per-window deltas, folded by the barrier completion.
    std::int64_t active_delta = 0;
    std::int64_t sent = 0;
    std::int64_t delivered = 0;
    std::int64_t revived = 0;
    Step last_activity = -1;  ///< see file comment (end-step reconstruction)
    std::uint32_t rx_payload = 0;  ///< digest of the message being dispatched
    MessageCounts counts;
    std::vector<TraceEvent> trace;
    // Self-profiling.
    std::int64_t prof_receive = 0;
    std::int64_t prof_tick = 0;
    std::int64_t prof_scheduled = 0;
    std::int64_t prof_fired = 0;
    std::int64_t prof_max_bucket = 0;
    std::int64_t boundary_msgs = 0;
    std::int64_t window_stalls = 0;
    double prof_a_s = 0;
    double prof_b_s = 0;
  };

  int owner_of(NodeId i) const {
    return std::min(static_cast<int>(i / block_), nshards_ - 1);
  }

  void do_send(int shard, NodeId from, NodeId to, const Message& m) {
    CG_CHECK(to >= 0 && to < cfg_.n);
    CG_CHECK_MSG(to != from, "node sent a message to itself");
    auto& st = shards_[static_cast<std::size_t>(shard)];
    gate_.on_send(from, st.now);
    // Byzantine transform runs BEFORE owner_of(to): a spammer's redirected
    // destination decides the same-shard-vs-boundary routing.
    Message adv = m;
    if (adv.payload == 0) adv.payload = soa_.held_payload(from);
    if (byz_.any()) {
      const ByzAction act = byz_.transform(from, to, adv, st.now);
      if (act == ByzAction::kSuppressed) {
        st.counts.add_suppressed();
        return;  // swallowed at the sender: no send/lost trace, no route
      }
      if (act == ByzAction::kEquivocated) st.counts.add_equivocated();
      if (act == ByzAction::kForged) st.counts.add_forged();
      st.counts.add(adv);
      if (cfg_.trace != nullptr) {
        trace(shard, {st.now, TraceEvent::Kind::kSend, from, to, adv.tag});
        if (act == ByzAction::kEquivocated)
          trace(shard,
                {st.now, TraceEvent::Kind::kEquivocated, from, to, adv.tag});
        else if (act == ByzAction::kForged)
          trace(shard, {st.now, TraceEvent::Kind::kForged, from, to, adv.tag});
      }
    } else {
      st.counts.add(adv);
      if (cfg_.trace != nullptr)
        trace(shard, {st.now, TraceEvent::Kind::kSend, from, to, adv.tag});
    }

    const Step at = net_.route(from, to, st.now);
    if (at == NetworkModel::kLost) {  // lost on the wire (counted as work)
      trace(shard, {st.now, TraceEvent::Kind::kLost, from, to, adv.tag});
      return;
    }

    adv.src = from;
    ++st.sent;
    if (cfg_.profile != nullptr) ++st.prof_scheduled;
    const int dest = owner_of(to);
    if (dest == shard || in_start_) {
      // Same shard (or the single-threaded on_start phase): straight into
      // the destination's private calendar.  `at > now`, so this never
      // touches the slot currently being dispatched.
      auto& ds = shards_[static_cast<std::size_t>(dest)];
      ds.calendar[ring_slot(ds, at)].push(st.now, to, adv);
    } else {
      st.outbox[static_cast<std::size_t>(win_parity_)].push(at, st.now, to,
                                                             adv);
      ++st.boundary_msgs;
    }
  }

  void do_activate(int shard, NodeId i) {
    if (soa_.activate(i, shards_[static_cast<std::size_t>(shard)].now))
      ++shards_[static_cast<std::size_t>(shard)].active_delta;
  }

  void do_complete(int shard, NodeId i) {
    auto& st = shards_[static_cast<std::size_t>(shard)];
    const auto t = soa_.complete(i, st.now);
    if (!t.changed) return;
    if (t.was_active) {
      --st.active_delta;
      st.last_activity = std::max(st.last_activity, st.now);
    }
    trace(shard, {st.now, TraceEvent::Kind::kComplete, i, kNoNode, Tag::kGossip});
  }

  /// Apply a pending crash the moment the node would otherwise act.  The
  /// event is stamped with the SCHEDULED step (what the stepped engine
  /// recorded), not the discovery step; an Active node is always caught at
  /// exactly its scheduled step because Active nodes are swept every step.
  void maybe_lazy_kill(int shard, NodeId i, Step s) {
    const auto idx = static_cast<std::size_t>(i);
    const Step ca = crash_at_[idx];
    if (ca > s) return;
    crash_at_[idx] = kNever;
    const Step kill_step = std::max<Step>(ca, 0);
    const auto t = soa_.kill(i);
    if (!t.changed) return;
    auto& st = shards_[static_cast<std::size_t>(shard)];
    if (t.was_active) {
      --st.active_delta;
      st.last_activity = std::max(st.last_activity, kill_step);
    }
    trace(shard, {kill_step, TraceEvent::Kind::kFail, i, kNoNode, Tag::kGossip});
  }

  void dispatch(int shard, NodeId to, const Message& m, Step s) {
    if (any_crash_) maybe_lazy_kill(shard, to, s);
    if (!soa_.alive(to) || soa_.done(to)) return;  // dropped
    do_activate(shard, to);
    if (cfg_.trace != nullptr)
      trace(shard, {s, TraceEvent::Kind::kDeliver, to, m.src, m.tag});
    // Cell = shard; node `to` is shard-owned, so the telemetry stamp/pend
    // arrays see each node from exactly one thread.
    if (cfg_.telemetry != nullptr)
      cfg_.telemetry->record_delivery(shard, to, s);
    if (cfg_.profile != nullptr)
      ++shards_[static_cast<std::size_t>(shard)].prof_receive;
    ShardView view{this, shard};
    Ctx ctx(view, to);
    auto& st = shards_[static_cast<std::size_t>(shard)];
    st.rx_payload = m.payload;  // ambient digest for ctx_mark_colored
    soa_.node(to).on_receive(ctx, m);
    st.rx_payload = 0;
    if constexpr (kSbrbStaged) {
      // Keep the dense pending-sends bitmap coherent: a receive is the
      // only place a node can stage new sends mid-run.  `to` is shard-
      // owned and blocks are 64-aligned, so the word is owner-disjoint.
      // The bitmap test runs first - it is cache-resident, while
      // sbrb_idle() reads the node's send cursor, a line the receive
      // handler may have left cold.
      if (!any_crash_ && !soa_.sbrb_pending_bits().test(to) &&
          !soa_.node(to).sbrb_idle())
        soa_.sbrb_set_pending(to);
    }
  }

  void trace(int shard, TraceEvent ev) {
    if (cfg_.trace != nullptr)
      shards_[static_cast<std::size_t>(shard)].trace.push_back(ev);
  }

  // Single-threaded (on_start, or inside the barrier completion).
  void flush_traces() {
    if (cfg_.trace == nullptr) return;
    for (auto& st : shards_) {
      for (const auto& ev : st.trace) cfg_.trace->on_event(ev);
      st.trace.clear();
    }
  }

  static std::size_t ring_slot(const ShardState& st, Step at) {
    return static_cast<std::size_t>(at %
                                    static_cast<Step>(st.calendar.size()));
  }

  /// Execute one window [win_lo, win_hi) on shard `sidx` (phase A).
  /// Cache-line aligned for the same reason as Engine::run_impl: the
  /// window loops' position modulo 64 bytes then depends only on this
  /// function's own code, not on the size of unrelated code linked
  /// before it (docs/PERF.md section 8).
  [[gnu::aligned(64)]] void run_window(int sidx, Step win_lo, Step win_hi);

  void fold_deltas() {
    for (auto& st : shards_) {
      active_count_ += st.active_delta;
      in_flight_ += st.sent - st.delivered;
      pending_restarts_ -= st.revived;
      last_activity_ = std::max(last_activity_, st.last_activity);
      st.active_delta = 0;
      st.sent = 0;
      st.delivered = 0;
      st.revived = 0;
    }
  }

  bool quiescent() const {
    return active_count_ == 0 && in_flight_ == 0 && pending_restarts_ == 0;
  }

  std::size_t footprint_bytes() const {
    std::size_t fp = soa_.footprint_bytes() +
                     static_cast<std::size_t>(cfg_.n) * sizeof(Step) * 3;
    for (const auto& st : shards_) {
      for (const auto& slot : st.calendar) fp += slot.footprint_bytes();
      for (const auto& ob : st.outbox) fp += ob.footprint_bytes();
      fp += st.merger.footprint_bytes();
      fp += st.inbox.footprint_bytes() + st.inbox_bits.footprint_bytes();
    }
    return fp;
  }

  RunConfig cfg_;
  Params params_;
  int nshards_;
  NodeId block_ = 1;  // nodes per shard block (64-aligned)
  Step window_ = 1;   // W = L/O + 1, the conservative lookahead

  SoaNodeStore<Node> soa_;
  NetworkModel net_;
  SendGate gate_;
  ByzantineModel byz_;
  NodeArray<Step> crash_at_;    // pending scheduled crash (kNever = none)
  bool any_crash_ = false;      // any online failure or restart scheduled
  NodeArray<Step> restart_up_;  // revive step (kNever = none)
  std::vector<ShardState> shards_;

  // Window bookkeeping (written single-threaded: setup or completion fn).
  Step window_lo_ = 0;
  int win_parity_ = 0;
  bool in_start_ = false;
  bool stop_ = false;
  std::int64_t windows_done_ = 0;
  std::int64_t active_count_ = 0;
  std::int64_t in_flight_ = 0;
  std::int64_t pending_restarts_ = 0;
  Step last_activity_ = -1;
  RunMetrics metrics_{};
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <class Node>
void ShardedEngine<Node>::run_window(int sidx, Step win_lo, Step win_hi) {
  auto& st = shards_[static_cast<std::size_t>(sidx)];
  const bool one_per_step = cfg_.rx == RxPolicy::kOnePerStep;
  const bool profiled = cfg_.profile != nullptr;
  const NodeId local_n = st.hi - st.lo;
  const std::int64_t boundary0 = st.boundary_msgs;
  bool did_work = false;

  for (Step s = win_lo; s < win_hi; ++s) {
    st.now = s;

    // 1. revivals due this step (force any still-pending crash first: the
    // node must be dead before it can rejoin).
    while (st.next_revive < st.revives.size() &&
           st.revives[st.next_revive].up_at <= s) {
      const NodeId i = st.revives[st.next_revive].node;
      ++st.next_revive;
      did_work = true;
      maybe_lazy_kill(sidx, i, s);
      if (soa_.revive(i, params_)) {
        restart_up_[static_cast<std::size_t>(i)] = kNever;
        ++st.revived;
        st.last_activity = std::max(st.last_activity, s);
        trace(sidx, {s, TraceEvent::Kind::kRestart, i, kNoNode, Tag::kGossip});
      }
    }

    // 2. deliveries due this step, in canonical (send step, sender) order
    // (SlotMerger: the slot's sorted runs are merged, not re-sorted), or
    // under kOnePerStep grouped by destination in rx order.
    auto& slot = st.calendar[ring_slot(st, s)];
    if (!slot.empty()) {
      did_work = true;
      const std::size_t due_n = slot.recs.size();
      if (profiled) {
        st.prof_fired += static_cast<std::int64_t>(due_n);
        st.prof_max_bucket =
            std::max(st.prof_max_bucket, static_cast<std::int64_t>(due_n));
      }
      st.delivered += static_cast<std::int64_t>(due_n);
      st.last_activity = std::max(st.last_activity, s);
      if (!one_per_step) {
        st.merger.order(slot.recs);
        // Receivers arrive in near-random order, so each dispatch starts
        // with a cold miss on the target node.  Two-stage software
        // pipeline: prefetch the node's header lines several entries
        // ahead, then (for protocols with tag-directed hints) let the node
        // prefetch the handler's dependent data - sample/subscriber lines
        // - two entries ahead, once its header has arrived.  Dispatch
        // never pushes into this slot (every send lands at least one step
        // ahead), so `due` stays valid throughout.
        const CalRecord* const due = slot.recs.data();
        for (std::size_t k = 0; k < due_n; ++k) {
          if (k + 6 < due_n) {
            const auto* nxt =
                reinterpret_cast<const char*>(&soa_.node(due[k + 6].to));
            __builtin_prefetch(nxt);
            __builtin_prefetch(nxt + 64);
          }
          if constexpr (kRxHint) {
            if (k + 2 < due_n)
              soa_.node(due[k + 2].to).sbrb_prefetch(due[k + 2].tag);
          }
          dispatch(sidx, due[k].to, slot.message(due[k]), s);
        }
      } else {
        // Stage into the slab inbox; per-node arrival order must be the
        // canonical rx order, so sort grouped by destination.  Messages
        // rx_order_before cannot tell apart fall back to canonical order,
        // which makes the key unique and the result independent of the
        // slot's insertion order.
        std::sort(slot.recs.begin(), slot.recs.end(),
                  [&slot](const CalRecord& a, const CalRecord& b) {
                    if (a.to != b.to) return a.to < b.to;
                    const Message ma = slot.message(a);
                    const Message mb = slot.message(b);
                    if (rx_order_before(ma, mb)) return true;
                    if (rx_order_before(mb, ma)) return false;
                    return canonical_before(a, b);
                  });
        for (const auto& d : slot.recs) {
          const auto local = static_cast<std::size_t>(d.to - st.lo);
          st.inbox.push(local, slot.message(d));
          st.inbox_bits.set(d.to - st.lo);
        }
        st.delivered -= static_cast<std::int64_t>(due_n);  // on pop
      }
      slot.clear();
    }
    if (one_per_step) {
      // Consume at most one queued message per node, in node-id order,
      // even for dead/done nodes (mirrors the other engines' drain).
      st.inbox_bits.for_each_set(0, local_n, [&](NodeId local) {
        did_work = true;
        const NodeId i = st.lo + local;
        const Message m = st.inbox.front(static_cast<std::size_t>(local));
        st.inbox.pop(static_cast<std::size_t>(local));
        if (st.inbox.empty(static_cast<std::size_t>(local)))
          st.inbox_bits.clear(local);
        ++st.delivered;
        st.last_activity = std::max(st.last_activity, s);
        dispatch(sidx, i, m, s);
      });
    }

    // 3. tick sweep.  Protocols with the SBRB staged-send contract get
    // the dense kernel on crash-free runs: only nodes with staged sends
    // are visited, while did_work/prof_tick reproduce the generic sweep's
    // accounting exactly (with no crash schedule and SBRB's activate-all
    // on_start, the active set is fixed until the deadline, so the
    // generic sweep would tick every active node at every step s >= 1).
    bool generic_ticks = true;
    if constexpr (kSbrbStaged) {
      if (!any_crash_) {
        generic_ticks = false;
        if (s >= params_.deadline) {
          // Deadline sweep: every active node's tick is ctx.complete().
          soa_.active_bits().for_each_set(st.lo, st.hi, [&](NodeId i) {
            if (soa_.activated_at(i) == s) return;
            did_work = true;
            if (profiled) ++st.prof_tick;
            do_complete(sidx, i);
          });
        } else if (s > 0) {
          if (profiled)
            st.prof_tick += soa_.active_bits().count_in(st.lo, st.hi);
          if (!did_work && !soa_.active_bits().none_in(st.lo, st.hi))
            did_work = true;
          soa_.sbrb_pending_bits().for_each_set_and(
              soa_.active_bits(), st.lo, st.hi, [&](NodeId i) {
                // During the dribble phase the pending set is dense, so
                // the next visited node is almost always i+1: prefetch
                // i+2's header lines now, and let i+1 (whose headers
                // arrived last iteration) prefetch its cursor entry before
                // we work on i.
                if (i + 2 < st.hi) {
                  const auto* nxt =
                      reinterpret_cast<const char*>(&soa_.node(i + 2));
                  __builtin_prefetch(nxt);
                  __builtin_prefetch(nxt + 64);
                }
                if constexpr (kPopHint) {
                  if (i + 1 < st.hi) soa_.node(i + 1).sbrb_prefetch_pop();
                }
                if (soa_.activated_at(i) == s) return;
                auto& nd = soa_.node(i);
                if (nd.sbrb_idle()) {  // defensive: stale pending bit
                  soa_.sbrb_clear_pending(i);
                  return;
                }
                const auto [to, msg] = nd.sbrb_pop_staged(s, soa_.rng(i));
                do_send(sidx, i, to, msg);
                if (nd.sbrb_idle()) soa_.sbrb_clear_pending(i);
              });
        }
        // s == 0: on_start activated every node this step, so the
        // generic sweep would skip them all - nothing to do.
      }
    }
    // Generic sweep over the Active bitmap (idle/done nodes cost nothing -
    // the flat-plan payoff).  A node activated this step skips its tick.
    if (generic_ticks) soa_.active_bits().for_each_set(st.lo, st.hi, [&](NodeId i) {
      if (any_crash_ && crash_at_[static_cast<std::size_t>(i)] <= s) {
        maybe_lazy_kill(sidx, i, s);
        return;
      }
      if (soa_.activated_at(i) == s) return;
      did_work = true;
      if (profiled) ++st.prof_tick;
      if constexpr (kPlainGossip) {
        if (soa_.node(i).in_plain_gossip(s)) {
          // Batched plain-gossip emission: same RNG draw, SendGate slot
          // and message as the protocol's own on_tick would produce.
          do_send(sidx, i, soa_.rng(i).other_node(i, cfg_.n),
                  plain_gossip_msg(s));
          return;
        }
      }
      ShardView view{this, sidx};
      Ctx ctx(view, i);
      soa_.node(i).on_tick(ctx);
    });
  }
  if (!did_work) ++st.window_stalls;
  // Per-window boundary traffic: a property of THIS shard layout (not part
  // of the engine-invariant telemetry slice; see obs/telemetry.hpp).
  if (cfg_.telemetry != nullptr)
    cfg_.telemetry->record_window_boundary(sidx, st.boundary_msgs - boundary0);
}

template <class Node>
RunMetrics ShardedEngine<Node>::run() {
  const auto n = static_cast<std::size_t>(cfg_.n);
  // 64-aligned contiguous blocks: bitmap words and byte arrays stay
  // owner-disjoint (see the file comment).
  block_ = (cfg_.n + static_cast<NodeId>(nshards_) - 1) /
           static_cast<NodeId>(nshards_);
  block_ = ((block_ + 63) / 64) * 64;
  if (block_ < 1) block_ = 1;
  window_ = cfg_.logp.delivery_delay();
  CG_CHECK(window_ >= 1);

  soa_.reset(cfg_.n, cfg_.seed, params_);
  net_.reset(cfg_);
  gate_.reset(cfg_.n);
  byz_.reset(cfg_.n, cfg_.root, cfg_.seed, cfg_.byzantine);
  for (const auto& b : cfg_.byzantine.nodes) soa_.mark_byzantine(b.node);
  crash_at_.assign(n, kNever);
  restart_up_.assign(n, kNever);

  CG_CHECK_MSG(net_.max_delay() <= kMaxRecordDelay,
               "delivery delay too long for the calendar's 32-bit send step");
  const auto cal_slots = static_cast<std::size_t>(net_.max_delay()) + 1;
  shards_.assign(static_cast<std::size_t>(nshards_), ShardState{});
  for (int w = 0; w < nshards_; ++w) {
    auto& st = shards_[static_cast<std::size_t>(w)];
    st.lo = std::min(static_cast<NodeId>(w) * block_, cfg_.n);
    st.hi = std::min((static_cast<NodeId>(w) + 1) * block_, cfg_.n);
    st.calendar.assign(cal_slots, {});
    if (cfg_.rx == RxPolicy::kOnePerStep) {
      st.inbox.reset(static_cast<std::size_t>(st.hi - st.lo));
      st.inbox_bits.reset(st.hi - st.lo);
    }
  }

  metrics_ = RunMetrics{};
  any_crash_ =
      !cfg_.failures.online.empty() || !cfg_.failures.restarts.empty();
  if constexpr (kSbrbStaged) soa_.reset_sbrb_block();
  window_lo_ = 0;
  win_parity_ = 0;
  windows_done_ = 0;
  active_count_ = 0;
  in_flight_ = 0;
  pending_restarts_ = 0;
  last_activity_ = -1;
  stop_ = false;

  for (const NodeId i : cfg_.failures.pre_failed) soa_.pre_fail(i);
  for (const auto& of : cfg_.failures.online) {
    auto& ca = crash_at_[static_cast<std::size_t>(of.node)];
    ca = std::min(ca, of.at_step);
  }
  for (const auto& r : cfg_.failures.restarts) {
    const auto idx = static_cast<std::size_t>(r.node);
    crash_at_[idx] = std::min(crash_at_[idx], r.down_at);
    restart_up_[idx] = r.up_at;
    shards_[static_cast<std::size_t>(owner_of(r.node))].revives.push_back(r);
    ++pending_restarts_;
  }
  for (auto& st : shards_)
    std::stable_sort(st.revives.begin(), st.revives.end(),
                     [](const Restart& a, const Restart& b) {
                       return a.up_at < b.up_at;
                     });
  CG_CHECK_MSG(soa_.alive(cfg_.root), "root must be active at start");

  EngineProfile* prof = cfg_.profile;
  if (prof != nullptr) *prof = EngineProfile{};
  if (cfg_.telemetry != nullptr) cfg_.telemetry->attach(cfg_.n, nshards_);
  const auto prof_run0 = ProfileClock::now();

  // Start: single-threaded on_start at step 0; sends land directly in the
  // destination shard's calendar (in_start_ gates the outbox path).
  soa_.activate(cfg_.root, 0);
  active_count_ = 1;
  in_start_ = true;
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (!soa_.alive(i)) continue;
    if (prof != nullptr) ++prof->callbacks_start;
    ShardView view{this, owner_of(i)};
    Ctx ctx(view, i);
    soa_.node(i).on_start(ctx);
  }
  in_start_ = false;
  if constexpr (kSbrbStaged) {
    // Seed the pending-sends bitmap from on_start's staged subscriptions
    // (single-threaded; the per-window sweeps only maintain it from here).
    if (!any_crash_)
      for (NodeId i = 0; i < cfg_.n; ++i)
        if (soa_.alive(i) && !soa_.node(i).sbrb_idle())
          soa_.sbrb_set_pending(i);
  }
  fold_deltas();
  last_activity_ = -1;  // on_start activity is folded into the t_end=0 case
  flush_traces();

  const Step max_steps = cfg_.effective_max_steps();
  Step t_end = 0;

  if (quiescent()) {
    // Quiescent straight out of on_start (e.g. n == 1): the stepped
    // engine's loop never runs and t_end stays 0.
    t_end = 0;
  } else {
    auto on_window_done = [this, max_steps]() noexcept {
      fold_deltas();
      flush_traces();
      window_lo_ = std::min(window_lo_ + window_, max_steps);
      win_parity_ ^= 1;
      ++windows_done_;
      if (cfg_.heartbeat != nullptr)  // single-threaded: between windows
        cfg_.heartbeat->beat(window_lo_, max_steps, 0);
      if (quiescent()) {
        stop_ = true;
      } else if (window_lo_ >= max_steps) {
        metrics_.hit_max_steps = true;
        stop_ = true;
      }
    };

    // One shard task per window.  Phase B - draining the PREVIOUS
    // window's sealed opposite-parity outboxes - runs at the start of the
    // task: every writer finished before the previous window's join, and
    // canonical slot ordering (SlotMerger, or the unique-key sort under
    // kOnePerStep) makes calendar insertion order irrelevant, so traces
    // stay byte-identical for any shard count and any pool scheduling (a
    // worker may even run several shards).
    const bool profiled = cfg_.profile != nullptr;
    auto window_task = [this, profiled](int sidx, std::int64_t k,
                                        std::size_t par, Step win_lo,
                                        Step win_hi) {
      auto& st = shards_[static_cast<std::size_t>(sidx)];
      if (k >= 1) {
        const auto prof_b0 =
            profiled ? ProfileClock::now() : ProfileClock::TimePoint{};
        for (const auto& other : shards_) {
          const BoundaryBox& ob = other.outbox[par ^ 1];
          for (const auto& bm : ob.recs) {
            if (bm.rec.to >= st.lo && bm.rec.to < st.hi)
              st.calendar[ring_slot(st, bm.at)].append(bm.rec,
                                                        ob.known.data());
          }
        }
        if (profiled) st.prof_b_s += ProfileClock::seconds_since(prof_b0);
      }
      // Reuse this parity's outbox: its readers (phase B of window k-1,
      // above) all completed before window k-1's join.
      if (k >= 2) st.outbox[par].clear();
      const auto prof_a0 =
          profiled ? ProfileClock::now() : ProfileClock::TimePoint{};
      run_window(sidx, win_lo, win_hi);
      if (profiled) st.prof_a_s += ProfileClock::seconds_since(prof_a0);
    };

    // Shard workers run on the persistent process-wide pool (no per-run
    // thread spawns).  A multi-shard run claims one pool slot per shard
    // for its WHOLE duration - one parallel_for per run, not per window -
    // and the shards meet at a SenseBarrier between windows, exactly the
    // dedicated-thread structure this replaces: dispatching a fresh pool
    // job every window costs two condvar hops per window, which is
    // measurable on CCG-sized runs.  Nested runs (this engine inside a
    // pool worker, e.g. --engine=sharded under the trial farm) and
    // single-shard runs take the sequential per-window loop instead: a
    // nested parallel_for executes its chunks inline on one thread, where
    // the barrier would deadlock.
    ThreadPool* pool = (nshards_ > 1 && !ThreadPool::in_pool_work())
                           ? &ThreadPool::global(nshards_)
                           : nullptr;
    if (pool != nullptr) {
      const unsigned hw = std::thread::hardware_concurrency();
      const int spin =
          (hw != 0 && static_cast<unsigned>(nshards_) <= hw) ? 2048 : 0;
      SenseBarrier bar(nshards_, on_window_done, spin);
      // Safe against a participant claiming two shards: nobody's chunk
      // body returns before window 0's barrier, which needs all nshards_
      // shards - so all chunks are claimed by distinct participants
      // (global(nshards_) guarantees enough of them) before any frees up.
      pool->parallel_for(
          nshards_, 1, nshards_, [&](std::int64_t b, std::int64_t e, int) {
            for (std::int64_t sidx = b; sidx < e; ++sidx) {
              for (std::int64_t k = 0;; ++k) {
                const Step win_lo = window_lo_;
                const Step win_hi = std::min(win_lo + window_, max_steps);
                const auto par = static_cast<std::size_t>(win_parity_);
                window_task(static_cast<int>(sidx), k, par, win_lo, win_hi);
                bar.arrive_and_wait();  // completion fn: on_window_done
                if (stop_) break;
              }
            }
          });
    } else {
      for (std::int64_t k = 0; !stop_; ++k) {
        const Step win_lo = window_lo_;
        const Step win_hi = std::min(win_lo + window_, max_steps);
        const auto par = static_cast<std::size_t>(win_parity_);
        for (int sidx = 0; sidx < nshards_; ++sidx)
          window_task(sidx, k, par, win_lo, win_hi);
        on_window_done();
      }
    }

    t_end = metrics_.hit_max_steps ? max_steps : last_activity_ + 1;
  }

  // Crashes of nodes the run never touched (cold kills): apply those the
  // stepped engine would have reached - scheduled strictly before t_end.
  if (any_crash_) for (NodeId i = 0; i < cfg_.n; ++i) {
    const Step ca = crash_at_[static_cast<std::size_t>(i)];
    if (ca == kNever || ca >= t_end) continue;
    const auto t = soa_.kill(i);
    if (t.changed && cfg_.trace != nullptr)
      cfg_.trace->on_event({std::max<Step>(ca, 0), TraceEvent::Kind::kFail, i,
                            kNoNode, Tag::kGossip});
  }

  if (prof != nullptr) {
    for (const auto& st : shards_) {
      prof->callbacks_receive += st.prof_receive;
      prof->callbacks_tick += st.prof_tick;
      prof->events_scheduled += st.prof_scheduled;
      prof->events_fired += st.prof_fired;
      prof->queue_max_bucket =
          std::max(prof->queue_max_bucket, st.prof_max_bucket);
      prof->deliver_s = std::max(prof->deliver_s, st.prof_a_s);
      prof->route_s = std::max(prof->route_s, st.prof_b_s);
      prof->boundary_msgs += st.boundary_msgs;
      prof->window_stalls += st.window_stalls;
      prof->shard_stats.push_back(
          {st.prof_fired, st.boundary_msgs, st.window_stalls});
    }
    prof->shards = nshards_;
    prof->windows = windows_done_;
    prof->steps = t_end;
    prof->wall_s = ProfileClock::seconds_since(prof_run0);
    prof->bytes_per_node =
        static_cast<std::int64_t>(footprint_bytes() / n);
    prof->peak_rss_bytes = current_peak_rss_bytes();
    prof->huge_page_bytes = current_huge_page_bytes();
  }
  for (const auto& st : shards_) st.counts.merge_into(metrics_);
  soa_.finalize(metrics_, cfg_.root, t_end, cfg_.record_node_detail);
  if (cfg_.telemetry != nullptr) cfg_.telemetry->finish_run(metrics_);
  return metrics_;
}

}  // namespace cg
