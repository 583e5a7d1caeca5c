// Stepped LogP broadcast simulator - the reference oracle.
//
// The engine advances global time in steps of the LogP overhead O and
// drives protocol state machines.  Per step it:
//   1. crashes nodes whose online-failure time has come;
//   2. delivers messages scheduled for this step (calling on_receive);
//   3. ticks every active node, in ascending node order (calling on_tick).
//
// A message emitted during on_tick at step s is delivered at step
// s + L/O + 1.  Protocols may emit AT MOST ONE message per node per step
// (enforced by the shared SendGate), which models the per-message overhead
// O of the LogP model.
//
// The model itself lives in src/sim/core/: NetworkModel (delays, jitter,
// per-link extras, loss), SendGate (emission rate limit) and BasicCtx (the
// protocol-facing API).  This engine and the window-sharded ShardedEngine
// (sim/sharded_engine.hpp) are two schedulers over that one model, and
// they share its storage too: SoaNodeStore (sim/core/soa_store.hpp) holds
// the nodes, their RNG streams, the lifecycle arrays and the Active bitmap
// the tick sweep walks, and every scheduled delivery is a 32-byte CalRecord
// in a CalendarSlot (sim/core/calendar.hpp).  The two produce identical
// RunMetrics and canonical traces (tests/test_engine_parity.cpp).  This
// engine dispatches each slot in insertion order (ascending send step,
// then the order that step issued its sends), so it needs no slot merge,
// and it names no protocol: protocol-specific kernels live on the sharded
// engine only.
//
// Protocol (Node) requirements - a Node type must provide:
//   struct Params {...};
//   Node(const Params&, NodeId self, NodeId n);
//   template <class Ctx> void on_start(Ctx&);                // step 0, every alive node
//   template <class Ctx> void on_receive(Ctx&, const Message&);
//   template <class Ctx> void on_tick(Ctx&);                 // once per step while active
//
// Nodes begin Idle (except the root, which is Active).  A node becomes
// Active when it first receives a message, and Done when it calls
// Ctx::complete().  Only Active nodes are ticked.  The run stops when no
// node is Active and no message is in flight (or max_steps as a safety).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/huge_pages.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/telemetry.hpp"
#include "proto/message.hpp"
#include "sim/core/basic_ctx.hpp"
#include "sim/core/calendar.hpp"
#include "sim/core/inbox.hpp"
#include "sim/core/network_model.hpp"
#include "sim/core/profile.hpp"
#include "sim/core/run_config.hpp"
#include "sim/core/send_gate.hpp"
#include "sim/core/soa_store.hpp"
#include "sim/failure.hpp"
#include "sim/logp.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace cg {

template <class Node>
class Engine {
 public:
  using Params = typename Node::Params;
  using Ctx = BasicCtx<Engine>;

  Engine(RunConfig cfg, Params params)
      : cfg_(std::move(cfg)), params_(std::move(params)) {
    CG_CHECK(cfg_.n >= 1);
    CG_CHECK(cfg_.root >= 0 && cfg_.root < cfg_.n);
    cfg_.logp.validate();
  }

  RunMetrics run() { return run_impl(); }

  /// Run with a fresh config/params, REUSING this engine's allocated state
  /// (node store, calendar slots, inboxes, scratch).  This is the
  /// trial-farm entry point (harness TrialWorkspace): steady-state reruns
  /// of fault-free configs perform zero heap allocations when the Node
  /// constructor itself is allocation-free (tests/test_trial_farm.cpp pins
  /// this).  Produces exactly the metrics a fresh Engine would.
  RunMetrics run(const RunConfig& cfg, const Params& params) {
    cfg_ = cfg;  // copy-assign: vector members reuse capacity
    params_ = params;
    CG_CHECK(cfg_.n >= 1);
    CG_CHECK(cfg_.root >= 0 && cfg_.root < cfg_.n);
    cfg_.logp.validate();
    return run_impl();
  }

  /// Access a node's protocol state after (or during) the run - tests only.
  const Node& node(NodeId i) const { return store_.node(i); }

  // --- BasicCtx hooks (protocol-facing; not part of the public API) ------
  Step ctx_now() const { return step_; }
  const RunConfig& ctx_cfg() const { return cfg_; }
  Xoshiro256& ctx_rng(NodeId i) { return store_.rng(i); }
  void ctx_send(NodeId from, NodeId to, const Message& m) {
    do_send(from, to, m);
  }
  void ctx_activate(NodeId i) {
    if (store_.activate(i, step_)) ++active_count_;
  }
  void ctx_mark_colored(NodeId i) {
    if (store_.mark_colored(i, step_, rx_payload_)) {
      trace({step_, TraceEvent::Kind::kColored, i, kNoNode, Tag::kGossip});
      if (cfg_.telemetry != nullptr) cfg_.telemetry->record_colored(0, step_);
    }
  }
  void ctx_adopt_payload(NodeId i, std::uint32_t d) {
    store_.set_held_payload(i, d);
  }
  void ctx_deliver(NodeId i) {
    if (store_.mark_delivered(i, step_))
      trace({step_, TraceEvent::Kind::kDelivered, i, kNoNode, Tag::kGossip});
  }
  void ctx_complete(NodeId i) {
    const auto t = store_.complete(i, step_);
    if (!t.changed) return;
    if (t.was_active) --active_count_;
    trace({step_, TraceEvent::Kind::kComplete, i, kNoNode, Tag::kGossip});
  }
  bool ctx_colored(NodeId i) const { return store_.colored(i); }
  void ctx_note_dropped(NodeId) { counts_.add_dropped(); }

 private:
  // Cache-line aligned, so the per-step loops' position modulo 64 bytes
  // depends only on this function's own code.  At the default 16-byte
  // alignment, a change in the size of unrelated code linked before it
  // moved the tick sweep's branches across line boundaries and changed
  // the speed of fault-campaign runs by 10-30% (docs/PERF.md section 8).
  [[gnu::aligned(64)]] RunMetrics run_impl();
  void do_send(NodeId from, NodeId to, const Message& m);
  void apply_failure(NodeId i);
  void apply_restart(NodeId i);
  void dispatch(NodeId to, const Message& m);
  void trace(TraceEvent ev) {
    if (cfg_.trace != nullptr) cfg_.trace->on_event(ev);
  }
  RunMetrics finalize();

  RunConfig cfg_;
  Params params_;

  // Run state (valid during run()).
  Step step_ = 0;
  SoaNodeStore<Node> store_;
  NetworkModel net_;
  SendGate gate_;
  ByzantineModel byz_;
  std::uint32_t rx_payload_ = 0;  ///< digest of the message being dispatched
  MessageCounts counts_;
  std::vector<CalendarSlot> calendar_;         // ring buffer, D+1 slots
  CalendarSlot due_;                           // per-step scratch
  NodeArray<InboxBuf> inbox_;                  // kOnePerStep only
  NodeArray<Step> inbox_stamp_;                // kOnePerStep scratch
  NodeArray<std::size_t> inbox_tail_;          // kOnePerStep scratch
  std::vector<OnlineFailure> online_scratch_;  // sorted crash schedule
  std::vector<Restart> revive_scratch_;        // sorted revival schedule
  std::int64_t in_flight_ = 0;
  NodeId active_count_ = 0;
  RunMetrics metrics_{};
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <class Node>
void Engine<Node>::do_send(NodeId from, NodeId to, const Message& m) {
  CG_CHECK(to >= 0 && to < cfg_.n);
  CG_CHECK_MSG(to != from, "node sent a message to itself");
  gate_.on_send(from, step_);
  Message adv = m;
  if (adv.payload == 0) adv.payload = store_.held_payload(from);
  if (byz_.any()) {
    const ByzAction act = byz_.transform(from, to, adv, step_);
    if (act == ByzAction::kSuppressed) {
      counts_.add_suppressed();
      return;  // swallowed at the sender: no send/lost trace, no route
    }
    if (act == ByzAction::kEquivocated) counts_.add_equivocated();
    if (act == ByzAction::kForged) counts_.add_forged();
    counts_.add(adv);
    if (cfg_.trace != nullptr) {
      trace({step_, TraceEvent::Kind::kSend, from, to, adv.tag});
      if (act == ByzAction::kEquivocated)
        trace({step_, TraceEvent::Kind::kEquivocated, from, to, adv.tag});
      else if (act == ByzAction::kForged)
        trace({step_, TraceEvent::Kind::kForged, from, to, adv.tag});
    }
  } else {
    counts_.add(adv);
    if (cfg_.trace != nullptr)
      trace({step_, TraceEvent::Kind::kSend, from, to, adv.tag});
  }

  const Step at = net_.route(from, to, step_);
  if (at == NetworkModel::kLost) {  // lost on the wire (counted as work)
    trace({step_, TraceEvent::Kind::kLost, from, to, adv.tag});
    return;
  }

  adv.src = from;
  auto& slot = calendar_[static_cast<std::size_t>(
      at % static_cast<Step>(calendar_.size()))];
  slot.push(step_, to, adv);
  ++in_flight_;
  if (cfg_.profile != nullptr) {
    ++cfg_.profile->events_scheduled;
    cfg_.profile->queue_max_bucket =
        std::max(cfg_.profile->queue_max_bucket,
                 static_cast<std::int64_t>(slot.recs.size()));
  }
}

template <class Node>
void Engine<Node>::apply_failure(NodeId i) {
  const auto t = store_.kill(i);
  if (!t.changed) return;
  if (t.was_active) --active_count_;
  trace({step_, TraceEvent::Kind::kFail, i, kNoNode, Tag::kGossip});
}

template <class Node>
void Engine<Node>::apply_restart(NodeId i) {
  // The rejoined node runs a FRESH protocol instance: uncolored, Idle,
  // passive until its first receive (we do not re-run on_start; the
  // broadcast started without it).
  if (!store_.revive(i, params_)) return;
  trace({step_, TraceEvent::Kind::kRestart, i, kNoNode, Tag::kGossip});
}

template <class Node>
void Engine<Node>::dispatch(NodeId to, const Message& m) {
  --in_flight_;
  if (!store_.alive(to) || store_.done(to)) return;  // dropped
  if (store_.activate(to, step_)) ++active_count_;
  if (cfg_.trace != nullptr)
    trace({step_, TraceEvent::Kind::kDeliver, to, m.src, m.tag});
  if (cfg_.telemetry != nullptr)
    cfg_.telemetry->record_delivery(0, to, step_);
  if (cfg_.profile != nullptr) ++cfg_.profile->callbacks_receive;
  Ctx ctx(*this, to);
  rx_payload_ = m.payload;  // ambient digest for ctx_mark_colored
  store_.node(to).on_receive(ctx, m);
  rx_payload_ = 0;
}

template <class Node>
RunMetrics Engine<Node>::run_impl() {
  const auto n = static_cast<std::size_t>(cfg_.n);
  store_.reset(cfg_.n, cfg_.seed, params_);
  net_.reset(cfg_);
  gate_.reset(cfg_.n);
  byz_.reset(cfg_.n, cfg_.root, cfg_.seed, cfg_.byzantine);
  for (const auto& b : cfg_.byzantine.nodes) store_.mark_byzantine(b.node);
  rx_payload_ = 0;
  counts_ = MessageCounts{};
  // Reset the ring to D+1 empty slots, keeping each slot's capacity when
  // the delay structure is unchanged (the trial-farm steady state).
  const auto cal_slots = static_cast<std::size_t>(net_.max_delay()) + 1;
  if (calendar_.size() == cal_slots) {
    for (auto& slot : calendar_) slot.clear();
  } else {
    calendar_.assign(cal_slots, {});
  }
  if (cfg_.rx == RxPolicy::kOnePerStep) {
    if (inbox_.size() == n) {
      for (auto& box : inbox_) box.clear();
    } else {
      inbox_.assign(n, {});
    }
    inbox_stamp_.assign(n, -1);
    inbox_tail_.assign(n, 0);
  }
  in_flight_ = 0;
  active_count_ = 0;
  metrics_ = RunMetrics{};
  step_ = 0;

  // Pre-failed nodes.
  for (const NodeId i : cfg_.failures.pre_failed) store_.pre_fail(i);
  CG_CHECK_MSG(store_.alive(cfg_.root), "root must be active at start");

  // Sort crash events (online failures + restart downs, in that order for
  // same-step determinism across engines) and revivals by time.  Member
  // scratch so reruns reuse the vectors' capacity.
  auto& online = online_scratch_;
  online.clear();
  online.insert(online.end(), cfg_.failures.online.begin(),
                cfg_.failures.online.end());
  for (const auto& r : cfg_.failures.restarts)
    online.push_back({r.node, r.down_at});
  std::stable_sort(online.begin(), online.end(),
                   [](const OnlineFailure& a, const OnlineFailure& b) {
                     return a.at_step < b.at_step;
                   });
  std::size_t next_failure = 0;
  auto& revives = revive_scratch_;
  revives.clear();
  revives.insert(revives.end(), cfg_.failures.restarts.begin(),
                 cfg_.failures.restarts.end());
  std::stable_sort(revives.begin(), revives.end(),
                   [](const Restart& a, const Restart& b) {
                     return a.up_at < b.up_at;
                   });
  std::size_t next_revive = 0;

  EngineProfile* prof = cfg_.profile;
  if (prof != nullptr) *prof = EngineProfile{};
  if (cfg_.telemetry != nullptr) cfg_.telemetry->attach(cfg_.n, 1);
  const auto prof_run0 = ProfileClock::now();

  // Start: root is active; everyone alive gets on_start.  The root counts
  // as activated at step 0 (colored at 0, first emission at step 1).
  store_.activate(cfg_.root, 0);
  ++active_count_;
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (!store_.alive(i)) continue;
    if (prof != nullptr) ++prof->callbacks_start;
    Ctx ctx(*this, i);
    store_.node(i).on_start(ctx);
  }

  const Step max_steps = cfg_.effective_max_steps();
  auto& due = due_;  // member scratch (capacity persists across runs)
  // Pending revivals count as outstanding work: the run must reach every
  // scheduled restart so all engines agree on the final population.
  while (active_count_ > 0 || in_flight_ > 0 || next_revive < revives.size()) {
    if (step_ >= max_steps) {
      metrics_.hit_max_steps = true;
      break;
    }

    auto prof_phase0 = prof != nullptr ? ProfileClock::now()
                                       : ProfileClock::TimePoint{};

    // 1. crash failures scheduled at or before this step, then revivals
    while (next_failure < online.size() && online[next_failure].at_step <= step_) {
      apply_failure(online[next_failure].node);
      ++next_failure;
    }
    while (next_revive < revives.size() && revives[next_revive].up_at <= step_) {
      apply_restart(revives[next_revive].node);
      ++next_revive;
    }

    // 2. deliveries scheduled for this step, in insertion order (sends
    // land at least one step ahead, so dispatch never touches `due`)
    due.clear();
    std::swap(due, calendar_[static_cast<std::size_t>(
                       step_ % static_cast<Step>(calendar_.size()))]);
    const CalRecord* const recs = due.recs.data();
    const std::size_t due_n = due.recs.size();
    if (prof != nullptr) prof->events_fired += static_cast<std::int64_t>(due_n);
    if (cfg_.rx == RxPolicy::kDrainAll) {
      // Receivers arrive in near-random order, so each dispatch starts
      // with a cold miss on the target node: prefetch the node's header
      // lines several entries ahead, overlapping those misses with the
      // preceding handlers.
      for (std::size_t k = 0; k < due_n; ++k) {
        if (k + 6 < due_n) {
          const auto* nxt =
              reinterpret_cast<const char*>(&store_.node(recs[k + 6].to));
          __builtin_prefetch(nxt);
          __builtin_prefetch(nxt + 64);
        }
        dispatch(recs[k].to, due.message(recs[k]));
      }
    } else {
      // Append this step's arrivals, then canonically order each inbox's
      // new tail so all engines defer the same message to the next step.
      for (std::size_t k = 0; k < due_n; ++k) {
        const auto idx = static_cast<std::size_t>(recs[k].to);
        if (inbox_stamp_[idx] != step_) {
          inbox_stamp_[idx] = step_;
          inbox_tail_[idx] = inbox_[idx].size();
        }
        inbox_[idx].push_back(due.message(recs[k]));
      }
      for (std::size_t k = 0; k < due_n; ++k) {
        const auto idx = static_cast<std::size_t>(recs[k].to);
        if (inbox_stamp_[idx] != step_) continue;  // already sorted
        inbox_stamp_[idx] = -1;
        auto& box = inbox_[idx];
        std::sort(box.at(inbox_tail_[idx]), box.end(), rx_order_before);
      }
      for (NodeId i = 0; i < cfg_.n; ++i) {
        auto& box = inbox_[static_cast<std::size_t>(i)];
        if (!box.empty()) {
          const Message m = box.front();
          box.pop_front();
          dispatch(i, m);
        }
      }
    }

    if (prof != nullptr) {
      prof->deliver_s += ProfileClock::seconds_since(prof_phase0);
      prof_phase0 = ProfileClock::now();
    }

    // 3. ticks over the Active bitmap, in ascending node order - a node
    // activated at step c (first receive, or the root at step 0) may only
    // emit from step c+1 (its receive occupied step c), so its first tick
    // is skipped.  A tick changes no other node's state, so the sweep's
    // word-at-a-time reads see exactly the Active set a per-node scan
    // would.
    store_.active_bits().for_each_set(0, cfg_.n, [&](NodeId i) {
      if (store_.activated_at(i) == step_) return;
      if (prof != nullptr) ++prof->callbacks_tick;
      Ctx ctx(*this, i);
      store_.node(i).on_tick(ctx);
    });
    if (prof != nullptr) prof->tick_s += ProfileClock::seconds_since(prof_phase0);

    ++step_;
    if (cfg_.heartbeat != nullptr) cfg_.heartbeat->beat(step_, max_steps, 0);
  }

  if (prof != nullptr) {
    prof->steps = step_;
    prof->wall_s = ProfileClock::seconds_since(prof_run0);
    std::size_t fp = store_.footprint_bytes() + due_.footprint_bytes();
    for (const auto& slot : calendar_) fp += slot.footprint_bytes();
    for (const auto& ib : inbox_) fp += ib.capacity() * sizeof(Message);
    fp += inbox_stamp_.capacity() * sizeof(Step) +
          inbox_tail_.capacity() * sizeof(std::size_t);
    prof->bytes_per_node =
        static_cast<std::int64_t>(fp / static_cast<std::size_t>(cfg_.n));
    prof->peak_rss_bytes = current_peak_rss_bytes();
    prof->huge_page_bytes = current_huge_page_bytes();
  }
  return finalize();
}

template <class Node>
RunMetrics Engine<Node>::finalize() {
  counts_.merge_into(metrics_);
  store_.finalize(metrics_, cfg_.root, step_, cfg_.record_node_detail);
  if (cfg_.telemetry != nullptr) cfg_.telemetry->finish_run(metrics_);
  return metrics_;
}

}  // namespace cg
