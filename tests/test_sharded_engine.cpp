// Shard-invariance and substrate tests for the window-sharded engine
// (sim/sharded_engine.hpp).  The engine's contract is stronger than the
// cross-engine metric parity pinned in test_engine_parity.cpp: for ANY
// shard count the run must be bit-identical - same canonical trace bytes,
// same serialized metrics, same t_end - because shards only exchange
// messages at delivery-window boundaries in canonical (sent_at, sender)
// order and every RNG stream is owned by exactly one node or sender.
//
// These tests carry the ctest label `sanitize`, so the tsan preset runs
// the multi-shard executions under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gossip/gos.hpp"
#include "harness/runner.hpp"
#include "obs/report.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/core/bitset.hpp"
#include "sim/core/inbox.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

AlgoConfig algo_cfg(Algo algo) {
  AlgoConfig acfg;
  acfg.T = 24;
  acfg.drain_extra = 2;
  if (algo == Algo::kOcg) acfg.ocg_corr_sends = 10;
  if (algo == Algo::kFcg) acfg.fcg_f = 2;
  return acfg;
}

struct ShardRun {
  std::string trace_jsonl;  ///< canonically sorted JSONL trace
  std::string metrics_json; ///< obs::to_json of the RunMetrics
  Step t_end = 0;
};

ShardRun run_sharded(Algo algo, const AlgoConfig& acfg, const RunConfig& base,
                     int shards) {
  VectorTrace trace;
  RunConfig cfg = base;
  cfg.trace = &trace;
  cfg.record_node_detail = true;
  const RunMetrics m = run_once(algo, acfg, cfg, {EngineKind::kSharded, shards});
  std::vector<TraceEvent> events = trace.events();
  obs::canonical_sort(events);
  return {obs::to_jsonl(events), obs::to_json(m), m.t_end};
}

// ~100-seed randomized sweep: a fresh full fault stack per seed (jitter,
// i.i.d. + burst loss, pre/online failures, crash-restarts, stragglers,
// partitions, reliable sublayer, both rx policies, all four protocols).
// The canonical trace AND the serialized report metrics must be
// BYTE-IDENTICAL across shard counts {1, 2, 8}.
TEST(ShardedEngine, ShardCountInvarianceUnderFaultStacks) {
  constexpr int kSeeds = 100;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 gen(0xD1B54A32D192ED03ull * static_cast<unsigned>(seed));
    auto pick = [&](int lo, int hi) {  // inclusive
      return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
    };

    RunConfig cfg;
    cfg.n = pick(40, 160);
    cfg.logp = (pick(0, 1) != 0) ? LogP::piz_daint() : LogP::unit();
    cfg.seed = static_cast<std::uint64_t>(seed) * 6151u;
    cfg.rx = (pick(0, 1) != 0) ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
    cfg.jitter_max = pick(0, 2);
    cfg.drop_prob = 0.01 * pick(0, 3);
    if (pick(0, 1) != 0)
      cfg.burst = BurstLoss::from_rate(0.01 * pick(2, 6), pick(2, 5));
    auto fresh_node = [&](std::set<NodeId>& used) {
      for (;;) {
        const auto i = static_cast<NodeId>(pick(1, cfg.n - 1));
        if (used.insert(i).second) return i;
      }
    };
    std::set<NodeId> failed, straggling, partitioned;
    for (int k = pick(0, 2); k > 0; --k)
      cfg.failures.pre_failed.push_back(fresh_node(failed));
    for (int k = pick(0, 2); k > 0; --k)
      cfg.failures.online.push_back(
          {fresh_node(failed), static_cast<Step>(pick(3, 50))});
    if (pick(0, 1) != 0) {
      const Step down = static_cast<Step>(pick(5, 35));
      cfg.failures.restarts.push_back(
          {fresh_node(failed), down, down + static_cast<Step>(pick(1, 10))});
    }
    for (int k = pick(0, 2); k > 0; --k)
      cfg.stragglers.push_back(
          {fresh_node(straggling), static_cast<Step>(pick(2, 4))});
    if (pick(0, 1) != 0) {
      PartitionWindow pw;
      pw.from = static_cast<Step>(pick(2, 18));
      pw.until = pw.from + static_cast<Step>(pick(2, 12));
      for (int k = pick(1, 4); k > 0; --k)
        pw.members.push_back(fresh_node(partitioned));
      cfg.partitions.push_back(pw);
    }

    const Algo algo =
        std::array{Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg}[
            static_cast<std::size_t>(pick(0, 3))];
    AlgoConfig acfg = algo_cfg(algo);
    acfg.reliable.enabled = pick(0, 1) != 0;

    SCOPED_TRACE("seed=" + std::to_string(seed) + " algo=" +
                 std::string(algo_name(algo)) + " n=" + std::to_string(cfg.n));
    const ShardRun one = run_sharded(algo, acfg, cfg, 1);
    ASSERT_FALSE(one.trace_jsonl.empty());
    for (const int shards : {2, 8}) {
      const ShardRun multi = run_sharded(algo, acfg, cfg, shards);
      ASSERT_EQ(one.trace_jsonl, multi.trace_jsonl) << shards << " shards";
      ASSERT_EQ(one.metrics_json, multi.metrics_json) << shards << " shards";
    }
  }
}

// The sharded engine agrees with the stepped reference INCLUDING t_end:
// it reconstructs the stepped engine's exit step exactly.
TEST(ShardedEngine, MatchesSteppedIncludingExitStep) {
  for (const auto rx : {RxPolicy::kDrainAll, RxPolicy::kOnePerStep}) {
    RunConfig cfg;
    cfg.n = 160;
    cfg.logp = LogP::piz_daint();
    cfg.seed = 31;
    cfg.rx = rx;
    cfg.jitter_max = 2;
    cfg.drop_prob = 0.02;
    cfg.failures.pre_failed = {3};
    cfg.failures.online.push_back({25, 7});
    cfg.failures.restarts.push_back({9, 12, 30});
    cfg.record_node_detail = true;
    const AlgoConfig acfg = algo_cfg(Algo::kCcg);
    const RunMetrics stepped =
        run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
    for (const int shards : {1, 2, 8}) {
      const RunMetrics sh =
          run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, shards});
      SCOPED_TRACE(shards);
      EXPECT_EQ(obs::to_json(stepped), obs::to_json(sh));
      EXPECT_EQ(stepped.t_end, sh.t_end);
    }
  }
}

// Substrate invariants from the engine profile: per-shard stats reconcile
// with the totals, every window is accounted, and the memory plan reports
// a positive per-node footprint.
TEST(ShardedEngine, ProfileSubstrateInvariants) {
  RunConfig cfg;
  cfg.n = 512;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 5;
  EngineProfile prof;
  cfg.profile = &prof;
  const AlgoConfig acfg = algo_cfg(Algo::kCcg);
  const RunMetrics m =
      run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, 4});
  EXPECT_TRUE(m.all_active_colored);

  EXPECT_EQ(prof.shards, 4);
  EXPECT_EQ(prof.shard_stats.size(), 4u);
  EXPECT_GT(prof.windows, 0);
  EXPECT_EQ(prof.steps, m.t_end);
  std::int64_t fired = 0, boundary = 0, stalls = 0;
  for (const auto& s : prof.shard_stats) {
    fired += s.events_fired;
    boundary += s.boundary_msgs;
    stalls += s.window_stalls;
  }
  EXPECT_EQ(fired, prof.events_fired);
  EXPECT_EQ(boundary, prof.boundary_msgs);
  EXPECT_EQ(stalls, prof.window_stalls);
  EXPECT_GT(prof.boundary_msgs, 0);  // gossip targets are uniform: must cross
  // Calendar ledger balances on a drained run.
  EXPECT_EQ(prof.events_fired, prof.events_scheduled);
  EXPECT_GT(prof.bytes_per_node, 0);
  EXPECT_LT(prof.bytes_per_node, 10000);
  EXPECT_GT(prof.peak_rss_bytes, 0);
}

// Degenerate and truncation edges: tiny rings, a non-zero root, and a
// max_steps cut must behave identically for any shard count (the block
// partition clamps empty shards away).
TEST(ShardedEngine, EdgeCases) {
  const AlgoConfig acfg = algo_cfg(Algo::kCcg);
  for (const NodeId n : {1, 2, 5}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.seed = 3;
    const RunMetrics stepped =
        run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
    for (const int shards : {1, 8}) {
      const RunMetrics sh =
          run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, shards});
      SCOPED_TRACE(std::to_string(n) + " nodes");
      EXPECT_EQ(obs::to_json(stepped), obs::to_json(sh));
    }
  }
  {
    RunConfig cfg;
    cfg.n = 96;
    cfg.seed = 11;
    cfg.root = 63;
    cfg.max_steps = 7;  // cut mid-gossip
    const RunMetrics stepped =
        run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
    EXPECT_TRUE(stepped.hit_max_steps);
    for (const int shards : {1, 2, 8}) {
      const RunMetrics sh =
          run_once(Algo::kCcg, acfg, cfg, {EngineKind::kSharded, shards});
      SCOPED_TRACE(shards);
      EXPECT_EQ(obs::to_json(stepped), obs::to_json(sh));
    }
  }
}

// Direct-construction path (bypassing the runner): the template is usable
// with any Node type and reports through RunConfig::profile.
TEST(ShardedEngine, DirectConstruction) {
  RunConfig cfg;
  cfg.n = 256;
  cfg.seed = 17;
  EngineProfile prof;
  cfg.profile = &prof;
  GosNode::Params p;
  p.T = 20;
  ShardedEngine<GosNode> eng(cfg, p, 2);
  const RunMetrics m = eng.run();
  EXPECT_GT(m.n_colored, 0);
  EXPECT_EQ(prof.shards, 2);
  EXPECT_GT(prof.callbacks_tick, 0);
}

// Minimal protocol with a quiet stretch: the root sends once at step 0 to
// `relay` and completes; `relay` forwards once to `target` on receive and
// completes.  No node ever ticks, so nothing happens between the arrivals.
class QuietRelayNode {
 public:
  struct Params {
    NodeId relay = 1;
    NodeId target = 2;
  };
  QuietRelayNode(const Params& p, NodeId self, NodeId) : p_(p), self_(self) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (!ctx.is_root()) return;
    ctx.mark_colored();
    ctx.deliver();
    send(ctx, p_.relay);
    ctx.complete();
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message&) {
    ctx.mark_colored();
    ctx.deliver();
    if (self_ == p_.relay) send(ctx, p_.target);
    ctx.complete();
  }

  template <class Ctx>
  void on_tick(Ctx&) {}

 private:
  template <class Ctx>
  static void send(Ctx& ctx, NodeId to) {
    Message m;
    m.tag = Tag::kGossip;
    m.time = ctx.now();
    ctx.send(to, m);
  }

  Params p_;
  NodeId self_;
};

// A crash scheduled for the step a message arrives must win over that
// arrival, as in the stepped engine (crashes before deliveries within a
// step), even when the victim's shard sat idle until then.  The sharded
// engine applies crashes lazily - when the node would next act - so this
// is exactly the order it must get right.  Root -> relay at step 0,
// relay -> target at step 8 (delivery delay 8 = one window), target dies
// at step 16, the arrival step.  The kill's protocol reset would scrub a
// wrong order from RunMetrics, so the check is on the canonical trace:
// the stepped engine has only a kFail for the target, a wrong order adds
// deliver/colored/delivered/complete events.  target = 2 keeps the last
// hop inside shard 0; target = 100 sends it across the shard boundary on
// 2 shards (64-node blocks).
TEST(ShardedEngine, CrashBeatsSameStepArrivalAfterQuietStretch) {
  auto canonical = [](const VectorTrace& t) {
    std::vector<TraceEvent> events = t.events();
    obs::canonical_sort(events);
    return obs::to_jsonl(events);
  };
  for (const NodeId target : {2, 100}) {
    RunConfig base;
    base.n = 128;
    base.logp = LogP{.l_over_o = 7, .o_us = 1.0};  // delivery delay = 8 steps
    base.seed = 1;
    base.failures.online.push_back({target, 16});
    QuietRelayNode::Params p;
    p.relay = 1;
    p.target = target;

    VectorTrace stepped_trace;
    RunConfig scfg = base;
    scfg.trace = &stepped_trace;
    Engine<QuietRelayNode> stepped(scfg, p);
    const RunMetrics s = stepped.run();
    const auto& sev = stepped_trace.events();
    ASSERT_EQ(std::count_if(sev.begin(), sev.end(),
                            [&](const TraceEvent& ev) {
                              return ev.node == target;
                            }),
              1);
    ASSERT_EQ(std::count_if(sev.begin(), sev.end(),
                            [&](const TraceEvent& ev) {
                              return ev.node == target && ev.step == 16 &&
                                     ev.kind == TraceEvent::Kind::kFail;
                            }),
              1);

    for (const int shards : {1, 2}) {
      SCOPED_TRACE("target=" + std::to_string(target) +
                   " shards=" + std::to_string(shards));
      VectorTrace sharded_trace;
      RunConfig hcfg = base;
      hcfg.trace = &sharded_trace;
      ShardedEngine<QuietRelayNode> sharded(hcfg, p, shards);
      const RunMetrics h = sharded.run();
      EXPECT_EQ(obs::to_json(s), obs::to_json(h));
      EXPECT_EQ(canonical(stepped_trace), canonical(sharded_trace));
      // The target was never colored: the crash precedes the arrival.
      for (const TraceEvent& ev : sharded_trace.events())
        if (ev.node == target) {
          EXPECT_EQ(ev.kind, TraceEvent::Kind::kFail);
        }
    }
  }
}

// --- SoA substrate units ---------------------------------------------------

TEST(PackedBits, SetTestClearAndWordBoundaries) {
  PackedBits b;
  b.reset(200);
  for (const NodeId i : {0, 1, 63, 64, 65, 127, 128, 199}) {
    EXPECT_FALSE(b.test(i));
    b.set(i);
    EXPECT_TRUE(b.test(i));
  }
  b.clear(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(65));

  std::vector<NodeId> seen;
  b.for_each_set(0, 200, [&](NodeId i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<NodeId>{0, 1, 63, 65, 127, 128, 199}));

  // Sub-range sweeps respect [lo, hi) across word boundaries.
  seen.clear();
  b.for_each_set(63, 128, [&](NodeId i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<NodeId>{63, 65, 127}));
  EXPECT_FALSE(b.none_in(63, 128));
  EXPECT_TRUE(b.none_in(66, 127));

  seen.clear();
  b.for_each_set(100, 100, [&](NodeId i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
}

TEST(InboxSlab, FifoPerNodeAcrossSharedArena) {
  InboxSlab slab;
  slab.reset(3);
  Message m;
  m.tag = Tag::kGossip;
  for (int k = 0; k < 5; ++k) {
    m.time = k;
    slab.push(0, m);
    m.time = 10 + k;
    slab.push(2, m);
  }
  EXPECT_TRUE(slab.empty(1));
  for (int k = 0; k < 5; ++k) {
    ASSERT_FALSE(slab.empty(0));
    EXPECT_EQ(slab.front(0).time, k);
    slab.pop(0);
    ASSERT_FALSE(slab.empty(2));
    EXPECT_EQ(slab.front(2).time, 10 + k);
    slab.pop(2);
  }
  EXPECT_TRUE(slab.empty(0));
  EXPECT_TRUE(slab.empty(2));
  EXPECT_GT(slab.footprint_bytes(), 0u);
}

}  // namespace
}  // namespace cg
