// The fault-injection layer (src/sim/fault/): Gilbert-Elliott burst-loss
// math, config validation, restart / straggler / partition semantics at
// the trace level, the reliable sublayer's termination bound, and the
// campaign runner's guarantee predicates + JSON report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gossip/reliable.hpp"
#include "harness/campaign.hpp"
#include "harness/runner.hpp"
#include "harness/scenarios.hpp"
#include "obs/report.hpp"
#include "sim/fault/burst_loss.hpp"
#include "sim/fault/validate.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

// ------------------------------------------------------- burst loss math --

TEST(BurstLoss, DisabledByDefault) {
  const BurstLoss b;
  EXPECT_FALSE(b.enabled());
  EXPECT_DOUBLE_EQ(b.stationary_bad(), 0.0);
}

TEST(BurstLoss, FromRateHitsTargetBurstLengthAndLossRate) {
  const BurstLoss b = BurstLoss::from_rate(0.05, 4.0);
  EXPECT_TRUE(b.enabled());
  // Mean burst length = 1 / p_bad_good.
  EXPECT_DOUBLE_EQ(b.p_bad_good, 0.25);
  // Stationary fraction of bad steps = overall loss (loss_bad = 1).
  EXPECT_NEAR(b.stationary_bad(), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(b.loss_bad, 1.0);
  EXPECT_DOUBLE_EQ(b.loss_good, 0.0);
}

// ---------------------------------------------------- config validation --

RunConfig base_cfg(NodeId n = 16) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = 1;
  return cfg;
}

TEST(ConfigValidation, CleanConfigPasses) {
  EXPECT_EQ(config_error(base_cfg()), "");
}

TEST(ConfigValidation, BlackholeLinksAreLegal) {
  RunConfig cfg = base_cfg();
  cfg.drop_prob = 1.0;  // meaningful: every link a blackhole
  EXPECT_EQ(config_error(cfg), "");
  cfg.drop_prob = 1.3;
  EXPECT_NE(config_error(cfg), "");
}

TEST(ConfigValidation, RejectsDoubleCrash) {
  RunConfig cfg = base_cfg();
  cfg.failures.pre_failed = {3};
  cfg.failures.online.push_back({3, 5});
  EXPECT_NE(config_error(cfg).find("twice"), std::string::npos);
}

TEST(ConfigValidation, RejectsBadRestartWindow) {
  RunConfig cfg = base_cfg();
  cfg.failures.restarts.push_back({4, 10, 10});  // up_at <= down_at
  EXPECT_NE(config_error(cfg).find("up_at"), std::string::npos);
  cfg.failures.restarts.back() = {0, 2, 6};  // root cannot restart
  EXPECT_NE(config_error(cfg).find("root"), std::string::npos);
}

TEST(ConfigValidation, RejectsBadStragglerAndPartition) {
  RunConfig cfg = base_cfg();
  cfg.stragglers.push_back({7, 0});  // factor < 1
  EXPECT_NE(config_error(cfg), "");
  cfg.stragglers.clear();
  cfg.partitions.push_back({8, 8, {1, 2}});  // empty window
  EXPECT_NE(config_error(cfg), "");
  cfg.partitions.back() = {2, 9, {1, 1}};  // duplicate member
  EXPECT_NE(config_error(cfg), "");
}

TEST(ConfigValidation, RejectsBurstThatNeverEnds) {
  RunConfig cfg = base_cfg();
  cfg.burst.p_good_bad = 0.1;
  cfg.burst.p_bad_good = 0.0;
  EXPECT_NE(config_error(cfg).find("never end"), std::string::npos);
}

// ----------------------------------------------- semantics under faults --

// Blackhole links: nothing is ever delivered, yet every variant must still
// terminate - including with retransmission on, whose bounded retries are
// exactly what guarantees the sublayer drains.
TEST(FaultSemantics, BlackholeRunTerminates) {
  for (const bool reliable : {false, true}) {
    RunConfig cfg = base_cfg(16);
    cfg.drop_prob = 1.0;
    AlgoConfig acfg;
    acfg.T = 8;
    acfg.reliable.enabled = reliable;
    const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);
    EXPECT_FALSE(m.hit_max_steps) << "reliable=" << reliable;
    EXPECT_EQ(m.n_colored, 1) << "only the root ever holds the message";
  }
}

// Crash-restart: the trace shows the fail and the restart, the node
// rejoins alive (counts as active at the end) but with protocol state
// RESET - colored before the crash, uncolored after rejoining.  Nobody
// re-sweeps for it (CCG's correction pass is long gone by step 38), which
// is exactly why the campaign downgrades every claim under restarts.
TEST(FaultSemantics, RestartRevivesNodeWithStateReset) {
  VectorTrace trace;
  RunConfig cfg = base_cfg(32);
  cfg.record_node_detail = true;
  cfg.trace = &trace;
  cfg.failures.restarts.push_back({5, 30, 38});
  AlgoConfig acfg;
  acfg.T = 8;
  const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);

  EXPECT_EQ(m.n_active, 32);   // revived node is alive at the end
  EXPECT_EQ(m.n_colored, 31);  // ... but re-entered uncolored and stays so
  EXPECT_EQ(m.colored_at[5], kNever);
  EXPECT_FALSE(m.all_active_colored);
  bool failed = false, restarted = false;
  Step fail_at = kNever, restart_at = kNever;
  std::vector<Step> colored_steps;
  for (const auto& ev : trace.events()) {
    if (ev.node != 5) continue;
    if (ev.kind == TraceEvent::Kind::kFail) failed = true, fail_at = ev.step;
    if (ev.kind == TraceEvent::Kind::kRestart)
      restarted = true, restart_at = ev.step;
    if (ev.kind == TraceEvent::Kind::kColored) colored_steps.push_back(ev.step);
  }
  EXPECT_TRUE(failed);
  EXPECT_TRUE(restarted);
  EXPECT_EQ(fail_at, 30);
  EXPECT_EQ(restart_at, 38);
  // Colored exactly once - before the crash wiped it.
  ASSERT_EQ(colored_steps.size(), 1u);
  EXPECT_LT(colored_steps[0], fail_at);
}

// Straggler: every message the slow node emits takes factor * base delay;
// everyone else's messages are unaffected.
TEST(FaultSemantics, StragglerStretchesOnlyItsOwnSends) {
  VectorTrace trace;
  RunConfig cfg = base_cfg(8);
  cfg.trace = &trace;
  cfg.stragglers.push_back({0, 3});  // the root itself drags
  AlgoConfig acfg;
  acfg.T = 6;
  run_once(Algo::kCcg, acfg, cfg);

  const Step dd = cfg.logp.delivery_delay();
  std::multiset<std::pair<NodeId, Step>> sends;  // (sender, step)
  for (const auto& ev : trace.events())
    if (ev.kind == TraceEvent::Kind::kSend) sends.insert({ev.node, ev.step});
  int from_straggler = 0, from_others = 0;
  for (const auto& ev : trace.events()) {
    if (ev.kind != TraceEvent::Kind::kDeliver) continue;
    const Step lag = ev.peer == 0 ? 3 * dd : dd;
    EXPECT_EQ(sends.count({ev.peer, ev.step - lag}), 1u)
        << "delivery from " << ev.peer << " at step " << ev.step;
    (ev.peer == 0 ? from_straggler : from_others)++;
  }
  EXPECT_GT(from_straggler, 0);
  EXPECT_GT(from_others, 0);
}

// Partition: with one side cut off for the whole run, no member is ever
// colored, every non-member is, and the cross-boundary traffic shows up
// as kLost trace events.
TEST(FaultSemantics, PartitionBlocksCrossTrafficBothWays) {
  VectorTrace trace;
  RunConfig cfg = base_cfg(16);
  cfg.record_node_detail = true;
  cfg.trace = &trace;
  cfg.partitions.push_back({0, 100000, {8, 9, 10, 11}});
  AlgoConfig acfg;
  acfg.T = 8;
  const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);

  EXPECT_FALSE(m.hit_max_steps);
  EXPECT_EQ(m.n_colored, 12);
  for (NodeId i = 0; i < 16; ++i) {
    const bool member = i >= 8 && i <= 11;
    EXPECT_EQ(m.colored_at[static_cast<std::size_t>(i)] == kNever, member)
        << "node " << i;
  }
  int lost = 0;
  for (const auto& ev : trace.events())
    if (ev.kind == TraceEvent::Kind::kLost) ++lost;
  EXPECT_GT(lost, 0);
}

// Retransmission accounting: off by default; under loss the hardened
// variant reports its extra sends in msgs_retrans and they are part of
// msgs_total.
TEST(FaultSemantics, RetransmissionsAreCountedAndOffByDefault) {
  RunConfig cfg = base_cfg(64);
  cfg.burst = BurstLoss::from_rate(0.10, 4);
  AlgoConfig acfg;
  acfg.T = 10;
  const RunMetrics plain = run_once(Algo::kCcg, acfg, cfg);
  EXPECT_EQ(plain.msgs_retrans, 0);
  acfg.reliable.enabled = true;
  const RunMetrics rel = run_once(Algo::kCcg, acfg, cfg);
  EXPECT_GT(rel.msgs_retrans, 0);
  EXPECT_LE(rel.msgs_retrans, rel.msgs_total);
}

// bytes_per_node counts the heap a node reports (heap_bytes()): with the
// sublayer on, every CCG node holds its per-peer sequence, ack and
// retransmit state, which both engines must show.  That state is O(peers):
// the gap to a plain run must not grow with n (a per-node array sized by n
// would add n * 8 bytes or more).
TEST(FaultSemantics, BytesPerNodeCountsTheReliableSublayerHeap) {
  const auto sublayer_bytes = [](NodeId n, const ExecConfig& exec) {
    RunConfig cfg = base_cfg(n);
    AlgoConfig acfg = tune_for(Algo::kCcg, n, n, cfg.logp, 1e-4).acfg;
    EngineProfile plain, rel;
    cfg.profile = &plain;
    acfg.reliable.enabled = false;
    run_once(Algo::kCcg, acfg, cfg, exec);
    cfg.profile = &rel;
    acfg.reliable.enabled = true;
    run_once(Algo::kCcg, acfg, cfg, exec);
    return rel.bytes_per_node - plain.bytes_per_node;
  };
  for (const ExecConfig exec :
       {ExecConfig{EngineKind::kStepped, 1}, ExecConfig{EngineKind::kSharded, 2}}) {
    SCOPED_TRACE(engine_name(exec.engine));
    const std::int64_t small = sublayer_bytes(512, exec);
    const std::int64_t large = sublayer_bytes(4096, exec);
    EXPECT_GT(small, 0);
    EXPECT_GT(large, 0);
    EXPECT_LE(large, 2 * small) << "n=512: " << small << " B, n=4096: "
                                << large << " B";
  }
}

// ------------------------------------------------ reliable sublayer unit --

/// All ReliableLink asks of an engine context: the clock, LogP and a send
/// slot (recorded here instead of routed).
struct FakeCtx {
  Step t = 0;
  LogP lp = LogP::unit();
  std::vector<std::pair<NodeId, Message>> sent;

  Step now() const { return t; }
  const LogP& logp() const { return lp; }
  void send(NodeId to, const Message& m) { sent.emplace_back(to, m); }
};

Message tracked(NodeId src, Step seq) {
  Message m;
  m.tag = Tag::kFwd;
  m.src = src;
  m.time = seq;
  return m;
}

ReliableLink enabled_link() {
  ReliableParams p;
  p.enabled = true;
  ReliableLink link;
  link.reset_for_run(p, /*self=*/0);
  return link;
}

/// Flushes the link's send slot once; returns the kAck it sent (or fails).
Message flush_ack(ReliableLink& link, FakeCtx& ctx) {
  ctx.sent.clear();
  EXPECT_TRUE(link.on_tick(ctx));
  if (ctx.sent.size() != 1) {
    ADD_FAILURE() << "expected one send, got " << ctx.sent.size();
    return Message{};
  }
  EXPECT_EQ(ctx.sent[0].second.tag, Tag::kAck);
  Message ack = ctx.sent[0].second;
  ack.src = ctx.sent[0].first;  // the peer the ack went to
  return ack;
}

TEST(ReliableLink, DedupsOnTheHighestSeqPerSender) {
  using Rx = ReliableLink::Rx;
  ReliableLink link = enabled_link();
  FakeCtx ctx;

  EXPECT_EQ(link.on_receive(ctx, tracked(3, 5)), Rx::kProcess);  // fresh
  EXPECT_FALSE(link.idle());  // owes sender 3 a cumulative ack
  Message ack = flush_ack(link, ctx);
  EXPECT_EQ(ack.src, 3);
  EXPECT_EQ(ack.time, 5);
  EXPECT_TRUE(link.idle());

  // A repeat, then an older seq: suppressed, and each re-owes the ack
  // (the previous one may have been lost).
  for (const Step seq : {5, 2}) {
    EXPECT_EQ(link.on_receive(ctx, tracked(3, seq)), Rx::kDuplicate) << seq;
    EXPECT_FALSE(link.idle());
    ack = flush_ack(link, ctx);
    EXPECT_EQ(ack.src, 3);
    EXPECT_EQ(ack.time, 5) << "cumulative ack covers the highest seq";
  }

  EXPECT_EQ(link.on_receive(ctx, tracked(3, 6)), Rx::kProcess);  // newer
  // Senders are independent: a low seq from another peer is still fresh.
  EXPECT_EQ(link.on_receive(ctx, tracked(4, 1)), Rx::kProcess);
  EXPECT_EQ(link.on_receive(ctx, tracked(4, 1)), Rx::kDuplicate);
  EXPECT_EQ(link.on_receive(ctx, tracked(3, 6)), Rx::kDuplicate);

  // Untracked tags bypass the sublayer.
  Message gossip = tracked(3, 0);
  gossip.tag = Tag::kGossip;
  EXPECT_EQ(link.on_receive(ctx, gossip), Rx::kProcess);
}

TEST(ReliableLink, AckClearsThePendingTransaction) {
  using Rx = ReliableLink::Rx;
  ReliableLink link = enabled_link();
  FakeCtx ctx;
  Message m;
  m.tag = Tag::kFwd;
  link.send(ctx, 2, m);
  link.send(ctx, 2, m);  // supersedes: one transaction per destination
  ASSERT_EQ(ctx.sent.size(), 2u);
  const Step seq = ctx.sent[1].second.time;
  EXPECT_FALSE(link.idle());

  Message stale;
  stale.tag = Tag::kAck;
  stale.src = 2;
  stale.time = seq - 1;  // acks only the superseded send
  EXPECT_EQ(link.on_receive(ctx, stale), Rx::kAck);
  EXPECT_FALSE(link.idle());

  Message ack = stale;
  ack.time = seq;
  EXPECT_EQ(link.on_receive(ctx, ack), Rx::kAck);
  EXPECT_TRUE(link.idle());
  ctx.t = 1000;  // long past every timeout: nothing left to retransmit
  ctx.sent.clear();
  EXPECT_FALSE(link.on_tick(ctx));
  EXPECT_TRUE(ctx.sent.empty());
  EXPECT_EQ(link.abandoned(), 0);
}

// The sublayer's dedup against a dense oracle: a per-sender max counter
// (the paper's Claim 1 c[i], one slot per node).  Random arrival streams
// from several senders - reordered, duplicated, retransmitted, with acks
// and untracked traffic mixed in - must get the same kProcess/kDuplicate
// answer from both, and the cumulative ack must carry the oracle's count.
// A reset link must answer like a fresh one.
TEST(ReliableLink, DedupMatchesADensePerSenderCounter) {
  using Rx = ReliableLink::Rx;
  constexpr NodeId kN = 16;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    ReliableLink link = enabled_link();
    for (int run = 0; run < 2; ++run) {
      if (run == 1) {
        ReliableParams p;
        p.enabled = true;
        link.reset_for_run(p, /*self=*/0);
        EXPECT_TRUE(link.idle());
      }
      FakeCtx ctx;
      std::vector<std::uint64_t> oracle(kN, 0);  // dense c[sender]
      std::vector<Step> next_seq(kN, 0);
      std::vector<Message> in_flight;
      const int senders = 2 + static_cast<int>(rng() % 5);
      for (int ev = 0; ev < 400; ++ev) {
        ctx.t = ev;
        const int kind = static_cast<int>(rng() % 10);
        if (kind < 3 || in_flight.empty()) {
          // A sender emits its next seq; it arrives later, maybe twice.
          const auto src = static_cast<NodeId>(1 + rng() % senders);
          Message m = tracked(src, ++next_seq[static_cast<std::size_t>(src)]);
          m.tag = rng() % 4 == 0 ? Tag::kSos : Tag::kBwd;
          in_flight.push_back(m);
          continue;
        }
        if (kind == 3) {  // untracked traffic and stray acks pass through
          Message g = tracked(static_cast<NodeId>(1 + rng() % senders), 0);
          g.tag = Tag::kGossip;
          EXPECT_EQ(link.on_receive(ctx, g), Rx::kProcess);
          g.tag = Tag::kAck;
          EXPECT_EQ(link.on_receive(ctx, g), Rx::kAck);
          continue;
        }
        if (kind == 4) {  // flush one owed ack: it acks the oracle's max
          ctx.sent.clear();
          if (link.on_tick(ctx)) {
            ASSERT_EQ(ctx.sent.size(), 1u);
            const auto& [to, ack] = ctx.sent[0];
            ASSERT_EQ(ack.tag, Tag::kAck);
            EXPECT_EQ(static_cast<std::uint64_t>(ack.time),
                      oracle[static_cast<std::size_t>(to)]);
          }
          continue;
        }
        // Any in-flight message arrives (reordering); a copy may stay in
        // flight (duplicate delivery or a retransmission).
        const std::size_t k = rng() % in_flight.size();
        Message m = in_flight[k];
        if (rng() % 3 == 0) m.retrans = 1;
        if (rng() % 2 == 0) {
          in_flight[k] = in_flight.back();
          in_flight.pop_back();
        }
        auto& c = oracle[static_cast<std::size_t>(m.src)];
        const auto seq = static_cast<std::uint64_t>(m.time);
        const Rx want = seq > c ? Rx::kProcess : Rx::kDuplicate;
        c = std::max(c, seq);
        ASSERT_EQ(link.on_receive(ctx, m), want)
            << "seed " << seed << " run " << run << " event " << ev
            << " src " << m.src << " seq " << seq;
      }
    }
  }
}

// --------------------------------------------------------- the campaign --

TrialAggregate agg_with(std::int64_t trials, std::int64_t colored,
                        std::int64_t aon_viol, std::int64_t sos_incomplete) {
  TrialAggregate agg;
  agg.trials = trials;
  agg.all_colored_trials = colored;
  agg.all_or_nothing_violations = aon_viol;
  agg.sos_incomplete_trials = sos_incomplete;
  return agg;
}

TEST(Campaign, GuaranteePredicates) {
  EXPECT_TRUE(guarantee_holds(Guarantee::kNone, agg_with(10, 0, 5, 5)));
  EXPECT_TRUE(guarantee_holds(Guarantee::kAllReached, agg_with(10, 10, 0, 0)));
  EXPECT_FALSE(guarantee_holds(Guarantee::kAllReached, agg_with(10, 9, 0, 0)));
  EXPECT_TRUE(guarantee_holds(Guarantee::kAllOrNothing, agg_with(10, 3, 0, 0)));
  EXPECT_FALSE(
      guarantee_holds(Guarantee::kAllOrNothing, agg_with(10, 10, 1, 0)));
  EXPECT_TRUE(guarantee_holds(Guarantee::kSosConsistent, agg_with(10, 9, 0, 0)));
  EXPECT_FALSE(
      guarantee_holds(Guarantee::kSosConsistent, agg_with(10, 10, 0, 1)));
}

TEST(Campaign, FcgToleranceCoversScenarioCrashes) {
  CampaignConfig cfg;
  cfg.n = 32;
  FaultScenario scenario;
  scenario.online_failures = 3;
  CampaignEntry entry;
  entry.algo = Algo::kFcg;
  entry.acfg.fcg_f = 1;
  const TrialSpec spec = campaign_trial_spec(cfg, scenario, entry);
  EXPECT_EQ(spec.acfg.fcg_f, 3);
  EXPECT_EQ(spec.online_failures, 3);
}

TEST(Campaign, RunsGridChecksGuaranteesAndSerializes) {
  CampaignConfig cfg;
  cfg.n = 32;
  cfg.logp = LogP::unit();
  cfg.seed = 5;
  cfg.trials = 4;

  FaultScenario clean;
  clean.name = "clean";
  FaultScenario bursty;
  bursty.name = "burst";
  bursty.burst_loss = 0.03;
  bursty.burst_mean = 4;
  FaultScenario restarting;
  restarting.name = "restart";
  restarting.restarts = 1;

  AlgoConfig acfg;
  acfg.T = 10;
  const auto entries = default_entries(Algo::kCcg, acfg);
  ASSERT_EQ(entries.size(), 2u);  // plain + "+rel"
  EXPECT_EQ(entries[1].guarantee, Guarantee::kAllReached);

  const CampaignResult result =
      run_campaign(cfg, {clean, bursty, restarting}, entries);
  ASSERT_EQ(result.cells.size(), 6u);
  EXPECT_EQ(result.failed_cells, 0);
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.pass) << cell.scenario << " / " << cell.entry;
    // Crash-restart voids the all-reached claim: a rejoined node may stay
    // uncolored forever, so the campaign downgrades the cell to kNone.
    if (cell.scenario == "restart") {
      EXPECT_EQ(cell.guarantee, Guarantee::kNone) << cell.entry;
    }
  }

  const std::string json = obs::to_json(result);
  EXPECT_NE(json.find("\"all_pass\":true"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"burst\""), std::string::npos);
  EXPECT_NE(json.find("\"guarantee\":\"all-reached\""), std::string::npos);
  EXPECT_NE(json.find("\"work_retrans\""), std::string::npos);
}

TEST(Campaign, DefaultEntriesClaimTheTableGuarantee) {
  AlgoConfig acfg;
  acfg.T = 10;
  const auto fcg = default_entries(Algo::kFcg, acfg);
  ASSERT_EQ(fcg.size(), 2u);  // plain + "+rel"
  EXPECT_EQ(fcg[0].label, "FCG");
  EXPECT_EQ(fcg[0].guarantee, Guarantee::kNone);
  EXPECT_FALSE(fcg[0].acfg.reliable.enabled);
  EXPECT_EQ(fcg[1].label, "FCG+rel");
  EXPECT_EQ(fcg[1].guarantee, Guarantee::kSosConsistent);
  EXPECT_TRUE(fcg[1].acfg.reliable.enabled);

  // SBRB ignores the reliable sublayer: one observing entry only.
  const auto sbrb = default_entries(Algo::kSbrb, acfg);
  ASSERT_EQ(sbrb.size(), 1u);
  EXPECT_EQ(sbrb[0].label, "SBRB");
  EXPECT_EQ(sbrb[0].algo, Algo::kSbrb);
  EXPECT_EQ(sbrb[0].guarantee, Guarantee::kNone);
}

TEST(Campaign, StockGridIsWellFormed) {
  const auto scenarios = default_fault_scenarios();
  ASSERT_GE(scenarios.size(), 8u);
  std::set<std::string> names;
  for (const auto& s : scenarios) EXPECT_TRUE(names.insert(s.name).second);
  EXPECT_EQ(names.count("clean"), 1u);
}

}  // namespace
}  // namespace cg
