// Extension modules: corrected-gossip all-reduce, OCG chained correction,
// network-jitter robustness, contiguous failure patterns, and the Claim-1
// multi-broadcast filter.
#include <gtest/gtest.h>

#include <memory>

#include "collectives/allreduce.hpp"
#include "gossip/ccg.hpp"
#include "gossip/ocg_chain.hpp"
#include "harness/runner.hpp"
#include "gossip/timing.hpp"
#include "proto/dedup.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/topology.hpp"

namespace cg {
namespace {

// ------------------------------------------------------------ allreduce --

RunConfig ar_cfg(NodeId n, std::uint64_t seed) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  return cfg;
}

TEST(Allreduce, MaxConvergesEverywhere) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    AllreduceNode::Params p;
    p.T = 14;
    p.corr_sends = allreduce_sweeps(128, p.T, LogP::unit(), 1e-4);
    const AllreduceResult r = run_allreduce(p, ar_cfg(128, seed));
    EXPECT_EQ(r.expected, 127);
    EXPECT_TRUE(r.all_correct) << "seed " << seed;
  }
}

TEST(Allreduce, MinAndOrOperators) {
  AllreduceNode::Params p;
  p.T = 12;
  p.corr_sends = allreduce_sweeps(64, p.T, LogP::unit(), 1e-4);
  p.op = ReduceOp::kMin;
  p.contribution = [](NodeId i) { return static_cast<std::int64_t>(i) + 5; };
  AllreduceResult r = run_allreduce(p, ar_cfg(64, 3));
  EXPECT_EQ(r.expected, 5);
  EXPECT_TRUE(r.all_correct);

  p.op = ReduceOp::kOr;
  p.contribution = [](NodeId i) { return std::int64_t{1} << (i % 16); };
  r = run_allreduce(p, ar_cfg(64, 4));
  EXPECT_EQ(r.expected, 0xFFFF);
  EXPECT_TRUE(r.all_correct);
}

TEST(Allreduce, SingleNode) {
  AllreduceNode::Params p;
  p.T = 4;
  p.corr_sends = 1;
  const AllreduceResult r = run_allreduce(p, ar_cfg(1, 1));
  EXPECT_TRUE(r.all_correct);
  EXPECT_EQ(r.expected, 0);
}

TEST(Allreduce, ShortGossipStillFixedByCorrection) {
  // Nearly no gossip: the deterministic sweep must still spread values
  // C positions; choose C = N/2 so coverage is guaranteed transitively.
  AllreduceNode::Params p;
  p.T = 2;
  p.corr_sends = 32;  // N/2 on a 64-ring
  const AllreduceResult r = run_allreduce(p, ar_cfg(64, 9));
  EXPECT_TRUE(r.all_correct);
}

TEST(Allreduce, SurvivesPreFailedNodes) {
  AllreduceNode::Params p;
  p.T = 14;
  p.corr_sends = allreduce_sweeps(128, p.T, LogP::unit(), 1e-4) + 4;
  RunConfig cfg = ar_cfg(128, 5);
  cfg.failures.pre_failed = {7, 8, 9, 70};
  const AllreduceResult r = run_allreduce(p, cfg);
  // Dead nodes' values may or may not appear (they never send), but all
  // ACTIVE nodes must agree on a value at least as large as the active max
  // under kMax; with id contributions the global max owner (127) is alive.
  EXPECT_EQ(r.expected, 127);
  EXPECT_TRUE(r.all_correct);
}

TEST(Allreduce, SweepSizingIsMonotone) {
  const int c10 = allreduce_sweeps(1024, 10, LogP::unit(), 1e-4);
  const int c20 = allreduce_sweeps(1024, 20, LogP::unit(), 1e-4);
  EXPECT_GE(c10, c20);  // longer gossip -> shorter correction
  EXPECT_GE(allreduce_sweeps(1024, 20, LogP::unit(), 1e-8), c20);
}

// ------------------------------------------------------------ OCG-CHAIN --

std::shared_ptr<std::vector<std::uint8_t>> bitmap(NodeId n,
                                                  const std::vector<NodeId>& s) {
  auto bm = std::make_shared<std::vector<std::uint8_t>>(n, 0);
  for (const NodeId i : s) (*bm)[static_cast<std::size_t>(i)] = 1;
  return bm;
}

TEST(OcgChain, ChainsMeetInTheMiddle) {
  // g-nodes 0 and 8 on a 16-ring: each gap of 7 is eaten from both ends.
  RunConfig cfg;
  cfg.n = 16;
  cfg.logp = LogP::unit();
  cfg.seed = 1;
  cfg.record_node_detail = true;
  OcgChainNode::Params p;
  p.T = 0;
  p.horizon = OcgChainNode::chain_horizon(0, 8, cfg.logp);
  p.seed_colored = bitmap(16, {8});
  Engine<OcgChainNode> eng(cfg, p);
  const RunMetrics m = eng.run();
  EXPECT_TRUE(m.all_active_colored);
  // Work: every uncolored node relays once + each g-node seeds twice:
  // 14 relays... minus the two *last* relays absorbed: still sent. Each
  // of the 14 c-nodes forwards exactly once; 2 g-nodes send 2 each.
  EXPECT_EQ(m.msgs_correction, 14 + 4);
}

TEST(OcgChain, WorkIsLinearInUncoloredNotInGNodes) {
  // Dense g-set: chain correction work stays ~2 messages per g-node while
  // plain OCG's sweep would send corr_sends per g-node.
  std::vector<NodeId> gs;
  for (NodeId i = 1; i < 32; i += 2) gs.push_back(i);
  RunConfig cfg;
  cfg.n = 32;
  cfg.logp = LogP::unit();
  cfg.seed = 1;
  OcgChainNode::Params p;
  p.T = 0;
  p.horizon = OcgChainNode::chain_horizon(0, 4, cfg.logp);
  p.seed_colored = bitmap(32, gs);
  Engine<OcgChainNode> eng(cfg, p);
  const RunMetrics m = eng.run();
  EXPECT_TRUE(m.all_active_colored);
  // 17 g-nodes seed <=2 each; 15 c-nodes forward <=1 each.
  EXPECT_LE(m.msgs_correction, 17 * 2 + 15);
}

TEST(OcgChain, GossipPlusChainsReachEveryone) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg;
    cfg.n = 256;
    cfg.logp = LogP::unit();
    cfg.seed = seed;
    AlgoConfig acfg;
    acfg.T = 16;
    acfg.ocg_corr_sends = 12;  // K_bar budget for the horizon
    const RunMetrics m = run_once(Algo::kOcgChain, acfg, cfg);
    EXPECT_TRUE(m.all_active_colored) << seed;
    EXPECT_FALSE(m.hit_max_steps);
    EXPECT_NE(m.t_complete, kNever);
  }
}

TEST(OcgChain, UsesFarLessCorrectionWorkThanOcg) {
  std::int64_t chain_work = 0, ocg_work = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg;
    cfg.n = 512;
    cfg.logp = LogP::unit();
    cfg.seed = seed;
    AlgoConfig chain;
    chain.T = 18;
    chain.ocg_corr_sends = 10;
    chain_work += run_once(Algo::kOcgChain, chain, cfg).msgs_correction;
    AlgoConfig ocg;
    ocg.T = 18;
    ocg.ocg_corr_sends = 10;
    ocg_work += run_once(Algo::kOcg, ocg, cfg).msgs_correction;
  }
  EXPECT_LT(chain_work * 3, ocg_work);  // >3x fewer correction messages
}

// --------------------------------------------------------------- jitter --

class JitterSweep : public ::testing::TestWithParam<Step> {};

TEST_P(JitterSweep, CcgAndFcgSurviveReordering) {
  const Step jitter = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunConfig cfg;
    cfg.n = 128;
    cfg.logp = LogP::unit();
    cfg.seed = seed;
    cfg.jitter_max = jitter;
    AlgoConfig acfg;
    acfg.T = 14;
    acfg.fcg_f = 1;
    const RunMetrics ccg = run_once(Algo::kCcg, acfg, cfg);
    EXPECT_TRUE(ccg.all_active_colored) << "jitter=" << jitter;
    EXPECT_FALSE(ccg.hit_max_steps);
    const RunMetrics fcg = run_once(Algo::kFcg, acfg, cfg);
    EXPECT_TRUE(fcg.all_active_colored) << "jitter=" << jitter;
    EXPECT_TRUE(fcg.all_or_nothing_delivery());
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, JitterSweep,
                         ::testing::Values<Step>(0, 1, 2, 5));

TEST(Jitter, DeterministicAndMatchesAcrossEngines) {
  RunConfig cfg;
  cfg.n = 96;
  cfg.logp = LogP::unit();
  cfg.seed = 11;
  cfg.jitter_max = 3;
  CcgNode::Params p;
  p.T = 12;
  Engine<CcgNode> serial1(cfg, p);
  Engine<CcgNode> serial2(cfg, p);
  ShardedEngine<CcgNode> par(cfg, p, 3);
  const RunMetrics a = serial1.run();
  const RunMetrics b = serial2.run();
  const RunMetrics c = par.run();
  EXPECT_EQ(a.msgs_total, b.msgs_total);
  EXPECT_EQ(a.t_last_colored, b.t_last_colored);
  EXPECT_EQ(a.msgs_total, c.msgs_total);
  EXPECT_EQ(a.t_last_colored, c.t_last_colored);
}

// ------------------------------------------------------- drain padding --

TEST(DrainExtra, RecoversOcgOnSlowLinks) {
  // Cross-rack extra latency breaks OCG's flat-tuned schedule; padding
  // the drain window (and giving gossip the extra time) restores it.
  const NodeId n = 256;
  const Step extra = 4;
  auto run = [&](Step drain_extra, Step t_bonus) {
    int full = 0;
    for (std::uint64_t s = 1; s <= 15; ++s) {
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = LogP::piz_daint();
      cfg.seed = s;
      cfg.link_extra = two_level_topology(32, extra);
      cfg.link_extra_max = extra;
      AlgoConfig acfg;
      acfg.T = 22 + t_bonus;
      acfg.ocg_corr_sends = 8;
      acfg.drain_extra = drain_extra;
      if (run_once(Algo::kOcg, acfg, cfg).all_active_colored) ++full;
    }
    return full;
  };
  const int flat = run(0, 0);
  const int padded = run(extra, extra);
  EXPECT_LT(flat, 15);      // the flat schedule misses runs
  EXPECT_GT(padded, flat);  // padding recovers most of them
  EXPECT_GE(padded, 13);
}

TEST(DrainExtra, DelaysCorrectionStart) {
  VectorTrace trace;
  RunConfig cfg;
  cfg.n = 32;
  cfg.logp = LogP::unit();
  cfg.seed = 2;
  cfg.trace = &trace;
  AlgoConfig acfg;
  acfg.T = 8;
  acfg.drain_extra = 5;
  run_once(Algo::kCcg, acfg, cfg);
  Step first_corr = kNever;
  for (const auto& ev : trace.events())
    if (ev.kind == TraceEvent::Kind::kSend && is_ring_corr(ev.tag))
      first_corr = std::min(first_corr, ev.step);
  EXPECT_EQ(first_corr, corr_start(8, cfg.logp) + 5);
}

// ------------------------------------------------- contiguous failures --

TEST(ContiguousFailures, BuilderProducesTheBlock) {
  const FailureSchedule pre = FailureSchedule::contiguous(10, 8, 4);
  EXPECT_EQ(pre.pre_failed, (std::vector<NodeId>{8, 9, 0, 1}));
  EXPECT_TRUE(pre.online.empty());
  const FailureSchedule on = FailureSchedule::contiguous(10, 2, 2, 7);
  EXPECT_TRUE(on.pre_failed.empty());
  ASSERT_EQ(on.online.size(), 2u);
  EXPECT_EQ(on.online[0].node, 2);
  EXPECT_EQ(on.online[0].at_step, 7);
}

TEST(ContiguousFailures, CcgSweepsAcrossADeadBlock) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::unit();
  cfg.seed = 4;
  cfg.failures = FailureSchedule::contiguous(64, 20, 10);
  AlgoConfig acfg;
  acfg.T = 12;
  const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);
  EXPECT_EQ(m.n_active, 54);
  EXPECT_TRUE(m.all_active_colored);  // sweep walks over the dead block
}

TEST(ContiguousFailures, FcgAllOrNothingWhenBlockDiesOnline) {
  for (const Step at : {3, 8, 14, 20}) {
    RunConfig cfg;
    cfg.n = 64;
    cfg.logp = LogP::unit();
    cfg.seed = 6;
    cfg.failures = FailureSchedule::contiguous(64, 30, 2, at);
    AlgoConfig acfg;
    acfg.T = 12;
    acfg.fcg_f = 2;
    const RunMetrics m = run_once(Algo::kFcg, acfg, cfg);
    EXPECT_TRUE(m.all_or_nothing_delivery()) << "at=" << at;
    EXPECT_TRUE(m.all_active_delivered) << "at=" << at;
  }
}

// ----------------------------------------------------------- dedup -----

TEST(Dedup, AcceptsEachStampOnce) {
  BroadcastFilter f(8);
  BroadcastCounter root(2);
  const BroadcastStamp s1 = root.next();
  EXPECT_TRUE(f.fresh(s1));
  EXPECT_TRUE(f.accept(s1));
  EXPECT_FALSE(f.accept(s1));  // duplicate
  EXPECT_FALSE(f.fresh(s1));
  const BroadcastStamp s2 = root.next();
  EXPECT_TRUE(f.accept(s2));
  EXPECT_EQ(f.last_from(2), 2u);
}

TEST(Dedup, OldBroadcastsSupersededByNewer) {
  // Claim 1's literal rule: anything <= c[root] is discarded, so a
  // straggler of an overtaken broadcast never delivers twice.
  BroadcastFilter f(4);
  EXPECT_TRUE(f.accept({1, 5}));
  EXPECT_FALSE(f.accept({1, 3}));  // older broadcast from the same root
  EXPECT_TRUE(f.accept({2, 1}));   // independent root unaffected
}

TEST(Dedup, JoinResetsCounters) {
  BroadcastFilter veteran(4);
  veteran.accept({0, 7});
  veteran.accept({3, 2});
  BroadcastFilter rookie(4);
  rookie.reset_from(veteran);
  EXPECT_FALSE(rookie.accept({0, 7}));  // replayed history is ignored
  EXPECT_FALSE(rookie.accept({3, 1}));
  EXPECT_TRUE(rookie.accept({0, 8}));   // new traffic flows
  rookie.reset_counter(2, 10);
  EXPECT_FALSE(rookie.accept({2, 10}));
  EXPECT_TRUE(rookie.accept({2, 11}));
}

}  // namespace
}  // namespace cg
