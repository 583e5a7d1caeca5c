// Concurrent multi-broadcast sessions: every broadcast reaches every node
// despite sharing each node's single send slot per step; a one-plan
// session is byte-for-byte CCG, and every session is byte-identical on
// the stepped and the sharded engine.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "canonical_run.hpp"
#include "gossip/ccg.hpp"
#include "session/multibcast.hpp"
#include "sim/engine.hpp"

namespace cg {
namespace {

RunConfig cfg_n(NodeId n, std::uint64_t seed) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  return cfg;
}

MultiBcastNode::Params plans(std::initializer_list<BcastPlan> list) {
  MultiBcastNode::Params p;
  p.plans = list;
  return p;
}

// A session hosts the stock CcgNode, so one plan started at step 0 from
// the run's root must BE Engine<CcgNode>: same canonical trace, t_end and
// message count, on the stepped engine and on 3 shards.
TEST(Session, SingleBroadcastBehavesLikeCcg) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const NodeId root : {0, 37}) {
      RunConfig cfg = cfg_n(96 + static_cast<NodeId>(seed), seed);
      cfg.root = root;
      if (seed % 2 == 0) cfg.logp = LogP::piz_daint();
      const Step T = 8 + static_cast<Step>(seed % 6);
      CcgNode::Params cp;
      cp.T = T;
      const CanonicalRun ccg = run_canonical<CcgNode>(cfg, cp, 0);
      for (const int shards : {0, 3}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " root=" +
                     std::to_string(root) + " shards=" +
                     std::to_string(shards));
        const CanonicalRun session = run_canonical<MultiBcastNode>(
            cfg, plans({{root, 0, T}}), shards);
        EXPECT_EQ(session.msgs_total, ccg.msgs_total);
        EXPECT_EQ(session.t_end, ccg.t_end);
        EXPECT_EQ(session.trace, ccg.trace);
      }
    }
  }
}

// 1-6 plans with random roots, staggered starts and gossip lengths, under
// jitter and both receive policies: byte-identical on both engines.
TEST(Session, StaggeredSessionsShardedByteParity) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 gen(seed * 0x9E3779B97F4A7C15ull);
    auto pick = [&](int lo, int hi) {  // inclusive
      return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
    };
    RunConfig cfg = cfg_n(pick(40, 160), seed);
    if (pick(0, 1) != 0) cfg.logp = LogP::piz_daint();
    cfg.jitter_max = pick(0, 2);
    cfg.rx = pick(0, 1) != 0 ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
    MultiBcastNode::Params p;
    const int k = pick(1, 6);
    for (int b = 0; b < k; ++b)
      p.plans.push_back({static_cast<NodeId>(pick(0, cfg.n - 1)),
                         static_cast<Step>(pick(0, 12)),
                         static_cast<Step>(pick(6, 14))});
    cfg.root = p.plans.front().root;
    const CanonicalRun stepped = run_canonical<MultiBcastNode>(cfg, p, 0);
    for (const int shards : {2, 3}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      const CanonicalRun sharded = run_canonical<MultiBcastNode>(cfg, p, shards);
      EXPECT_EQ(sharded.metrics, stepped.metrics);
      EXPECT_EQ(sharded.trace, stepped.trace);
    }
  }
}

TEST(Session, TwoConcurrentRootsBothReachEveryone) {
  Engine<MultiBcastNode> eng(cfg_n(128, 5),
                             plans({{0, 0, 12}, {64, 0, 12}}));
  const RunMetrics m = eng.run();
  EXPECT_TRUE(m.all_active_colored);  // = both broadcasts everywhere
  for (NodeId i = 0; i < 128; ++i) {
    EXPECT_TRUE(eng.node(i).core(0).colored()) << i;
    EXPECT_TRUE(eng.node(i).core(1).colored()) << i;
  }
}

TEST(Session, EightConcurrentBroadcasts) {
  std::vector<BcastPlan> v;
  for (int b = 0; b < 8; ++b)
    v.push_back({static_cast<NodeId>(b * 16), 0, 12});
  MultiBcastNode::Params p;
  p.plans = v;
  Engine<MultiBcastNode> eng(cfg_n(128, 7), p);
  const RunMetrics m = eng.run();
  EXPECT_TRUE(m.all_active_colored);
  EXPECT_FALSE(m.hit_max_steps);
  for (NodeId i = 0; i < 128; i += 13)
    for (std::size_t b = 0; b < 8; ++b)
      EXPECT_TRUE(eng.node(i).core(b).colored()) << i << "/" << b;
}

TEST(Session, StaggeredStartsPipeline) {
  // Broadcast 1 starts while broadcast 0's correction runs.
  Engine<MultiBcastNode> eng(cfg_n(96, 9),
                             plans({{0, 0, 11}, {48, 8, 11}}));
  const RunMetrics m = eng.run();
  EXPECT_TRUE(m.all_active_colored);
  EXPECT_NE(m.t_complete, kNever);
}

TEST(Session, ContentionStretchesLatencyButNotCorrectness) {
  // Completion grows with concurrency; reach stays total.
  Step t1 = 0, t8 = 0;
  {
    Engine<MultiBcastNode> eng(cfg_n(128, 11), plans({{0, 0, 12}}));
    const RunMetrics m = eng.run();
    ASSERT_TRUE(m.all_active_colored);
    t1 = m.t_complete;
  }
  {
    std::vector<BcastPlan> v;
    for (int b = 0; b < 8; ++b)
      v.push_back({static_cast<NodeId>(b * 16 + 1), 0, 12});
    MultiBcastNode::Params p;
    p.plans = v;
    Engine<MultiBcastNode> eng(cfg_n(128, 11), p);
    const RunMetrics m = eng.run();
    ASSERT_TRUE(m.all_active_colored);
    t8 = m.t_complete;
  }
  EXPECT_GT(t8, t1);
}

TEST(Session, SameRootSequentialBroadcasts) {
  // Two broadcasts from the same root back to back.
  Engine<MultiBcastNode> eng(cfg_n(64, 13),
                             plans({{0, 0, 10}, {0, 20, 10}}));
  const RunMetrics m = eng.run();
  EXPECT_TRUE(m.all_active_colored);
}

TEST(Session, StampDispatchIgnoresUnknownSessions) {
  // A message with an out-of-range stamp must be ignored, not crash.
  MultiBcastNode::Params p;
  p.plans = {{0, 0, 8}};
  MultiBcastNode node(p, 1, 16);
  struct FakeCtx {
    Step now() const { return 5; }
    NodeId self() const { return 1; }
    const LogP& logp() const { return logp_; }
    Xoshiro256& rng() { return rng_; }
    void send(NodeId, const Message&) {}
    void activate() {}
    void mark_colored() {}
    void deliver() {}
    void complete() {}
    LogP logp_ = LogP::unit();
    Xoshiro256 rng_{1};
  } fake;
  Message m;
  m.tag = Tag::kFwd;
  m.src = 0;
  m.time = 63;  // no such session
  node.on_receive(fake, m);
  EXPECT_FALSE(node.core(0).colored());
}

}  // namespace
}  // namespace cg
