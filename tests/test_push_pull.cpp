// Push-pull gossip: pull requests fix the tail; responses obey the LogP
// send-slot budget.
#include <gtest/gtest.h>

#include <string>

#include "analysis/coloring.hpp"
#include "analysis/tuning.hpp"
#include "canonical_run.hpp"
#include "gossip/ccg.hpp"
#include "gossip/ccg_pushpull.hpp"
#include "gossip/push_pull.hpp"
#include "sim/engine.hpp"

namespace cg {
namespace {

RunMetrics run_pp(NodeId n, Step T, bool pull, std::uint64_t seed) {
  PushPullNode::Params p;
  p.T = T;
  p.pull = pull;
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  Engine<PushPullNode> eng(cfg, p);
  return eng.run();
}

TEST(PushPull, PushOnlyModeMatchesGosColoring) {
  // pull=false is plain push gossip: coloring matches Eq. (1) closely.
  const NodeId n = 512;
  const Step T = 18;
  double sum = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) sum += run_pp(n, T, false, 100 + t).n_colored;
  const double pred = colored_at_corr_start(n, n, T, LogP::unit());
  EXPECT_NEAR(sum / trials, pred, 0.06 * pred);
}

TEST(PushPull, PullFixesTheTail) {
  // At a T where push-only regularly misses nodes, push-pull reaches all.
  const NodeId n = 256;
  const Step T = 18;
  int push_full = 0, pp_full = 0;
  for (int t = 0; t < 40; ++t) {
    if (run_pp(n, T, false, 200 + t).all_active_colored) ++push_full;
    if (run_pp(n, T, true, 200 + t).all_active_colored) ++pp_full;
  }
  EXPECT_LT(push_full, 35);
  EXPECT_GE(pp_full, 37);  // near-certain full coverage (vs push's misses)
  EXPECT_GT(pp_full, push_full);
}

TEST(PushPull, PullCostsWork) {
  const RunMetrics push = run_pp(256, 20, false, 5);
  const RunMetrics pp = run_pp(256, 20, true, 5);
  EXPECT_GT(pp.msgs_total, push.msgs_total);  // requests are not free
}

TEST(PushPull, Terminates) {
  for (const bool pull : {false, true}) {
    const RunMetrics m = run_pp(128, 15, pull, 7);
    EXPECT_FALSE(m.hit_max_steps);
    EXPECT_NE(m.t_complete, kNever);
  }
}

TEST(PushPull, ForecastIsSane) {
  const auto c = pushpull_expected_colored(512, 512, 20, LogP::unit(), 22);
  // Monotone, bounded, and at least as fast as push-only.
  const auto push = expected_colored(512, 512, 20, LogP::unit(), 22);
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_GE(c[i], c[i - 1]);
    EXPECT_LE(c[i], 512.0);
    EXPECT_GE(c[i] + 1e-9, push[i]);
  }
}

TEST(PushPull, ForecastKeepsASingleNodeColored) {
  for (const double c : pushpull_expected_colored(1, 1, 5, LogP::unit(), 30))
    EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(PushPull, UncoloredNodesSendOnlyRequests) {
  VectorTrace trace;
  PushPullNode::Params p;
  p.T = 12;
  p.pull = true;
  RunConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::unit();
  cfg.seed = 9;
  cfg.trace = &trace;
  cfg.record_node_detail = true;
  Engine<PushPullNode> eng(cfg, p);
  const RunMetrics m = eng.run();
  for (const auto& ev : trace.events()) {
    if (ev.kind != TraceEvent::Kind::kSend) continue;
    if (ev.tag == Tag::kPullReq) {
      // The sender was uncolored when it asked.
      const Step colored_at = m.colored_at[static_cast<std::size_t>(ev.node)];
      EXPECT_TRUE(colored_at == kNever || colored_at >= ev.step)
          << "node " << ev.node << " pulled after being colored";
    }
  }
}

// ------------------------------------------------ corrected push-pull --

TEST(CcgPushPull, ReachesEveryoneAndCompletes) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    CcgPushPullNode::Params p;
    p.T = 12;
    RunConfig cfg;
    cfg.n = 256;
    cfg.logp = LogP::unit();
    cfg.seed = seed;
    Engine<CcgPushPullNode> eng(cfg, p);
    const RunMetrics m = eng.run();
    EXPECT_TRUE(m.all_active_colored) << seed;
    EXPECT_NE(m.t_complete, kNever);
    EXPECT_FALSE(m.hit_max_steps);
  }
}

TEST(CcgPushPull, TunedTIsSmallerThanPlainCcg) {
  const double eps = 1e-4;
  const Tuning push = tune_ccg(1024, 1024, LogP::unit(), eps);
  const PpTuning pp = tune_ccg_pushpull(1024, 1024, LogP::unit(), eps);
  EXPECT_LT(pp.T_opt, push.T_opt);
  EXPECT_LE(pp.predicted_latency, push.predicted_latency);
}

TEST(CcgPushPull, TunedLatencyBeatsPlainCcg) {
  const double eps = 1e-3;
  const NodeId n = 512;
  const Tuning push = tune_ccg(n, n, LogP::unit(), eps);
  const PpTuning pp = tune_ccg_pushpull(n, n, LogP::unit(), eps);
  double lat_push = 0, lat_pp = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    {
      CcgNode::Params p;
      p.T = push.T_opt + 1;
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = LogP::unit();
      cfg.seed = 900 + static_cast<std::uint64_t>(t);
      Engine<CcgNode> eng(cfg, p);
      lat_push += static_cast<double>(eng.run().t_complete);
    }
    {
      CcgPushPullNode::Params p;
      p.T = pp.T_opt + 1;
      RunConfig cfg;
      cfg.n = n;
      cfg.logp = LogP::unit();
      cfg.seed = 900 + static_cast<std::uint64_t>(t);
      Engine<CcgPushPullNode> eng(cfg, p);
      const RunMetrics m = eng.run();
      ASSERT_TRUE(m.all_active_colored);
      lat_pp += static_cast<double>(m.t_complete);
    }
  }
  EXPECT_LT(lat_pp, lat_push);
}

// Drops, both receive policies and answer backlogs of 0-4 (a cap of 0
// sheds every request): byte-identical on both engines, msgs_dropped
// included.
TEST(CcgPushPull, ShardedByteParity) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    CcgPushPullNode::Params p;
    p.T = 10 + static_cast<Step>((seed / 5) % 4);
    p.pending_cap = static_cast<int>(seed % 5);
    RunConfig cfg;
    cfg.n = 100 + static_cast<NodeId>(seed);
    cfg.logp = LogP::unit();
    cfg.seed = seed;
    cfg.drop_prob = seed % 2 != 0 ? 0.02 : 0.0;
    cfg.rx = (seed / 2) % 2 != 0 ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const CanonicalRun stepped = run_canonical<CcgPushPullNode>(cfg, p, 0);
    const CanonicalRun sharded = run_canonical<CcgPushPullNode>(cfg, p, 2);
    EXPECT_EQ(sharded.metrics, stepped.metrics);
    EXPECT_EQ(sharded.trace, stepped.trace);
  }
}

TEST(CcgPushPull, SurvivesPreFailures) {
  CcgPushPullNode::Params p;
  p.T = 12;
  RunConfig cfg;
  cfg.n = 128;
  cfg.logp = LogP::unit();
  cfg.seed = 3;
  cfg.failures.pre_failed = {5, 6, 7, 80};
  Engine<CcgPushPullNode> eng(cfg, p);
  const RunMetrics m = eng.run();
  EXPECT_EQ(m.n_active, 124);
  EXPECT_TRUE(m.all_active_colored);
}

}  // namespace
}  // namespace cg
