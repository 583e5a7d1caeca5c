// Multi-threaded runs: the sharded engine's shard-count invariance and
// exact agreement with the serial engine for the corrected-gossip
// protocols and BIG; the broadcast facade that runs on it.
#include <gtest/gtest.h>

#include "baselines/big.hpp"
#include "gossip/ccg.hpp"
#include "gossip/gos.hpp"
#include "gossip/fcg.hpp"
#include "gossip/ocg.hpp"
#include "harness/runner.hpp"
#include "runtime/broadcast.hpp"
#include "sim/sharded_engine.hpp"

namespace cg {
namespace {

RunConfig cfg_n(NodeId n, std::uint64_t seed) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  return cfg;
}

void expect_same(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.n_colored, b.n_colored);
  EXPECT_EQ(a.n_delivered, b.n_delivered);
  EXPECT_EQ(a.msgs_total, b.msgs_total);
  EXPECT_EQ(a.msgs_gossip, b.msgs_gossip);
  EXPECT_EQ(a.msgs_correction, b.msgs_correction);
  EXPECT_EQ(a.t_last_colored, b.t_last_colored);
  EXPECT_EQ(a.t_complete, b.t_complete);
  EXPECT_EQ(a.all_active_colored, b.all_active_colored);
}

class ParallelMatchesSerial
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ParallelMatchesSerial, Ccg) {
  const auto [threads, seed] = GetParam();
  CcgNode::Params p;
  p.T = 14;
  Engine<CcgNode> serial(cfg_n(200, seed), p);
  ShardedEngine<CcgNode> par(cfg_n(200, seed), p, threads);
  expect_same(serial.run(), par.run());
}

TEST_P(ParallelMatchesSerial, Ocg) {
  const auto [threads, seed] = GetParam();
  OcgNode::Params p;
  p.T = 14;
  p.corr_sends = 8;
  Engine<OcgNode> serial(cfg_n(200, seed), p);
  ShardedEngine<OcgNode> par(cfg_n(200, seed), p, threads);
  expect_same(serial.run(), par.run());
}

TEST_P(ParallelMatchesSerial, Fcg) {
  const auto [threads, seed] = GetParam();
  FcgNode::Params p;
  p.T = 14;
  p.f = 1;
  Engine<FcgNode> serial(cfg_n(200, seed), p);
  ShardedEngine<FcgNode> par(cfg_n(200, seed), p, threads);
  expect_same(serial.run(), par.run());
}

TEST_P(ParallelMatchesSerial, FcgWithOnlineFailures) {
  const auto [threads, seed] = GetParam();
  RunConfig cfg = cfg_n(200, seed);
  cfg.failures.online.push_back({17, 8});
  cfg.failures.online.push_back({91, 15});
  FcgNode::Params p;
  p.T = 14;
  p.f = 2;
  Engine<FcgNode> serial(cfg, p);
  ShardedEngine<FcgNode> par(cfg, p, threads);
  const RunMetrics a = serial.run();
  const RunMetrics b = par.run();
  expect_same(a, b);
  EXPECT_TRUE(b.all_or_nothing_delivery());
}

TEST_P(ParallelMatchesSerial, Gos) {
  const auto [threads, seed] = GetParam();
  GosNode::Params p;
  p.T = 16;
  Engine<GosNode> serial(cfg_n(200, seed), p);
  ShardedEngine<GosNode> par(cfg_n(200, seed), p, threads);
  expect_same(serial.run(), par.run());
}

TEST_P(ParallelMatchesSerial, Big) {
  const auto [threads, seed] = GetParam();
  Engine<BigNode> serial(cfg_n(200, seed), BigNode::Params{});
  ShardedEngine<BigNode> par(cfg_n(200, seed), BigNode::Params{}, threads);
  expect_same(serial.run(), par.run());
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ParallelMatchesSerial,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values<std::uint64_t>(3, 11)));

TEST(Broadcast, AllConsistencyLevelsReachEveryone) {
  for (const auto level : {Consistency::kWeak, Consistency::kChecked,
                           Consistency::kFailProof}) {
    BroadcastOptions opts;
    opts.n = 300;
    opts.consistency = level;
    opts.threads = 3;
    const BroadcastReport rep = reliable_broadcast(opts, 5);
    EXPECT_TRUE(rep.reached_all_active);
    EXPECT_EQ(rep.reached, 300);
    EXPECT_GT(rep.latency_us, 0);
    EXPECT_FALSE(rep.summary().empty());
  }
}

TEST(Broadcast, FailProofSurvivesCrashes) {
  BroadcastOptions opts;
  opts.n = 256;
  opts.consistency = Consistency::kFailProof;
  opts.f = 1;
  opts.threads = 2;
  opts.failures.pre_failed = {40, 41, 42};
  opts.failures.online.push_back({100, 25});
  const BroadcastReport rep = reliable_broadcast(opts, 9);
  EXPECT_TRUE(rep.delivered_all_or_nothing);
  EXPECT_TRUE(rep.reached_all_active);
  EXPECT_EQ(rep.active, 252);
}

TEST(Broadcast, WeakLevelUsesOcg) {
  BroadcastOptions opts;
  opts.n = 64;
  opts.consistency = Consistency::kWeak;
  const BroadcastReport rep = reliable_broadcast(opts, 2);
  EXPECT_EQ(rep.algo, Algo::kOcg);
}

}  // namespace
}  // namespace cg
