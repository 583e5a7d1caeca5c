// Corrected-gossip barrier: the barrier property (nobody releases before
// everyone arrived), skewed arrivals, non-zero coordinators, scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "canonical_run.hpp"
#include "collectives/barrier.hpp"
#include "sim/engine.hpp"

namespace cg {
namespace {

struct BarrierOutcome {
  Step last_arrival = 0;
  Step first_release = kNever;
  Step last_release = 0;
  bool all_released = true;
  RunMetrics metrics;
};

BarrierOutcome run_barrier(NodeId n, std::vector<Step> arrivals,
                           NodeId coordinator, Step T_release,
                           std::uint64_t seed) {
  BarrierNode::Params p;
  p.coordinator = coordinator;
  p.T_release = T_release;
  if (!arrivals.empty())
    p.arrivals = std::make_shared<const std::vector<Step>>(arrivals);

  RunConfig cfg;
  cfg.n = n;
  cfg.root = coordinator;
  cfg.logp = LogP::unit();
  cfg.seed = seed;
  Engine<BarrierNode> eng(cfg, p);

  BarrierOutcome out;
  out.metrics = eng.run();
  for (NodeId i = 0; i < n; ++i) {
    out.last_arrival = std::max(out.last_arrival, eng.node(i).arrival());
    const Step r = eng.node(i).released_at();
    if (r == kNever) {
      out.all_released = false;
    } else {
      out.first_release = std::min(out.first_release, r);
      out.last_release = std::max(out.last_release, r);
    }
  }
  return out;
}

TEST(Barrier, EveryoneReleasesAfterEveryoneArrived) {
  const BarrierOutcome out = run_barrier(64, {}, 0, 10, 1);
  EXPECT_TRUE(out.all_released);
  EXPECT_GE(out.first_release, out.last_arrival);  // the barrier property
  EXPECT_FALSE(out.metrics.hit_max_steps);
}

TEST(Barrier, SkewedArrivalsGateTheRelease) {
  std::vector<Step> arrivals(96, 0);
  arrivals[40] = 50;  // one straggler
  const BarrierOutcome out = run_barrier(96, arrivals, 0, 10, 2);
  EXPECT_TRUE(out.all_released);
  EXPECT_GE(out.first_release, 50);  // nobody escapes before the straggler
}

TEST(Barrier, RandomSkew) {
  Xoshiro256 rng(7);
  std::vector<Step> arrivals(80);
  Step last = 0;
  for (auto& a : arrivals) {
    a = rng.uniform(0, 30);
    last = std::max(last, a);
  }
  const BarrierOutcome out = run_barrier(80, arrivals, 0, 10, 3);
  EXPECT_TRUE(out.all_released);
  EXPECT_GE(out.first_release, last);
}

TEST(Barrier, NonZeroCoordinator) {
  const BarrierOutcome out = run_barrier(64, {}, 17, 10, 4);
  EXPECT_TRUE(out.all_released);
  EXPECT_GE(out.first_release, out.last_arrival);
}

TEST(Barrier, SingleNode) {
  const BarrierOutcome out = run_barrier(1, {}, 0, 4, 5);
  EXPECT_TRUE(out.all_released);
}

TEST(Barrier, TwoNodes) {
  const BarrierOutcome out = run_barrier(2, {0, 7}, 0, 4, 6);
  EXPECT_TRUE(out.all_released);
  EXPECT_GE(out.first_release, 7);
}

class BarrierSweep
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint64_t>> {};

TEST_P(BarrierSweep, PropertyHoldsAcrossSizesAndSeeds) {
  const auto [n, seed] = GetParam();
  Xoshiro256 rng(seed);
  std::vector<Step> arrivals(static_cast<std::size_t>(n));
  Step last = 0;
  for (auto& a : arrivals) {
    a = rng.uniform(0, 20);
    last = std::max(last, a);
  }
  const BarrierOutcome out = run_barrier(n, arrivals, 0, 12, seed);
  EXPECT_TRUE(out.all_released);
  EXPECT_GE(out.first_release, last);
  EXPECT_FALSE(out.metrics.hit_max_steps);
  // Release spread is the corrected-gossip dissemination window, not O(N).
  EXPECT_LT(out.last_release - out.first_release, 3 * 12 + 40);
}

// Random sizes, arrivals, coordinators and release lengths under jitter
// and both receive policies: byte-identical on both engines.
TEST(Barrier, ShardedByteParity) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 gen(seed * 0x9E3779B97F4A7C15ull);
    auto pick = [&](int lo, int hi) {  // inclusive
      return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
    };
    const NodeId n = pick(2, 160);
    auto arrivals = std::make_shared<std::vector<Step>>(
        static_cast<std::size_t>(n));
    for (auto& a : *arrivals) a = pick(0, 20);
    BarrierNode::Params p;
    p.coordinator = pick(0, n - 1);
    p.T_release = pick(4, 14);
    p.arrivals = arrivals;
    RunConfig cfg;
    cfg.n = n;
    cfg.root = p.coordinator;
    cfg.logp = pick(0, 1) != 0 ? LogP::piz_daint() : LogP::unit();
    cfg.seed = seed;
    cfg.jitter_max = pick(0, 2);
    cfg.rx = pick(0, 1) != 0 ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
    const CanonicalRun stepped = run_canonical<BarrierNode>(cfg, p, 0);
    for (const int shards : {2, 3}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      const CanonicalRun sharded = run_canonical<BarrierNode>(cfg, p, shards);
      EXPECT_EQ(sharded.metrics, stepped.metrics);
      EXPECT_EQ(sharded.trace, stepped.trace);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BarrierSweep,
    ::testing::Combine(::testing::Values<NodeId>(16, 64, 200),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

}  // namespace
}  // namespace cg
