// Cross-engine parity: the stepped and window-sharded engines both
// execute on the shared simulation core (src/sim/core/) and must produce
// IDENTICAL metrics for the same RunConfig, at every shard count -
// including with per-message jitter, message loss, pre-run and online
// failures, and both receive policies - for every corrected-gossip
// protocol.
//
// These tests carry the ctest label `sanitize`, so the tsan preset runs
// the multi-threaded executions under ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness/runner.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/core/network_model.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

void expect_same(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.n_total, b.n_total);
  EXPECT_EQ(a.n_active, b.n_active);
  EXPECT_EQ(a.n_colored, b.n_colored);
  EXPECT_EQ(a.n_delivered, b.n_delivered);
  EXPECT_EQ(a.msgs_total, b.msgs_total);
  EXPECT_EQ(a.msgs_gossip, b.msgs_gossip);
  EXPECT_EQ(a.msgs_correction, b.msgs_correction);
  EXPECT_EQ(a.msgs_sos, b.msgs_sos);
  EXPECT_EQ(a.msgs_tree, b.msgs_tree);
  EXPECT_EQ(a.msgs_retrans, b.msgs_retrans);
  EXPECT_EQ(a.msgs_dropped, b.msgs_dropped);
  EXPECT_EQ(a.t_last_colored, b.t_last_colored);
  EXPECT_EQ(a.t_last_colored_partial, b.t_last_colored_partial);
  EXPECT_EQ(a.t_last_delivered, b.t_last_delivered);
  EXPECT_EQ(a.t_complete, b.t_complete);
  EXPECT_EQ(a.t_root_complete, b.t_root_complete);
  EXPECT_EQ(a.t_end, b.t_end);
  EXPECT_EQ(a.all_active_colored, b.all_active_colored);
  EXPECT_EQ(a.all_active_delivered, b.all_active_delivered);
  EXPECT_EQ(a.sos_triggered, b.sos_triggered);
  EXPECT_EQ(a.hit_max_steps, b.hit_max_steps);
}

// An adversarial-but-realistic system: jitter reorders messages, 2% of
// them vanish, one node is dead from the start and two crash mid-run.
RunConfig harsh_cfg(std::uint64_t seed, RxPolicy rx) {
  RunConfig cfg;
  cfg.n = 150;
  cfg.logp = LogP::piz_daint();
  cfg.seed = seed;
  cfg.rx = rx;
  cfg.jitter_max = 2;
  cfg.drop_prob = 0.02;
  cfg.failures.pre_failed = {5};
  cfg.failures.online.push_back({20, 9});
  cfg.failures.online.push_back({71, 15});
  return cfg;
}

// Every fault model from src/sim/fault/ at once: Gilbert-Elliott burst
// loss, a crash-restart, stragglers and a transient partition, stacked on
// jitter and i.i.d. loss.  The burst chains consume a dedicated per-sender
// RNG stream advanced per STEP, so engine scheduling must not perturb it.
RunConfig faulty_cfg(std::uint64_t seed, RxPolicy rx) {
  RunConfig cfg;
  cfg.n = 120;
  cfg.logp = LogP::piz_daint();
  cfg.seed = seed;
  cfg.rx = rx;
  cfg.jitter_max = 1;
  cfg.drop_prob = 0.01;
  cfg.burst = BurstLoss::from_rate(0.05, 4);
  cfg.failures.online.push_back({60, 14});
  cfg.failures.restarts.push_back({25, 10, 26});
  cfg.stragglers.push_back({11, 3});
  cfg.stragglers.push_back({40, 2});
  cfg.partitions.push_back({12, 20, {33, 34, 35, 36}});
  return cfg;
}

AlgoConfig algo_cfg(Algo algo) {
  AlgoConfig acfg;
  acfg.T = 30;
  acfg.drain_extra = 2;
  if (algo == Algo::kOcg || algo == Algo::kOcgChain) acfg.ocg_corr_sends = 12;
  if (algo == Algo::kFcg) acfg.fcg_f = 2;
  return acfg;
}

class EnginesAgree
    : public ::testing::TestWithParam<
          std::tuple<Algo, std::uint64_t, RxPolicy>> {};

TEST_P(EnginesAgree, OnHarshNetwork) {
  const auto [algo, seed, rx] = GetParam();
  const RunConfig cfg = harsh_cfg(seed, rx);
  const AlgoConfig acfg = algo_cfg(algo);

  const RunMetrics serial =
      run_once(algo, acfg, cfg, {EngineKind::kStepped, 1});
  SCOPED_TRACE(algo_name(algo));
  for (const int shards : {1, 2, 5}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_same(serial,
                run_once(algo, acfg, cfg, {EngineKind::kSharded, shards}));
  }
}

// BFB and opt put known ids on the wire (the records' out-of-line side
// arrays on the sharded engine); OCG-CHAIN's chained correction is the
// remaining corrected-gossip variant.
INSTANTIATE_TEST_SUITE_P(
    Matrix, EnginesAgree,
    ::testing::Combine(
        ::testing::Values(Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg,
                          Algo::kOcgChain, Algo::kBfb, Algo::kOpt),
        ::testing::Values<std::uint64_t>(1, 7, 13),
        ::testing::Values(RxPolicy::kDrainAll, RxPolicy::kOnePerStep)));

// The same parity statement over the full fault stack - burst loss,
// crash-restart, stragglers, partition - with and without the
// ack/retransmit sublayer.  This is the determinism contract for the
// fault RNG streams: a fault outcome is a pure function of (config, seed),
// never of engine scheduling.
class EnginesAgreeOnFaults
    : public ::testing::TestWithParam<
          std::tuple<Algo, std::uint64_t, RxPolicy, bool>> {};

TEST_P(EnginesAgreeOnFaults, FullFaultStack) {
  const auto [algo, seed, rx, reliable] = GetParam();
  const RunConfig cfg = faulty_cfg(seed, rx);
  AlgoConfig acfg = algo_cfg(algo);
  acfg.reliable.enabled = reliable;

  const RunMetrics serial =
      run_once(algo, acfg, cfg, {EngineKind::kStepped, 1});
  SCOPED_TRACE(algo_name(algo));
  for (const int shards : {1, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_same(serial,
                run_once(algo, acfg, cfg, {EngineKind::kSharded, shards}));
  }
  if (reliable) {
    EXPECT_GT(serial.msgs_retrans, 0);  // bursts force retries
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EnginesAgreeOnFaults,
    ::testing::Combine(::testing::Values(Algo::kCcg, Algo::kFcg),
                       ::testing::Values<std::uint64_t>(3, 29),
                       ::testing::Values(RxPolicy::kDrainAll,
                                         RxPolicy::kOnePerStep),
                       ::testing::Bool()));

// Acceptance check for the fault layer: the canonically sorted JSONL trace
// of a run under every fault model at once - including kLost and kRestart
// events - is BYTE-IDENTICAL across both engines and any shard count.
TEST(EngineParity, FaultTraceJsonlIsByteIdenticalAcrossEngines) {
  AlgoConfig acfg = algo_cfg(Algo::kCcg);
  acfg.reliable.enabled = true;
  const RunConfig base = faulty_cfg(19, RxPolicy::kOnePerStep);

  auto canonical_jsonl = [&](EngineKind kind, int threads) {
    VectorTrace trace;
    RunConfig cfg = base;
    cfg.trace = &trace;
    run_once(Algo::kCcg, acfg, cfg, {kind, threads});
    std::vector<TraceEvent> events = trace.events();
    obs::canonical_sort(events);
    return obs::to_jsonl(events);
  };

  const std::string serial = canonical_jsonl(EngineKind::kStepped, 1);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"lost\""), std::string::npos);
  EXPECT_NE(serial.find("\"restart\""), std::string::npos);
  for (const int shards : {1, 2, 3, 5})
    EXPECT_EQ(serial, canonical_jsonl(EngineKind::kSharded, shards))
        << "shards=" << shards;
}

// Two paths the fault sweeps rarely reach: heterogeneous per-link latency
// (a two-level rack topology stretches the delivery calendar past the
// sharded engine's window) and FCG's SOS flood (a lone root with T = 0
// wraps straight into SOS).
TEST(EngineParity, LinkExtrasAndSosPathMatch) {
  auto check = [](Algo algo, const AlgoConfig& acfg, const RunConfig& cfg) {
    const RunMetrics serial =
        run_once(algo, acfg, cfg, {EngineKind::kStepped, 1});
    for (const int shards : {1, 2}) {
      SCOPED_TRACE(std::string(algo_name(algo)) +
                   " shards=" + std::to_string(shards));
      expect_same(serial,
                  run_once(algo, acfg, cfg, {EngineKind::kSharded, shards}));
    }
    return serial;
  };
  {
    RunConfig cfg;
    cfg.n = 128;
    cfg.logp = LogP::unit();
    cfg.seed = 8;
    cfg.link_extra = two_level_topology(16, 4);
    cfg.link_extra_max = 4;
    AlgoConfig acfg;
    acfg.T = 15;
    acfg.drain_extra = 4;
    EXPECT_TRUE(check(Algo::kCcg, acfg, cfg).all_active_colored);
  }
  {
    RunConfig cfg;
    cfg.n = 130;
    cfg.logp = LogP::unit();
    cfg.seed = 2;
    AlgoConfig acfg;
    acfg.T = 0;
    acfg.fcg_f = 1;
    EXPECT_TRUE(check(Algo::kFcg, acfg, cfg).sos_triggered);
  }
}

// Node-level agreement: with record_node_detail every per-node coloring /
// delivery / completion step must match bit-for-bit across engines.
TEST(EngineParity, NodeDetailMatchesAcrossEngines) {
  RunConfig cfg = harsh_cfg(3, RxPolicy::kOnePerStep);
  cfg.record_node_detail = true;
  const AlgoConfig acfg = algo_cfg(Algo::kFcg);
  const RunMetrics serial =
      run_once(Algo::kFcg, acfg, cfg, {EngineKind::kStepped, 1});
  for (const int shards : {1, 2, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RunMetrics sh =
        run_once(Algo::kFcg, acfg, cfg, {EngineKind::kSharded, shards});
    EXPECT_EQ(serial.colored_at, sh.colored_at);
    EXPECT_EQ(serial.delivered_at, sh.delivered_at);
    EXPECT_EQ(serial.completed_at, sh.completed_at);
  }
}

// Strongest trace-parity statement: after canonical sorting, the JSONL
// serialization of a kOnePerStep run is BYTE-IDENTICAL across both
// engines.  (Raw emission order differs - the sharded engine flushes
// per-shard trace buffers window by window - which is exactly what
// obs::canonical_sort exists to factor out.)
TEST(EngineParity, CanonicalJsonlIsByteIdenticalAcrossEngines) {
  const AlgoConfig acfg = algo_cfg(Algo::kFcg);
  const RunConfig base = harsh_cfg(17, RxPolicy::kOnePerStep);

  auto canonical_jsonl = [&](EngineKind kind, int threads) {
    VectorTrace trace;
    RunConfig cfg = base;
    cfg.trace = &trace;
    run_once(Algo::kFcg, acfg, cfg, {kind, threads});
    std::vector<TraceEvent> events = trace.events();
    obs::canonical_sort(events);
    return obs::to_jsonl(events);
  };

  const std::string serial = canonical_jsonl(EngineKind::kStepped, 1);
  EXPECT_FALSE(serial.empty());
  for (const int shards : {1, 2, 5})
    EXPECT_EQ(serial, canonical_jsonl(EngineKind::kSharded, shards))
        << "shards=" << shards;
}

// The engines' self-profiles must agree on the callback counts (they run
// the same simulation), even though the wall-clock split is engine-specific.
TEST(EngineParity, ProfileCallbackCountsMatchAcrossEngines) {
  const AlgoConfig acfg = algo_cfg(Algo::kCcg);
  const RunConfig base = harsh_cfg(23, RxPolicy::kDrainAll);

  auto profiled = [&](EngineKind kind, int threads) {
    EngineProfile prof;
    RunConfig cfg = base;
    cfg.profile = &prof;
    run_once(Algo::kCcg, acfg, cfg, {kind, threads});
    return prof;
  };

  const EngineProfile serial = profiled(EngineKind::kStepped, 1);
  const EngineProfile sh = profiled(EngineKind::kSharded, 3);
  EXPECT_GT(serial.callbacks_receive, 0);
  EXPECT_GT(serial.callbacks_tick, 0);
  EXPECT_EQ(serial.callbacks_start, sh.callbacks_start);
  EXPECT_EQ(serial.callbacks_receive, sh.callbacks_receive);
  EXPECT_EQ(serial.callbacks_tick, sh.callbacks_tick);

  // Memory-plan accounting: every engine reports a positive per-node
  // footprint and the process peak RSS.
  for (const EngineProfile* p : {&serial, &sh}) {
    EXPECT_GT(p->bytes_per_node, 0);
    EXPECT_GT(p->peak_rss_bytes, 0);
  }
  // Sharded-only substrate counters.
  EXPECT_EQ(sh.shards, 3);
  EXPECT_GT(sh.windows, 0);
  EXPECT_EQ(static_cast<int>(sh.shard_stats.size()), 3);
  EXPECT_GT(sh.boundary_msgs, 0);  // 3 shards on 150 nodes must cross

  // Queue instrumentation.  Both engines count delivery-calendar traffic
  // (one event per undropped message), so they must agree exactly and
  // every staged message must drain.
  EXPECT_GT(serial.events_scheduled, 0);
  EXPECT_EQ(serial.events_fired, serial.events_scheduled);
  EXPECT_EQ(sh.events_scheduled, serial.events_scheduled);
  EXPECT_EQ(sh.events_fired, serial.events_fired);
  EXPECT_GE(serial.queue_max_bucket, 1);
  EXPECT_GE(sh.queue_max_bucket, 1);
}

// ~100-seed randomized property test: a fresh fault stack per seed (jitter,
// i.i.d. + burst loss, pre/online failures, crash-restarts, stragglers,
// partitions, reliable sublayer, both rx policies, all four protocols), with
// the canonically sorted JSONL trace required to be BYTE-IDENTICAL between
// the stepped engine and the sharded engine (shard count cycling 1, 2, 3
// over the seeds).  Any batching, lazy-crash or calendar-ordering slip
// shows up as a trace diff.
TEST(EngineParity, RandomizedFaultStacksTraceByteParity) {
  constexpr int kSeeds = 100;
  // Both engines round their calendar rings up from max_delay + 1 to a
  // power of two; the sweep must cover delay structures that get rounded.
  int rounded_rings = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 gen(0x9E3779B97F4A7C15ull * static_cast<unsigned>(seed));
    auto pick = [&](int lo, int hi) {  // inclusive
      return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
    };

    RunConfig cfg;
    cfg.n = pick(48, 128);
    cfg.logp = (pick(0, 1) != 0) ? LogP::piz_daint() : LogP::unit();
    cfg.seed = static_cast<std::uint64_t>(seed) * 7919u;
    cfg.rx = (pick(0, 1) != 0) ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
    cfg.jitter_max = pick(0, 2);
    cfg.drop_prob = 0.01 * pick(0, 3);
    if (pick(0, 1) != 0)
      cfg.burst = BurstLoss::from_rate(0.01 * pick(2, 6), pick(2, 5));
    // config_error() rejects a node failing twice (and duplicate straggler /
    // partition listings), so draw distinct nodes per constraint set.
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
          {fresh_node(failed), static_cast<Step>(pick(3, 60))});
    if (pick(0, 1) != 0) {
      const Step down = static_cast<Step>(pick(5, 40));
      cfg.failures.restarts.push_back(
          {fresh_node(failed), down, down + static_cast<Step>(pick(1, 10))});
    }
    for (int k = pick(0, 2); k > 0; --k)
      cfg.stragglers.push_back(
          {fresh_node(straggling), static_cast<Step>(pick(2, 4))});
    if (pick(0, 1) != 0) {
      PartitionWindow pw;
      pw.from = static_cast<Step>(pick(2, 20));
      pw.until = pw.from + static_cast<Step>(pick(2, 15));
      for (int k = pick(1, 4); k > 0; --k)
        pw.members.push_back(fresh_node(partitioned));
      cfg.partitions.push_back(pw);
    }

    NetworkModel net;
    net.reset(cfg);
    if (!std::has_single_bit(static_cast<std::uint64_t>(net.max_delay()) + 1))
      ++rounded_rings;

    const Algo algo =
        std::array{Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg}[
            static_cast<std::size_t>(pick(0, 3))];
    AlgoConfig acfg = algo_cfg(algo);
    acfg.reliable.enabled = pick(0, 1) != 0;

    auto canonical_jsonl = [&](EngineKind kind, int threads) {
      VectorTrace trace;
      RunConfig tcfg = cfg;
      tcfg.trace = &trace;
      run_once(algo, acfg, tcfg, {kind, threads});
      std::vector<TraceEvent> events = trace.events();
      obs::canonical_sort(events);
      return obs::to_jsonl(events);
    };

    SCOPED_TRACE("seed=" + std::to_string(seed) + " algo=" +
                 std::string(algo_name(algo)) + " n=" + std::to_string(cfg.n));
    const std::string serial = canonical_jsonl(EngineKind::kStepped, 1);
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial, canonical_jsonl(EngineKind::kSharded, 1 + seed % 3));
  }
  EXPECT_GT(rounded_rings, 10);
}

}  // namespace
}  // namespace cg
