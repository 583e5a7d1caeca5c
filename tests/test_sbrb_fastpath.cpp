// SBRB fast-path verification (gossip/sbrb.hpp):
//
//   * SbrbRefNode (tests/reference_sbrb.hpp) - the stock Protocol-API
//     implementation (linear membership scans, heap-allocated
//     full-Message queues) - is the oracle: a 100-seed sweep under the
//     full fault stack (jitter, drops, bursts, crashes, restarts, every
//     Byzantine mode) pins the production SbrbNode's canonically sorted
//     JSONL trace BYTE-FOR-BYTE against it on the stepped engine and the
//     sharded engine at shard counts {1,2,3,8};
//   * the sharded engine's staged-send step kernel must be invisible in
//     the self-profile too: callback counts match the stepped engine
//     exactly on clean runs (where the kernel engages);
//   * sbrb_fill_sample output is sorted, distinct and never self;
//   * sbrb_config_error / sbrb_samples reject malformed knobs with
//     human-readable CG_CHECK messages (death tests).
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gossip/sbrb.hpp"
#include "harness/runner.hpp"
#include "obs/report.hpp"
#include "obs/trace_sinks.hpp"
#include "reference_sbrb.hpp"
#include "sim/core/profile.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/fault/validate.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(SbrbConfig, ErrorStringsNameTheBadKnob) {
  EXPECT_EQ(sbrb_config_error(1e-3, 0.15), "");
  EXPECT_EQ(sbrb_config_error(0.999, 0.0), "");
  EXPECT_NE(sbrb_config_error(0.0, 0.1).find("sbrb_eps"), std::string::npos);
  EXPECT_NE(sbrb_config_error(1.0, 0.1).find("sbrb_eps"), std::string::npos);
  EXPECT_NE(sbrb_config_error(-2.0, 0.1).find("sbrb_eps"), std::string::npos);
  EXPECT_NE(sbrb_config_error(1e-3, 0.5).find("sbrb_byz_frac"),
            std::string::npos);
  EXPECT_NE(sbrb_config_error(1e-3, -0.01).find("sbrb_byz_frac"),
            std::string::npos);
}

using SbrbConfigDeathTest = ::testing::Test;

TEST(SbrbConfigDeathTest, SamplesRejectEpsOutOfRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)sbrb_samples(64, 0.0, 0.1),
               "sbrb_eps must be in \\(0, 1\\)");
  EXPECT_DEATH((void)sbrb_samples(64, 1.0, 0.1), "sbrb_eps");
}

TEST(SbrbConfigDeathTest, SamplesRejectByzFracOutOfRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)sbrb_samples(64, 1e-3, 0.5),
               "sbrb_byz_frac must be in \\[0, 0.5\\)");
  EXPECT_DEATH((void)sbrb_samples(64, 1e-3, -0.1), "sbrb_byz_frac");
}

// ---------------------------------------------------------------------------
// Sample generator
// ---------------------------------------------------------------------------

TEST(SbrbFillSample, SortedDistinctAndNeverSelf) {
  std::array<NodeId, 64> buf{};
  for (const NodeId n : {5, 64, 1000}) {
    for (const NodeId self : {NodeId{0}, NodeId{1}, n - 1}) {
      for (int phase = 0; phase < 3; ++phase) {
        const int k = static_cast<int>(std::min<NodeId>(n - 1, 64));
        sbrb_fill_sample(12345, self, n, phase, k, buf.data());
        for (int i = 0; i < k; ++i) {
          EXPECT_NE(buf[static_cast<std::size_t>(i)], self);
          EXPECT_LT(buf[static_cast<std::size_t>(i)], n);
          if (i > 0) {
            EXPECT_LT(buf[static_cast<std::size_t>(i - 1)],
                      buf[static_cast<std::size_t>(i)]);
          }
        }
      }
    }
  }
  // Deterministic: same key, same sample.
  std::array<NodeId, 64> again{};
  sbrb_fill_sample(12345, 3, 1000, 1, 64, buf.data());
  sbrb_fill_sample(12345, 3, 1000, 1, 64, again.data());
  EXPECT_EQ(buf, again);
  // Phases decorrelate: echo and ready samples differ.
  sbrb_fill_sample(12345, 3, 1000, 0, 64, again.data());
  EXPECT_NE(buf, again);
}

// ---------------------------------------------------------------------------
// Fast path vs oracle
// ---------------------------------------------------------------------------

std::string canonical(VectorTrace& trace) {
  std::vector<TraceEvent> events = trace.events();
  obs::canonical_sort(events);
  return obs::to_jsonl(events);
}

// 100 random configs under the full fault stack.  The oracle trace comes
// from SbrbRefNode on the stepped engine; the fast path must reproduce it
// byte-for-byte on both engines (the runner dispatches SbrbNode).
TEST(SbrbFastPath, HundredSeedRefVsFastByteParity) {
  for (int seed = 0; seed < 100; ++seed) {
    std::mt19937_64 gen(0x9E3779B97F4A7C15ull *
                        static_cast<unsigned>(seed + 1));
    auto pick = [&](int lo, int hi) {  // inclusive
      return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
    };

    RunConfig cfg;
    cfg.n = pick(48, 128);
    cfg.logp = (pick(0, 1) != 0) ? LogP::piz_daint() : LogP::unit();
    cfg.seed = static_cast<std::uint64_t>(seed) * 7919u + 17u;
    cfg.rx = (pick(0, 1) != 0) ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
    cfg.jitter_max = pick(0, 2);
    cfg.drop_prob = 0.01 * pick(0, 2);
    if (pick(0, 1) != 0)
      cfg.burst = BurstLoss::from_rate(0.01 * pick(2, 5), pick(2, 5));
    std::set<NodeId> used;
    used.insert(0);
    auto fresh_node = [&] {
      for (;;) {
        const auto i = static_cast<NodeId>(pick(1, cfg.n - 1));
        if (used.insert(i).second) return i;
      }
    };
    for (int k = pick(0, 2); k > 0; --k)
      cfg.failures.online.push_back(
          {fresh_node(), static_cast<Step>(pick(3, 50))});
    if (pick(0, 1) != 0) {
      const Step down = static_cast<Step>(pick(5, 30));
      cfg.failures.restarts.push_back(
          {fresh_node(), down, down + static_cast<Step>(pick(1, 10))});
    }
    const auto mode = static_cast<ByzMode>(pick(0, kByzModeCount - 1));
    for (int k = pick(1, 5); k > 0; --k)
      cfg.byzantine.nodes.push_back({fresh_node(), mode});
    ASSERT_EQ(config_error(cfg), "");

    AlgoConfig acfg;
    acfg.T = 30;
    acfg.drain_extra = 2;
    acfg.sbrb_eps = 1e-3;

    SbrbNode::Params params;
    params.s = sbrb_samples(cfg.n, acfg.sbrb_eps, kSbrbByzFrac);
    params.deadline = sbrb_deadline(params.s, cfg.logp);

    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " mode=" + std::string(byz_mode_name(mode)) +
                 " n=" + std::to_string(cfg.n));

    struct Observed {
      std::string trace;
      std::string metrics;
    };
    // Oracle runs: the naive reference node under the SAME engine the
    // fast path is checked on (metrics like t_end are an engine-level
    // property, so the comparison must be same-engine).
    auto ref = [&](EngineKind kind, int threads) {
      Observed o;
      VectorTrace trace;
      RunConfig tcfg = cfg;
      tcfg.trace = &trace;
      switch (kind) {
        case EngineKind::kStepped: {
          Engine<SbrbRefNode> eng(tcfg, params);
          o.metrics = obs::to_json(eng.run());
          break;
        }
        case EngineKind::kSharded: {
          ShardedEngine<SbrbRefNode> eng(tcfg, params, threads);
          o.metrics = obs::to_json(eng.run());
          break;
        }
      }
      o.trace = canonical(trace);
      return o;
    };
    auto fast = [&](EngineKind kind, int threads) {
      Observed o;
      VectorTrace trace;
      RunConfig tcfg = cfg;
      tcfg.trace = &trace;
      o.metrics =
          obs::to_json(run_once(Algo::kSbrb, acfg, tcfg, {kind, threads}));
      o.trace = canonical(trace);
      return o;
    };

    // Cross-engine trace anchor: every engine must reproduce these bytes.
    const std::string oracle = ref(EngineKind::kStepped, 1).trace;
    ASSERT_FALSE(oracle.empty());

    auto check = [&](EngineKind kind, int threads) {
      SCOPED_TRACE(std::string(engine_name(kind)) + "/" +
                   std::to_string(threads));
      const Observed r = ref(kind, threads);
      const Observed f = fast(kind, threads);
      EXPECT_EQ(oracle, r.trace);
      EXPECT_EQ(oracle, f.trace);
      EXPECT_EQ(r.metrics, f.metrics);
    };

    check(EngineKind::kStepped, 1);
    check(EngineKind::kSharded, 1);
    if (seed % 5 == 0) {
      check(EngineKind::kSharded, 2);
      check(EngineKind::kSharded, 8);
    } else {
      check(EngineKind::kSharded, seed % 2 == 0 ? 3 : 2);
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
}

// Clean network, no faults: the sharded engine's SBRB step kernel engages
// (pending-bitmap sweep instead of the generic per-node tick sweep), and
// its self-profile must be indistinguishable from the stepped engine's -
// same callback counts, same trace bytes.
TEST(SbrbFastPath, ShardedKernelProfileMatchesStepped) {
  RunConfig cfg;
  cfg.n = 512;
  cfg.logp = LogP::unit();
  cfg.seed = 4242;
  AlgoConfig acfg;
  acfg.sbrb_eps = 1e-3;

  struct Observed {
    EngineProfile prof;
    std::string trace;
  };
  auto profiled = [&](EngineKind kind, int threads) {
    Observed o;
    VectorTrace trace;
    RunConfig tcfg = cfg;
    tcfg.trace = &trace;
    tcfg.profile = &o.prof;
    run_once(Algo::kSbrb, acfg, tcfg, {kind, threads});
    o.trace = canonical(trace);
    return o;
  };

  const Observed serial = profiled(EngineKind::kStepped, 1);
  EXPECT_GT(serial.prof.callbacks_tick, 0);
  EXPECT_GT(serial.prof.callbacks_receive, 0);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Observed sh = profiled(EngineKind::kSharded, shards);
    EXPECT_EQ(serial.prof.callbacks_start, sh.prof.callbacks_start);
    EXPECT_EQ(serial.prof.callbacks_receive, sh.prof.callbacks_receive);
    EXPECT_EQ(serial.prof.callbacks_tick, sh.prof.callbacks_tick);
    EXPECT_EQ(serial.trace, sh.trace);
  }
}

}  // namespace
}  // namespace cg
