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
//   * the send cursor's corners - subscriptions that arrive after the
//     echo and Ready fan-outs were staged, under a root that equivocates
//     between two validly signed digests - match the oracle message for
//     message, payloads included;
//   * SbrbNode::heap_bytes() reports exactly its vectors' capacities;
//   * sbrb_fill_sample output is sorted, distinct and never self;
//   * sbrb_config_error / sbrb_samples reject malformed knobs with
//     human-readable CG_CHECK messages (death tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <tuple>
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

// ---------------------------------------------------------------------------
// Send-cursor corners
// ---------------------------------------------------------------------------

/// One processed message, payload included (the trace omits payloads, so
/// two Readies to one subscriber in swapped digest order would pass it).
using Received = std::tuple<Step, NodeId, NodeId, Tag, std::uint32_t>;

/// Shared receive log; shards dispatch concurrently, hence the lock.
struct ReceiveLog {
  std::mutex mu;
  std::vector<Received> rows;
};
ReceiveLog* g_receive_log = nullptr;

/// Node wrapper that logs every receive, then runs the wrapped node.  The
/// engines call on_receive on the static node type, so this hides the
/// inner one; every other hook (the staged-send kernel included) is
/// inherited.
template <class Inner>
struct Logged : Inner {
  using Inner::Inner;
  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    {
      const std::lock_guard<std::mutex> lock(g_receive_log->mu);
      g_receive_log->rows.emplace_back(ctx.now(), ctx.self(), m.src, m.tag,
                                       m.payload);
    }
    Inner::on_receive(ctx, m);
  }
};

/// What a run left behind: the canonical trace, the metrics and every
/// receive (sorted; same-step receives are a multiset).
struct Recorded {
  std::vector<TraceEvent> events;
  std::string trace;
  std::string metrics;
  std::vector<Received> received;
};

template <class Node>
Recorded record(const RunConfig& cfg, const SbrbNode::Params& params,
                EngineKind kind, int shards) {
  ReceiveLog log;
  g_receive_log = &log;
  Recorded out;
  VectorTrace trace;
  RunConfig tcfg = cfg;
  tcfg.trace = &trace;
  if (kind == EngineKind::kStepped) {
    Engine<Logged<Node>> eng(tcfg, params);
    out.metrics = obs::to_json(eng.run());
  } else {
    ShardedEngine<Logged<Node>> eng(tcfg, params, shards);
    out.metrics = obs::to_json(eng.run());
  }
  g_receive_log = nullptr;
  out.events = trace.events();
  out.trace = canonical(trace);
  out.received = std::move(log.rows);
  std::sort(out.received.begin(), out.received.end());
  return out;
}

/// The staged-send corners a run exercised, read off the oracle's run.
struct Corners {
  int late_echo_subs = 0;   ///< SubEcho processed after the node's 1st Echo
  int late_ready_subs = 0;  ///< SubReady processed after its 1st Ready
  int two_digest_readies = 0;  ///< (node, src) pairs with two Ready digests
};

Corners corners_of(const Recorded& r) {
  Corners c;
  std::map<NodeId, Step> first_echo, first_ready;
  for (const TraceEvent& ev : r.events) {
    if (ev.kind != TraceEvent::Kind::kSend) continue;
    if (ev.tag == Tag::kSbrbEcho) first_echo.try_emplace(ev.node, ev.step);
    if (ev.tag == Tag::kSbrbReady) first_ready.try_emplace(ev.node, ev.step);
  }
  const auto sent_before = [](const std::map<NodeId, Step>& first, NodeId i,
                              Step s) {
    const auto it = first.find(i);
    return it != first.end() && it->second < s;
  };
  std::map<std::pair<NodeId, NodeId>, std::set<std::uint32_t>> digests;
  for (const auto& [step, node, src, tag, payload] : r.received) {
    if (tag == Tag::kSbrbSubEcho && sent_before(first_echo, node, step))
      ++c.late_echo_subs;
    if (tag == Tag::kSbrbSubReady && sent_before(first_ready, node, step))
      ++c.late_ready_subs;
    if (tag == Tag::kSbrbReady) digests[{node, src}].insert(payload);
  }
  for (const auto& [key, set] : digests)
    if (set.size() >= 2) ++c.two_digest_readies;
  return c;
}

// An equivocating root splits the first candidates between two signed
// digests, so nodes turn Ready for both, and jitter spreads the
// subscription dribble past the fan-outs: late subscribers land in the
// cursor's segments between events, where each is owed an Echo and one
// Ready per Ready digest, interleaved in arrival order.  Every receive -
// payload included - must match the reference on the stepped engine and
// the sharded engine at one and two shards.
TEST(SbrbFastPath, LateSubscribersUnderEquivocatingRootMatchReference) {
  Corners seen;
  for (int seed = 0; seed < 6; ++seed) {
    RunConfig cfg;
    cfg.n = 96 + 16 * seed;
    cfg.logp = LogP::unit();
    cfg.seed = 1000u + static_cast<std::uint64_t>(seed);
    cfg.jitter_max = seed % 3;
    cfg.byzantine.nodes.push_back({cfg.root, ByzMode::kEquivocator});
    ASSERT_EQ(config_error(cfg), "");
    SbrbNode::Params params;
    params.s = sbrb_samples(cfg.n, 1e-3, kSbrbByzFrac);
    params.deadline = sbrb_deadline(params.s, cfg.logp);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " n=" + std::to_string(cfg.n));

    const Recorded oracle =
        record<SbrbRefNode>(cfg, params, EngineKind::kStepped, 1);
    const Corners c = corners_of(oracle);
    seen.late_echo_subs += c.late_echo_subs;
    seen.late_ready_subs += c.late_ready_subs;
    seen.two_digest_readies += c.two_digest_readies;
    for (const auto& [kind, shards] :
         {std::pair{EngineKind::kStepped, 1}, std::pair{EngineKind::kSharded, 1},
          std::pair{EngineKind::kSharded, 2}}) {
      SCOPED_TRACE(std::string(engine_name(kind)) + "/" +
                   std::to_string(shards));
      const Recorded fast = record<SbrbNode>(cfg, params, kind, shards);
      EXPECT_EQ(oracle.trace, fast.trace);
      EXPECT_EQ(oracle.received, fast.received);
      if (kind == EngineKind::kStepped) {
        EXPECT_EQ(oracle.metrics, fast.metrics);
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
  // The sweep must actually reach the corners it is named after.
  EXPECT_GT(seen.late_echo_subs, 0);
  EXPECT_GT(seen.late_ready_subs, 0);
  EXPECT_GT(seen.two_digest_readies, 0);
}

// ---------------------------------------------------------------------------
// Heap accounting
// ---------------------------------------------------------------------------

/// The Ctx surface SbrbNode uses, with nothing behind it.
struct BareCtx {
  std::uint64_t run_seed = 7;
  Xoshiro256 stream{11};
  void activate() {}
  std::uint64_t seed() const { return run_seed; }
  bool is_root() const { return false; }
  Xoshiro256& rng() { return stream; }
  void mark_colored() {}
  void adopt_payload(std::uint32_t) {}
  void deliver() {}
  void complete() {}
};

TEST(SbrbNodeHeap, ReportsItsVectorsCapacities) {
  // Staged sends are cursors, so the node itself stays small too.
  EXPECT_LE(sizeof(SbrbNode), 464u);
  const NodeId n = 4096;
  SbrbNode::Params p;
  p.s = sbrb_samples(n, 1e-4, kSbrbByzFrac);
  SbrbNode node(p, /*self=*/5, n);
  EXPECT_EQ(node.heap_bytes(), 0u);  // samples are drawn in on_start

  BareCtx ctx;
  node.on_start(ctx);
  const std::size_t samples =
      static_cast<std::size_t>(p.s.e + p.s.r + p.s.d) * sizeof(NodeId);
  EXPECT_EQ(node.heap_bytes(), samples);

  // Subscriptions grow the subscriber list exactly like a vector of the
  // same element type; a repeated one is not stored again.
  std::vector<std::uint32_t> mirror;
  for (NodeId src = 100; src < 300; ++src) {
    Message m;
    m.src = src;
    m.tag = src % 3 == 0 ? Tag::kSbrbSubEcho : Tag::kSbrbSubReady;
    node.on_receive(ctx, m);
    node.on_receive(ctx, m);
    mirror.push_back(0);
    ASSERT_EQ(node.heap_bytes(),
              samples + mirror.capacity() * sizeof(std::uint32_t))
        << "after " << mirror.size() << " subscribers";
  }
  // Reuse keeps (and still reports) the capacity: reruns allocate nothing.
  node.reset_for_run(p, 5, n);
  EXPECT_EQ(node.heap_bytes(),
            samples + mirror.capacity() * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace cg
