// Cross-cutting property sweeps: for every algorithm, across sizes, LogP
// parameters and seeds, check the universal invariants of the model and
// the per-algorithm consistency guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <type_traits>

#include "gossip/timing.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"

namespace cg {
namespace {

// gtest lists each case with the raw bytes of its parameter, so the struct
// has no padding: the bytes after the one-byte `algo` are an explicit zero
// field, and the listed names are the same on every build and run.
struct SweepCase {
  Algo algo;
  std::uint8_t zero[3] = {};
  NodeId n;
  Step l_over_o;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

class AlgoSweep : public ::testing::TestWithParam<SweepCase> {};

AlgoConfig config_for(NodeId n) {
  AlgoConfig acfg;
  // Gossip long enough to color most nodes at every size in the sweep.
  acfg.T = 6 + 2 * static_cast<Step>(std::ceil(
                       std::log2(static_cast<double>(std::max<NodeId>(n, 2)))));
  acfg.ocg_corr_sends = 2 * n;  // OCG: guarantee full coverage
  acfg.fcg_f = 1;
  return acfg;
}

TEST_P(AlgoSweep, UniversalInvariants) {
  const SweepCase c = GetParam();
  RunConfig cfg;
  cfg.n = c.n;
  cfg.logp = LogP{.l_over_o = c.l_over_o, .o_us = 1.0};
  cfg.seed = c.seed;
  cfg.record_node_detail = true;
  const AlgoConfig acfg = config_for(c.n);
  const RunMetrics m = run_once(c.algo, acfg, cfg);

  // Terminates on its own.
  EXPECT_FALSE(m.hit_max_steps);
  // Population accounting.
  EXPECT_EQ(m.n_active, c.n);
  EXPECT_LE(m.n_colored, m.n_active);
  EXPECT_LE(m.n_delivered, m.n_colored);
  // The root holds the message from step 0.
  EXPECT_EQ(m.colored_at[0], 0);

  const Step min_arrival = cfg.logp.delivery_delay() + 1;  // emit at 1
  for (NodeId i = 0; i < c.n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Step col = m.colored_at[idx];
    if (i != 0 && col != kNever) {
      // Physics: nothing can arrive before the first emission lands.
      EXPECT_GE(col, min_arrival) << algo_name(c.algo) << " node " << i;
    }
    // Ordering: delivery and completion cannot precede coloring.
    if (m.delivered_at[idx] != kNever && col != kNever) {
      EXPECT_GE(m.delivered_at[idx], col);
    }
    if (m.completed_at[idx] != kNever && col != kNever) {
      EXPECT_GE(m.completed_at[idx], col);
    }
  }

  // All corrected variants must reach everyone without failures.
  if (c.algo != Algo::kGos) {
    EXPECT_TRUE(m.all_active_colored)
        << algo_name(c.algo) << " n=" << c.n << " seed=" << c.seed;
  }
  // Self-terminating algorithms: every colored node completed.
  EXPECT_NE(m.t_complete, kNever) << algo_name(c.algo);

  // Work sanity: bounded by gossip budget + generous correction budget.
  const std::int64_t bound =
      static_cast<std::int64_t>(c.n) * (acfg.T + 4 * c.n + 64);
  EXPECT_LE(m.msgs_total, bound);
  EXPECT_GE(m.msgs_total, c.n - 1);  // must at least inform everyone once
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const Algo a : {Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg,
                       Algo::kBig, Algo::kBfb, Algo::kOpt}) {
    for (const NodeId n : {2, 3, 17, 64, 129}) {
      for (const Step lo : {0, 1, 3}) {
        for (const std::uint64_t seed : {1ULL, 99ULL}) {
          cases.push_back({a, {}, n, lo, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AlgoSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s_n%d_lo%lld_s%llu",
                    algo_name(info.param.algo), info.param.n,
                    static_cast<long long>(info.param.l_over_o),
                    static_cast<unsigned long long>(info.param.seed));
      return std::string(buf);
    });

// ----------------------------------------------------- trace coherence --

TEST(TraceCoherence, EverySendHasAMatchingDeliveryOrDrop) {
  VectorTrace trace;
  RunConfig cfg;
  cfg.n = 32;
  cfg.logp = LogP::unit();
  cfg.seed = 5;
  cfg.trace = &trace;
  AlgoConfig acfg;
  acfg.T = 10;
  run_once(Algo::kCcg, acfg, cfg);

  std::map<std::pair<NodeId, Step>, int> recv_count;  // (node, step)
  int sends = 0, recvs = 0;
  for (const auto& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::kSend) {
      ++sends;
    } else if (ev.kind == TraceEvent::Kind::kDeliver) {
      ++recvs;
      ++recv_count[{ev.node, ev.step}];
    }
  }
  EXPECT_GT(sends, 0);
  EXPECT_LE(recvs, sends);  // drops: receiver already completed

  // Every delivery is exactly delivery_delay after a matching send.
  for (const auto& ev : trace.events()) {
    if (ev.kind != TraceEvent::Kind::kDeliver) continue;
    bool matched = false;
    for (const auto& ev2 : trace.events()) {
      if (ev2.kind == TraceEvent::Kind::kSend && ev2.node == ev.peer &&
          ev2.peer == ev.node &&
          ev2.step + cfg.logp.delivery_delay() == ev.step) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "delivery at node " << ev.node << " t=" << ev.step;
  }
}

TEST(TraceCoherence, ColoredAtMostOncePerNode) {
  VectorTrace trace;
  RunConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::unit();
  cfg.seed = 8;
  cfg.trace = &trace;
  AlgoConfig acfg;
  acfg.T = 12;
  acfg.fcg_f = 1;
  run_once(Algo::kFcg, acfg, cfg);
  std::map<NodeId, int> colored, completed;
  for (const auto& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::kColored) ++colored[ev.node];
    if (ev.kind == TraceEvent::Kind::kComplete) ++completed[ev.node];
  }
  for (const auto& [node, count] : colored)
    EXPECT_EQ(count, 1) << "node " << node << " colored twice (duplicates)";
  for (const auto& [node, count] : completed)
    EXPECT_EQ(count, 1) << "node " << node << " completed twice";
}

// ------------------------------------------- loss-hardened guarantees --

// A channel hostile enough that the PLAIN correction phase measurably
// fails (a lost kFwd silently skips part of the ring), but tame enough
// that bounded retransmission restores the guarantee in every trial:
// 15% Gilbert-Elliott loss in bursts of mean 8 steps, deliberately short
// gossip (T=8 at N=128) so correction carries real weight.
TrialSpec bursty_spec(Algo algo, bool reliable) {
  TrialSpec spec;
  spec.algo = algo;
  spec.acfg.T = 8;
  spec.acfg.fcg_f = 1;
  spec.acfg.reliable.enabled = reliable;
  spec.n = 128;
  spec.logp = LogP::unit();
  spec.seed = 42;
  spec.trials = 200;
  spec.threads = 4;
  spec.burst_loss = 0.15;
  spec.burst_mean = 8;
  return spec;
}

// Claim 3 (all active nodes reached) survives burst loss ONLY with the
// ack/retransmit sublayer: 200 seeds, zero misses - and the same 200
// seeds show the plain variant measurably losing nodes, so the pass is
// not the channel being secretly gentle.
TEST(LossHardening, CcgReachesAllNodesUnderBurstLossWithRetransmission) {
  const TrialAggregate rel = run_trials(bursty_spec(Algo::kCcg, true));
  EXPECT_EQ(rel.all_colored_trials, rel.trials);
  EXPECT_EQ(rel.hit_max_steps_trials, 0);
  EXPECT_GT(rel.work_retrans.mean(), 0.0);

  const TrialAggregate plain = run_trials(bursty_spec(Algo::kCcg, false));
  EXPECT_LT(plain.all_colored_trials, plain.trials);
  EXPECT_DOUBLE_EQ(plain.work_retrans.mean(), 0.0);
}

// FCG's all-or-nothing delivery (Claim 4) under the same channel: the
// hardened variant never violates it and never needs an SOS it cannot
// finish; the plain variant demonstrably does.
TEST(LossHardening, FcgKeepsAllOrNothingUnderBurstLossWithRetransmission) {
  const TrialAggregate rel = run_trials(bursty_spec(Algo::kFcg, true));
  EXPECT_EQ(rel.all_or_nothing_violations, 0);
  EXPECT_EQ(rel.sos_incomplete_trials, 0);
  EXPECT_EQ(rel.hit_max_steps_trials, 0);

  const TrialAggregate plain = run_trials(bursty_spec(Algo::kFcg, false));
  EXPECT_GT(plain.all_or_nothing_violations + plain.sos_incomplete_trials +
                (plain.trials - plain.all_delivered_trials),
            0);
}

}  // namespace
}  // namespace cg
