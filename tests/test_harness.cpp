// Harness: trial aggregation, seeding, thread invariance, failure
// sampling, and the scenario pipeline.
#include <gtest/gtest.h>

#include <iterator>

#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "harness/scenarios.hpp"
#include "sim/failure.hpp"

namespace cg {
namespace {

TrialSpec base_spec(Algo algo, NodeId n, int trials) {
  TrialSpec spec;
  spec.algo = algo;
  spec.n = n;
  spec.logp = LogP::unit();
  spec.seed = 404;
  spec.trials = trials;
  spec.acfg.T = 14;
  spec.acfg.ocg_corr_sends = 10;
  return spec;
}

TEST(Harness, AggregateCountsTrials) {
  const TrialAggregate agg = run_trials(base_spec(Algo::kCcg, 128, 25));
  EXPECT_EQ(agg.trials, 25);
  EXPECT_EQ(agg.all_colored_trials, 25);
  EXPECT_EQ(agg.t_complete.count(), 25u);
  EXPECT_EQ(agg.hit_max_steps_trials, 0);
  EXPECT_GT(agg.work.mean(), 0);
}

TEST(Harness, DeterministicForSeed) {
  const TrialAggregate a = run_trials(base_spec(Algo::kGos, 128, 10));
  const TrialAggregate b = run_trials(base_spec(Algo::kGos, 128, 10));
  EXPECT_DOUBLE_EQ(a.work.mean(), b.work.mean());
  EXPECT_DOUBLE_EQ(a.inconsistency.mean(), b.inconsistency.mean());
}

TEST(Harness, DifferentSeedsGiveDifferentRuns) {
  TrialSpec s1 = base_spec(Algo::kGos, 128, 10);
  TrialSpec s2 = s1;
  s2.seed = 405;
  const TrialAggregate a = run_trials(s1);
  const TrialAggregate b = run_trials(s2);
  EXPECT_NE(a.work.mean(), b.work.mean());
}

TEST(Harness, ThreadCountDoesNotChangeResults) {
  TrialSpec s1 = base_spec(Algo::kCcg, 100, 16);
  TrialSpec s4 = s1;
  s4.threads = 4;
  const TrialAggregate a = run_trials(s1);
  const TrialAggregate b = run_trials(s4);
  EXPECT_EQ(a.trials, b.trials);
  // The farm reduces per-trial results in trial order regardless of which
  // worker ran them, so the aggregate is byte-identical - including the
  // FP-order-sensitive streaming summaries and raw sample orderings
  // (tests/test_trial_farm.cpp pins the full JSON report too).
  EXPECT_EQ(a.t_complete.raw(), b.t_complete.raw());
  EXPECT_DOUBLE_EQ(a.work.mean(), b.work.mean());
  EXPECT_DOUBLE_EQ(a.work.stddev(), b.work.stddev());
  EXPECT_DOUBLE_EQ(a.work.min(), b.work.min());
  EXPECT_DOUBLE_EQ(a.work.max(), b.work.max());
}

TEST(Harness, FailureSamplingRespectsCounts) {
  TrialSpec spec = base_spec(Algo::kFcg, 128, 12);
  spec.acfg.fcg_f = 2;
  spec.pre_failures = 5;
  spec.online_failures = 2;
  const TrialAggregate agg = run_trials(spec);
  EXPECT_EQ(agg.trials, 12);
  EXPECT_EQ(agg.all_or_nothing_violations, 0);
  EXPECT_EQ(agg.hit_max_steps_trials, 0);
}

TEST(Harness, InconsistencyTracksGosMisses) {
  TrialSpec spec = base_spec(Algo::kGos, 256, 30);
  spec.acfg.T = 10;  // deliberately too short: many nodes missed
  const TrialAggregate agg = run_trials(spec);
  EXPECT_GT(agg.inconsistency.mean(), 0.05);
  EXPECT_LT(agg.all_colored_rate(), 0.5);
}

TEST(FailureScheduleTest, RandomSchedulesAreValid) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) {
    const FailureSchedule fs = FailureSchedule::random(64, 5, 3, 100, rng);
    EXPECT_EQ(fs.pre_failed.size(), 5u);
    EXPECT_EQ(fs.online.size(), 3u);
    std::set<NodeId> all(fs.pre_failed.begin(), fs.pre_failed.end());
    for (const auto& of : fs.online) {
      EXPECT_TRUE(all.insert(of.node).second) << "duplicate failure node";
      EXPECT_GE(of.at_step, 0);
      EXPECT_LT(of.at_step, 100);
      EXPECT_NE(of.node, 0);  // root excluded by default
    }
    EXPECT_EQ(all.count(0), 0u);
  }
}

TEST(FailureScheduleTest, ExpectedFailuresFormula) {
  // Paper Section IV-C: N=4096, 12h job, MTBF 18304h -> ~2.69 failures.
  EXPECT_NEAR(FailureSchedule::expected_failures(4096), 2.685, 0.01);
  // f_bar(N) crosses BIG's tolerance (11) just above N=16778 -> the paper's
  // "for N > 22,001, BIG may not be consistent" threshold scale.
  EXPECT_LT(FailureSchedule::expected_failures(16000), 11.0);
  EXPECT_GT(FailureSchedule::expected_failures(22001), 12.0);
}

TEST(Scenarios, ReportedLatencyPicksTheRightMetric) {
  TrialAggregate agg;
  RunMetrics m;
  m.n_total = m.n_active = m.n_colored = m.n_delivered = 4;
  m.all_active_colored = true;
  m.t_last_colored = 10;
  m.t_complete = 20;
  m.t_root_complete = 30;
  agg.absorb(m);
  EXPECT_DOUBLE_EQ(reported_latency_steps(Algo::kCcg, agg), 20.0);
  EXPECT_DOUBLE_EQ(reported_latency_steps(Algo::kBig, agg), 10.0);
  EXPECT_DOUBLE_EQ(reported_latency_steps(Algo::kBfb, agg), 30.0);
  const LogP half_us{.l_over_o = 2, .o_us = 0.5};
  EXPECT_EQ(reported_latency_us(Algo::kCcg, agg, half_us), 10.0);
  EXPECT_EQ(reported_latency_us(Algo::kSbrb, agg, half_us), 5.0);
  EXPECT_EQ(reported_latency_us(Algo::kBfb, agg, half_us), 15.0);
  // cgsim prints the percentiles of this sample beside its mean, so the
  // sample is the one the mean averages.
  EXPECT_EQ(&reported_latency_sample(Algo::kCcg, agg), &agg.t_complete);
  EXPECT_EQ(&reported_latency_sample(Algo::kSbrb, agg), &agg.t_last_colored);
  EXPECT_EQ(&reported_latency_sample(Algo::kBig, agg), &agg.t_last_colored);
  EXPECT_EQ(&reported_latency_sample(Algo::kOpt, agg), &agg.t_last_colored);
  EXPECT_EQ(&reported_latency_sample(Algo::kBfb, agg), &agg.t_root_complete);
  for (const Algo a : {Algo::kGos, Algo::kOcg, Algo::kCcg, Algo::kFcg,
                       Algo::kOcgChain, Algo::kSbrb, Algo::kBig, Algo::kOpt,
                       Algo::kBfb})
    EXPECT_DOUBLE_EQ(reported_latency_sample(a, agg).mean(),
                     reported_latency_steps(a, agg))
        << algo_name(a);
}

TEST(AlgoSpec, EveryAlgoHasOneRow) {
  // The names appear in every driver's stdout and must not move; the
  // guarantee is what default_entries' "+rel" entry claims; gossip picks
  // the algorithms cgsim checks against the analytic c(t).
  struct Want {
    Algo algo;
    const char* name;
    Guarantee guarantee;
    bool reliable;
    bool gossip;
  };
  const Want want[] = {
      {Algo::kGos, "GOS", Guarantee::kNone, false, true},
      {Algo::kOcg, "OCG", Guarantee::kNone, false, true},
      {Algo::kCcg, "CCG", Guarantee::kAllReached, true, true},
      {Algo::kFcg, "FCG", Guarantee::kSosConsistent, true, true},
      {Algo::kOcgChain, "OCG-CHAIN", Guarantee::kNone, false, true},
      {Algo::kBig, "BIG", Guarantee::kNone, false, false},
      {Algo::kBfb, "BFB", Guarantee::kNone, false, false},
      {Algo::kOpt, "opt", Guarantee::kNone, false, false},
      {Algo::kSbrb, "SBRB", Guarantee::kConsistent, false, false},
  };
  ASSERT_EQ(algo_specs().size(), std::size(want));
  for (const Want& w : want) {
    int rows = 0;
    for (const AlgoSpec& spec : algo_specs()) rows += spec.algo == w.algo;
    EXPECT_EQ(rows, 1) << w.name;
    const AlgoSpec& spec = algo_spec(w.algo);
    EXPECT_EQ(spec.algo, w.algo) << w.name;
    EXPECT_STREQ(spec.name, w.name);
    EXPECT_STREQ(algo_name(w.algo), w.name);
    EXPECT_EQ(spec.guarantee, w.guarantee) << w.name;
    EXPECT_EQ(spec.reliable, w.reliable) << w.name;
    EXPECT_EQ(spec.gossip, w.gossip) << w.name;
    Algo parsed = Algo::kGos;
    EXPECT_TRUE(algo_from_flag(spec.flag, parsed)) << spec.flag;
    EXPECT_EQ(parsed, w.algo) << spec.flag;
  }
  Algo untouched = Algo::kBfb;
  EXPECT_FALSE(algo_from_flag("bogus", untouched));
  EXPECT_FALSE(algo_from_flag("", untouched));
  EXPECT_FALSE(algo_from_flag("CCG", untouched));  // the name is not a flag
  EXPECT_EQ(untouched, Algo::kBfb);
  EXPECT_EQ(algo_flags_list(), "gos|ocg|ccg|fcg|chain|big|bfb|opt|sbrb");
}

TEST(Scenarios, LatencyOverNoCompletedTrialIsNotAValue) {
  // Every trial truncated: no completion, no coloring of all nodes, no
  // root completion.  The mean must read "no value", not 0 - a run where
  // nothing finished is not the fastest possible run.
  TrialAggregate agg;
  RunMetrics m;
  m.n_total = m.n_active = 4;
  m.n_colored = 2;
  m.hit_max_steps = true;
  agg.absorb(m);
  for (const Algo a : {Algo::kCcg, Algo::kSbrb, Algo::kBig, Algo::kBfb}) {
    EXPECT_FALSE(reported_latency_us(a, agg, LogP::unit()).has_value())
        << algo_name(a);
    EXPECT_EQ(reported_latency_steps(a, agg), 0.0) << algo_name(a);
  }
  EXPECT_EQ(Table::cell_or_na("%.2f", std::nullopt), "n/a");
  EXPECT_EQ(Table::cell_or_na("%.2f", 3.0), "3.00");
}

TEST(Scenarios, RunScenarioEndToEnd) {
  const ScenarioResult r =
      run_scenario(Algo::kOcg, 256, 4, LogP::piz_daint(), 30, 11, 1e-3);
  EXPECT_EQ(r.agg.trials, 30);
  ASSERT_TRUE(r.lat_us.has_value());
  EXPECT_GT(*r.lat_us, 0);
  EXPECT_GT(r.predicted_us, 0);
  EXPECT_NEAR(*r.lat_us, r.predicted_us, 0.35 * r.predicted_us);
  EXPECT_LT(r.incon, 0.01);
}

TEST(TrialAggregateTest, MergeAddsEverything) {
  TrialAggregate a, b;
  RunMetrics m;
  m.n_total = m.n_active = m.n_colored = 2;
  m.t_last_colored = 5;
  m.all_active_colored = true;
  m.msgs_total = 10;
  a.absorb(m);
  m.msgs_total = 20;
  b.absorb(m);
  b.sos_trials = 1;
  a.merge(b);
  EXPECT_EQ(a.trials, 2);
  EXPECT_EQ(a.all_colored_trials, 2);
  EXPECT_EQ(a.sos_trials, 1);
  EXPECT_DOUBLE_EQ(a.work.mean(), 15.0);
}

}  // namespace
}  // namespace cg
