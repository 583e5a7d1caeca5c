// Tests for the benchmark's own bookkeeping (bench_logic.hpp): span
// self-time arithmetic, guarantee accounting, steps -> microseconds, and
// the derived per-layer ratios.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_logic.hpp"
#include "harness/campaign.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"

namespace {

using namespace cg;
using perfbench::GuaranteeTally;
using perfbench::Span;
using perfbench::SpanLog;

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
}

// ------------------------------------------------------------------ spans

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  SpanLog log(true);
  const int parent = log.add({"harness.run_once", "", 0, 10, -1, 0});
  // Overlapping children [1,3] and [2,5] cover 4 s, not 5; [8,12] counts
  // only up to the parent's end.
  const int a = log.add({"a", "", 1, 3, parent, 0});
  log.add({"b", "", 2, 5, parent, 0});
  log.add({"c", "", 8, 12, parent, 0});
  // A grandchild is inside its parent already: it changes nothing above.
  log.add({"a.inner", "", 1, 2, a, 0});
  EXPECT_DOUBLE_EQ(log.self_seconds(parent), 10.0 - (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(log.self_seconds(a), 2.0 - 1.0);
}

TEST(Spans, TopLevelCoverageIsTheUnionOverTheRun) {
  SpanLog log(true);
  log.add({"setup", "", 0, 10, -1, 0});
  log.add({"e2e.round", "", 9, 15, -1, 0});
  log.add({"inside", "", 1, 2, 0, 0});  // a child adds no coverage
  log.add({"replay", "", 20, 25, -1, 0});
  EXPECT_DOUBLE_EQ(log.top_level_coverage(0, 30), 20.0 / 30.0);
}

TEST(Spans, ScopesNestAndADisabledLogStillTimes) {
  SpanLog log(true);
  {
    perfbench::Scope outer(log, "setup", 1);
    perfbench::Scope inner(log, "analysis.tune_for", -1, "CCG");
    const double d = inner.close();
    EXPECT_GE(d, 0.0);
    EXPECT_DOUBLE_EQ(inner.close(), d);  // idempotent
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].detail, "CCG");
  EXPECT_LE(log.spans()[1].t1, log.spans()[0].t1);
  EXPECT_NEAR(log.self_seconds(0),
              log.spans()[0].seconds() - log.spans()[1].seconds(), 1e-12);

  SpanLog off(false);
  perfbench::Scope s(off, "e2e.round");
  EXPECT_GE(s.close(), 0.0);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Spans, ChromeJsonUsesMicroseconds) {
  SpanLog log(true);
  log.add({"sim.replay", "clean/CCG", 0.001, 0.003, -1, 7});
  const std::string json = log.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000,\"dur\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
}

// ------------------------------------------------- guarantee accounting

RunMetrics reached_all() {
  RunMetrics m;
  m.n_total = m.n_active = m.n_colored = m.n_delivered = 64;
  m.all_active_colored = m.all_active_delivered = true;
  return m;
}

TEST(GuaranteeMetFrac, TruncatedTrialsFailEvenInObservationOnlyCells) {
  RunMetrics truncated = reached_all();
  truncated.hit_max_steps = true;
  RunMetrics missed = reached_all();
  missed.n_colored = 60;
  missed.all_active_colored = false;

  GuaranteeTally t;
  t.add(Guarantee::kNone, truncated);     // fails: truncated
  t.add(Guarantee::kNone, missed);        // observation only: met
  t.add(Guarantee::kAllReached, missed);  // fails: missed active nodes
  t.add(Guarantee::kAllReached, reached_all());
  EXPECT_EQ(t.attempted, 4);
  EXPECT_EQ(t.failed, 2);
  EXPECT_DOUBLE_EQ(t.met_frac(), 0.5);

  RunMetrics split = reached_all();
  split.consistent_delivery = false;
  GuaranteeTally b;
  b.add(Guarantee::kConsistent, split);
  b.add(72, 0);  // a campaign pass with no violating trial
  EXPECT_EQ(b.attempted, 73);
  EXPECT_EQ(b.failed, 1);
}

std::vector<CampaignEntry> campaign_entries() {
  std::vector<CampaignEntry> v;
  for (const Algo a : {Algo::kCcg, Algo::kFcg})
    for (auto& e : default_entries(a, AlgoConfig{})) v.push_back(e);
  return v;
}

TEST(GuaranteeMetFrac, DefaultGridHas22ObservationOnlyCellsOf36) {
  int none = 0, cells = 0;
  for (const auto& sc : default_fault_scenarios())
    for (const auto& e : campaign_entries()) {
      ++cells;
      if (campaign_effective_guarantee(e.guarantee, sc) == Guarantee::kNone)
        ++none;
    }
  EXPECT_EQ(cells, 36);
  EXPECT_EQ(none, 22);
}

TEST(GuaranteeMetFrac, DowngradedCellsDoNotCountMissedNodes) {
  // CCG+rel claims all-reached; crash faults void that claim, so the same
  // partial broadcast fails in the clean cell and is met in the crash cell.
  const CampaignEntry rel = default_entries(Algo::kCcg, AlgoConfig{})[1];
  ASSERT_EQ(rel.label, "CCG+rel");
  FaultScenario clean, crash, byz;
  crash.online_failures = 1;
  byz.byz_count = 3;
  RunMetrics missed = reached_all();
  missed.n_colored = 63;
  missed.all_active_colored = false;

  GuaranteeTally in_clean, in_crash, in_byz;
  in_clean.add(campaign_effective_guarantee(rel.guarantee, clean), missed);
  in_crash.add(campaign_effective_guarantee(rel.guarantee, crash), missed);
  in_byz.add(campaign_effective_guarantee(rel.guarantee, byz), missed);
  EXPECT_EQ(in_clean.failed, 1);
  EXPECT_EQ(in_crash.failed, 0);
  EXPECT_EQ(in_byz.failed, 0);
  // The Byzantine claim survives every downgrade rule.
  EXPECT_EQ(campaign_effective_guarantee(Guarantee::kConsistent, byz),
            Guarantee::kConsistent);
}

TEST(GuaranteeMetFrac, HeartbeatCountEqualsPerTrialReplay) {
  EXPECT_EQ(perfbench::last_heartbeat_failures(""), -1);
  EXPECT_EQ(perfbench::last_heartbeat_failures(
                "{\"failures\":3,\"x\":1}\n{\"failures\":12,\"x\":2}\n"),
            12);

  // A tiny campaign whose step cap truncates some trials: the count the
  // campaign reports must equal trial_violates over each trial replayed.
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 5;
  cfg.trials = 3;
  cfg.threads = 1;
  cfg.max_steps = 40;
  const std::vector<FaultScenario> scenarios = default_fault_scenarios();
  std::vector<CampaignEntry> entries = campaign_entries();
  for (auto& e : entries) e.acfg.T = 12;
  perfbench::CapturedHeartbeat hb;
  cfg.heartbeat = hb.get();
  run_campaign(cfg, scenarios, entries);

  GuaranteeTally replayed;
  for (const auto& sc : scenarios)
    for (const auto& e : entries) {
      const TrialSpec spec = campaign_trial_spec(cfg, sc, e);
      for (int t = 0; t < cfg.trials; ++t)
        replayed.add(campaign_effective_guarantee(e.guarantee, sc),
                     run_once(spec.algo, spec.acfg, trial_run_config(spec, t),
                              spec.exec));
    }
  EXPECT_GT(replayed.failed, 0);
  EXPECT_LT(replayed.failed, replayed.attempted);
  EXPECT_EQ(hb.failures(), replayed.failed);
}

// ------------------------------------------------------- cell timing

TEST(CellTiming, StampsSkipTheRepeatedSummaryLine) {
  const std::string text =
      "{\"heartbeat\":\"campaign\",\"done\":1,\"total\":4,\"failures\":0,"
      "\"elapsed_s\":0.010,\"eta_s\":0.030}\n"
      "{\"heartbeat\":\"campaign\",\"done\":2,\"total\":4,\"failures\":0,"
      "\"elapsed_s\":0.025,\"eta_s\":0.025}\n"
      "{\"heartbeat\":\"campaign\",\"done\":3,\"total\":4,\"failures\":1,"
      "\"elapsed_s\":0.031,\"eta_s\":0.010}\n"
      "{\"heartbeat\":\"campaign\",\"done\":4,\"total\":4,\"failures\":1,"
      "\"elapsed_s\":0.052,\"eta_s\":0.000}\n"
      "{\"heartbeat\":\"campaign\",\"done\":4,\"total\":4,\"failures\":1,"
      "\"elapsed_s\":0.053,\"eta_s\":0.000}\n";
  const std::vector<double> stamps = perfbench::heartbeat_stamps(text);
  ASSERT_EQ(stamps.size(), 4u);
  EXPECT_DOUBLE_EQ(stamps[3], 0.052);
  // Two cells of two trials: the second starts where the first ended.
  const auto cells = perfbench::cell_spans(stamps, 2);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cells[0].first, 0.0);
  EXPECT_DOUBLE_EQ(cells[0].second, 0.025);
  EXPECT_DOUBLE_EQ(cells[1].first, 0.025);
  EXPECT_DOUBLE_EQ(cells[1].second, 0.052);
  // Stamps that do not fill whole cells give no cells.
  EXPECT_TRUE(perfbench::cell_spans(stamps, 3).empty());
  EXPECT_TRUE(perfbench::heartbeat_stamps("").empty());
}

TEST(CellTiming, EveryTrialOfASerialCampaignIsStamped) {
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 9;
  cfg.trials = 2;
  cfg.threads = 1;
  const std::vector<FaultScenario> scenarios = default_fault_scenarios();
  std::vector<CampaignEntry> entries = campaign_entries();
  for (auto& e : entries) e.acfg.T = 12;
  perfbench::CapturedHeartbeat hb(0.0);
  cfg.heartbeat = hb.get();
  const CampaignResult res = run_campaign(cfg, scenarios, entries);
  const auto stamps = perfbench::heartbeat_stamps(hb.text());
  ASSERT_EQ(stamps.size(), res.cells.size() * 2);
  const auto cells = perfbench::cell_spans(stamps, cfg.trials);
  ASSERT_EQ(cells.size(), res.cells.size());
  for (std::size_t c = 1; c < cells.size(); ++c) {
    EXPECT_EQ(cells[c].first, cells[c - 1].second);
    EXPECT_LE(cells[c].first, cells[c].second);
  }
  EXPECT_EQ(hb.failures(), perfbench::last_heartbeat_failures(hb.text()));
}

// ------------------------------------------------------ steps -> us

TEST(SimLatency, StepsTimesO) {
  TrialAggregate agg;
  agg.t_complete.add(10);
  agg.t_complete.add(20);
  agg.t_last_colored.add(6);
  const LogP half_us{.l_over_o = 2, .o_us = 0.5};
  // CCG/FCG report mean completion; SBRB reports mean last delivery.
  EXPECT_DOUBLE_EQ(perfbench::sim_latency_us(Algo::kCcg, agg, half_us), 7.5);
  EXPECT_DOUBLE_EQ(perfbench::sim_latency_us(Algo::kFcg, agg, half_us), 7.5);
  EXPECT_DOUBLE_EQ(perfbench::sim_latency_us(Algo::kSbrb, agg, half_us), 3.0);
  // Piz Daint's O is 1 us: steps and microseconds coincide.
  EXPECT_DOUBLE_EQ(
      perfbench::sim_latency_us(Algo::kCcg, agg, LogP::piz_daint()), 15.0);
}

// ------------------------------------------------- per-layer ratios

void feed(obs::CountingTraceSink& c, TraceEvent::Kind k, int times,
          Tag tag = Tag::kGossip) {
  TraceEvent ev;
  ev.kind = k;
  ev.tag = tag;
  for (int i = 0; i < times; ++i) c.on_event(ev);
}

TEST(LayerRatios, HandBuiltReplaysAverageAndDivideAsDocumented) {
  using K = TraceEvent::Kind;
  perfbench::ReplayTotals tot;
  for (int r = 0; r < 2; ++r) {
    RunMetrics m;
    m.n_total = 100;
    m.msgs_gossip = 300;
    m.msgs_correction = 150;
    m.msgs_sos = 50;
    m.msgs_retrans = 20;
    m.msgs_equivocated = 10;
    EngineProfile p;
    p.callbacks_start = 100;
    p.callbacks_receive = 300;
    p.callbacks_tick = 600;
    p.events_scheduled = 480;
    p.steps = 40;
    p.wall_s = 0.002;
    p.deliver_s = 0.0015;
    p.bytes_per_node = 500;
    obs::CountingTraceSink c;
    feed(c, K::kSend, 10);
    feed(c, K::kLost, 2);
    feed(c, K::kDeliver, 8);
    feed(c, K::kColored, 4);
    tot.add(m, p, c, /*run_wall_s=*/0.003, /*sample_wall_s=*/0.0001);
  }
  const auto v = perfbench::replay_metrics(tot);
  const auto at = [&](const char* name) { return v.at(name).value; };
  // Per replayed broadcast.
  EXPECT_DOUBLE_EQ(at("sim.events"), 1000);
  EXPECT_DOUBLE_EQ(at("sim.callbacks_receive"), 300);
  EXPECT_DOUBLE_EQ(at("sim.msgs_routed"), 480);
  EXPECT_DOUBLE_EQ(at("sim.steps"), 40);
  EXPECT_DOUBLE_EQ(at("sim.wall_s"), 0.002);
  EXPECT_NEAR(at("sim.construct_s"), 0.001, 1e-15);  // run_once - engine
  EXPECT_DOUBLE_EQ(at("sim.phase_s.deliver"), 0.0015);
  EXPECT_DOUBLE_EQ(at("sim.bytes_per_node"), 500);
  EXPECT_DOUBLE_EQ(at("fault.sample_s"), 0.0001);
  // Ratios of sums.
  EXPECT_DOUBLE_EQ(at("sim.ns_per_event"), 2000);  // 0.004 s / 2000 events
  EXPECT_DOUBLE_EQ(at("fault.lost_frac"), 0.2);
  EXPECT_DOUBLE_EQ(at("gossip.useful_receive_frac"), 0.5);
  EXPECT_DOUBLE_EQ(at("reliable.retrans_frac"), 40.0 / 400.0);
  // Per node per broadcast.
  EXPECT_DOUBLE_EQ(at("gossip.gossip_msgs_per_node"), 3.0);
  EXPECT_DOUBLE_EQ(at("gossip.correction_msgs_per_node"), 1.5);
  EXPECT_DOUBLE_EQ(at("reliable.retrans_per_node"), 0.2);
  EXPECT_DOUBLE_EQ(at("adversary.equivocated_per_node"), 0.1);
  EXPECT_DOUBLE_EQ(at("adversary.forged_per_node"), 0);
  EXPECT_STREQ(v.at("sim.ns_per_event").unit, "ns");
  EXPECT_STREQ(v.at("fault.lost_frac").unit, "ratio");
  EXPECT_STREQ(v.at("sim.construct_s").unit, "s");
}

TEST(LayerRatios, TinyLossyRunMatchesItsOwnCounters) {
  TrialSpec spec;
  spec.algo = Algo::kCcg;
  spec.acfg.T = 12;
  spec.acfg.reliable.enabled = true;
  spec.n = 64;
  spec.logp = LogP::piz_daint();
  spec.drop_prob = 0.1;
  spec.seed = 3;
  RunConfig rcfg = trial_run_config(spec, 0);
  EngineProfile prof;
  obs::CountingTraceSink counts;
  rcfg.profile = &prof;
  rcfg.trace = &counts;
  const RunMetrics m = run_once(spec.algo, spec.acfg, rcfg);
  perfbench::ReplayTotals tot;
  tot.add(m, prof, counts, prof.wall_s, 0);
  const auto v = perfbench::replay_metrics(tot);

  using K = TraceEvent::Kind;
  const double sends = static_cast<double>(counts.count(K::kSend));
  ASSERT_GT(counts.count(K::kLost), 0);
  EXPECT_DOUBLE_EQ(v.at("fault.lost_frac").value,
                   static_cast<double>(counts.count(K::kLost)) / sends);
  EXPECT_DOUBLE_EQ(v.at("gossip.useful_receive_frac").value,
                   static_cast<double>(counts.count(K::kColored)) /
                       static_cast<double>(counts.count(K::kDeliver)));
  EXPECT_DOUBLE_EQ(v.at("sim.events").value,
                   static_cast<double>(prof.events()));
  EXPECT_DOUBLE_EQ(v.at("gossip.gossip_msgs_per_node").value,
                   static_cast<double>(m.msgs_gossip) / 64.0);
  EXPECT_GT(v.at("reliable.retrans_per_node").value, 0.0);
  EXPECT_DOUBLE_EQ(v.at("sim.construct_s").value, 0.0);
  // Every message sent is counted once by the engine's own tally.
  EXPECT_EQ(counts.count(K::kSend), m.msgs_total);
}

TEST(LayerRatios, MetricKeysFromEntryLabels) {
  EXPECT_EQ(perfbench::metric_key("CCG+rel"), "ccg-rel");
  EXPECT_EQ(perfbench::metric_key("FCG"), "fcg");
}

}  // namespace
