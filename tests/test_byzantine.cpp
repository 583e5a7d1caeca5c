// Byzantine adversary tier (sim/fault/byzantine.hpp) + the sample-based
// Byzantine reliable broadcast family (gossip/sbrb.hpp):
//
//   * sample-size math: monotone in the target epsilon, thresholds inside
//     their samples, capped by the population;
//   * config validation: Byzantine nodes must be in range, unique and
//     disjoint from every crash/restart set;
//   * the attack: a single equivocating ROOT provably splits plain CCG -
//     correct nodes deliver two different signed payloads - while SBRB's
//     echo/ready quorums hold consistency in every trial, for every
//     adversary mode, at 10% Byzantine;
//   * determinism: under combined Byzantine + burst-loss + crash faults
//     the canonically sorted JSONL trace is BYTE-IDENTICAL across the
//     stepped and sharded engines at shard counts {1,2,3,8} (adversary
//     decisions are pure hashes - no RNG stream consumption);
//   * forensics: a campaign over the Byzantine grid dumps replayable
//     artifacts for CCG's consistency violations, and the artifact rings
//     parse back through obs::from_jsonl().
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gossip/sbrb.hpp"
#include "harness/campaign.hpp"
#include "harness/runner.hpp"
#include "harness/scenarios.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/fault/validate.hpp"
#include "sim/trace.hpp"

namespace cg {
namespace {

// ---------------------------------------------------------------------------
// Sample sizing
// ---------------------------------------------------------------------------

TEST(SbrbSamples, GrowWithTighterEpsilon) {
  const SbrbSamples loose = sbrb_samples(1 << 20, 1e-2, 0.1);
  const SbrbSamples tight = sbrb_samples(1 << 20, 1e-8, 0.1);
  EXPECT_GE(tight.g, loose.g);
  EXPECT_GE(tight.e, loose.e);
  EXPECT_GE(tight.r, loose.r);
  EXPECT_GE(tight.d, loose.d);
  EXPECT_GT(tight.g, 0);
}

TEST(SbrbSamples, ThresholdsStayInsideSamples) {
  for (const NodeId n : {2, 5, 17, 64, 500, 100000}) {
    for (const double eps : {0.1, 1e-3, 1e-6}) {
      for (const double byz : {0.0, 0.1, 0.3}) {
        const SbrbSamples s = sbrb_samples(n, eps, byz);
        SCOPED_TRACE("n=" + std::to_string(n) + " eps=" + std::to_string(eps));
        EXPECT_GE(s.e_thresh, 1);
        EXPECT_LE(s.e_thresh, s.e);
        EXPECT_GE(s.r_thresh, 1);
        EXPECT_LE(s.r_thresh, s.r);
        EXPECT_GE(s.d_thresh, 1);
        EXPECT_LE(s.d_thresh, s.d);
        // More Byzantine tolerance can only raise the echo quorum.
        EXPECT_GE(s.e_thresh, sbrb_samples(n, eps, 0.0).e_thresh);
      }
    }
  }
}

TEST(SbrbSamples, CappedByPopulation) {
  const SbrbSamples s = sbrb_samples(5, 1e-9, 0.1);
  EXPECT_LE(s.g, 4);  // can never sample more than n-1 peers
  EXPECT_LE(s.e, 4);
  EXPECT_LE(s.r, 4);
  EXPECT_LE(s.d, 4);
  const SbrbSamples one = sbrb_samples(1, 1e-3, 0.1);
  EXPECT_EQ(one.g, 0);  // a singleton has nobody to sample
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

RunConfig byz_cfg(NodeId n) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP::unit();
  cfg.seed = 3;
  return cfg;
}

TEST(ByzantineValidation, AcceptsDisjointSets) {
  RunConfig cfg = byz_cfg(32);
  cfg.failures.online.push_back({5, 9});
  cfg.failures.restarts.push_back({6, 10, 20});
  cfg.byzantine.nodes.push_back({7, ByzMode::kEquivocator});
  cfg.byzantine.nodes.push_back({8, ByzMode::kSilent});
  EXPECT_EQ(config_error(cfg), "");
}

TEST(ByzantineValidation, RejectsOutOfRangeAndDuplicates) {
  RunConfig cfg = byz_cfg(16);
  cfg.byzantine.nodes.push_back({16, ByzMode::kSilent});
  EXPECT_NE(config_error(cfg).find("out of range"), std::string::npos);
  cfg.byzantine.nodes.clear();
  cfg.byzantine.nodes.push_back({4, ByzMode::kSilent});
  cfg.byzantine.nodes.push_back({4, ByzMode::kSpammer});
  EXPECT_NE(config_error(cfg).find("twice"), std::string::npos);
}

TEST(ByzantineValidation, RejectsOverlapWithCrashAndRestartSets) {
  for (int which = 0; which < 3; ++which) {
    RunConfig cfg = byz_cfg(32);
    if (which == 0) cfg.failures.pre_failed.push_back(9);
    if (which == 1) cfg.failures.online.push_back({9, 12});
    if (which == 2) cfg.failures.restarts.push_back({9, 8, 16});
    cfg.byzantine.nodes.push_back({9, ByzMode::kCorruptor});
    SCOPED_TRACE(which);
    EXPECT_NE(config_error(cfg).find("both byzantine"), std::string::npos);
  }
}

TEST(ByzantineValidation, ModeNamesRoundTrip) {
  for (int m = 0; m < kByzModeCount; ++m) {
    const auto mode = static_cast<ByzMode>(m);
    ByzMode back = ByzMode::kSilent;
    EXPECT_TRUE(byz_mode_from_name(byz_mode_name(mode), back));
    EXPECT_EQ(back, mode);
  }
  ByzMode out;
  EXPECT_FALSE(byz_mode_from_name("chaotic", out));
}

// ---------------------------------------------------------------------------
// The attack and the defense
// ---------------------------------------------------------------------------

TrialSpec attack_spec(Algo algo, int trials) {
  const LogP logp = LogP::unit();
  const TunedAlgo tuned = tune_for(algo, 64, 64, logp, 1e-4, /*f=*/1);
  TrialSpec spec;
  spec.algo = algo;
  spec.acfg = tuned.acfg;
  spec.n = 64;
  spec.logp = logp;
  spec.seed = 11;
  spec.trials = trials;
  spec.threads = 1;
  return spec;
}

// The canonical consistency attack: the SOURCE equivocates, broadcasting
// two validly signed payloads.  Plain CCG - built for a crash-only world -
// must split: some correct nodes deliver the true payload, others the
// alternate, in every trial.
TEST(ByzantineAttack, EquivocatingRootSplitsPlainCcg) {
  TrialSpec spec = attack_spec(Algo::kCcg, 20);
  spec.byz_count = 1;
  spec.byz_include_root = true;
  const TrialAggregate agg = run_trials(spec);
  EXPECT_EQ(agg.consistency_violations, 20);
  EXPECT_EQ(agg.forged_delivery_trials, 20);
  EXPECT_GT(agg.msgs_equivocated_total, 0);
}

// Per-run detail of the same split: both payloads delivered by correct
// nodes, and the run flagged inconsistent.
TEST(ByzantineAttack, SplitRunReportsDistinctPayloads) {
  const TrialSpec spec = [] {
    TrialSpec s = attack_spec(Algo::kCcg, 1);
    s.byz_count = 1;
    s.byz_include_root = true;
    return s;
  }();
  RunConfig rcfg = trial_run_config(spec, 0);
  const RunMetrics m = run_once(spec.algo, spec.acfg, rcfg);
  EXPECT_EQ(m.n_byzantine, 1);
  EXPECT_FALSE(m.consistent_delivery);
  EXPECT_GE(m.distinct_delivered_payloads, 2);
  EXPECT_GT(m.n_delivered_true, 0);
  EXPECT_GT(m.n_delivered_forged, 0);
}

// SBRB's defense, across every adversary mode at ~10% Byzantine plus the
// equivocating root: zero consistency violations, and every correct node
// still delivers under the non-equivocating modes.
TEST(ByzantineAttack, SbrbHoldsConsistencyUnderEveryMode) {
  for (const ByzMode mode : {ByzMode::kSilent, ByzMode::kEquivocator,
                             ByzMode::kCorruptor, ByzMode::kSpammer}) {
    TrialSpec spec = attack_spec(Algo::kSbrb, 15);
    spec.byz_count = 6;
    spec.byz_mode = mode;
    const TrialAggregate agg = run_trials(spec);
    SCOPED_TRACE(byz_mode_name(mode));
    EXPECT_EQ(agg.consistency_violations, 0);
    EXPECT_EQ(agg.forged_delivery_trials, 0);  // forged digests never pass
  }
  TrialSpec root = attack_spec(Algo::kSbrb, 15);
  root.byz_count = 1;
  root.byz_include_root = true;
  const TrialAggregate agg = run_trials(root);
  // A Byzantine source may get its alternate payload adopted - that is
  // allowed - but never BOTH payloads across correct nodes.
  EXPECT_EQ(agg.consistency_violations, 0);
}

TEST(ByzantineAttack, SbrbDeliversEverywhereWhenClean) {
  TrialSpec spec = attack_spec(Algo::kSbrb, 10);
  const TrialAggregate agg = run_trials(spec);
  EXPECT_EQ(agg.all_delivered_trials, 10);
  EXPECT_EQ(agg.all_or_nothing_violations, 0);
  EXPECT_EQ(agg.consistency_violations, 0);
}

// ---------------------------------------------------------------------------
// Cross-engine determinism under the full adversarial stack
// ---------------------------------------------------------------------------

// 100-seed randomized sweep: Byzantine nodes of a random mode stacked on
// burst loss and crashes, traced on both engines.  The canonically sorted
// JSONL must be byte-identical between the stepped engine and the sharded
// engine on 1 shard and on 2 or 3 shards; every 5th seed adds 8 shards.
TEST(ByzantineParity, HundredSeedTraceByteParity) {
  constexpr int kSeeds = 100;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 gen(0xB5297A4D3F84D5B5ull * static_cast<unsigned>(seed));
    auto pick = [&](int lo, int hi) {  // inclusive
      return lo + static_cast<int>(gen() % static_cast<unsigned>(hi - lo + 1));
    };

    RunConfig cfg;
    cfg.n = pick(48, 128);
    cfg.logp = (pick(0, 1) != 0) ? LogP::piz_daint() : LogP::unit();
    cfg.seed = static_cast<std::uint64_t>(seed) * 6151u;
    cfg.rx = (pick(0, 1) != 0) ? RxPolicy::kOnePerStep : RxPolicy::kDrainAll;
    cfg.jitter_max = pick(0, 2);
    cfg.drop_prob = 0.01 * pick(0, 2);
    if (pick(0, 1) != 0)
      cfg.burst = BurstLoss::from_rate(0.01 * pick(2, 5), pick(2, 5));
    std::set<NodeId> used;
    used.insert(0);  // root stays clean here; the root attack is tested above
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

    const Algo algo = std::array{Algo::kCcg, Algo::kFcg, Algo::kSbrb}[
        static_cast<std::size_t>(pick(0, 2))];
    AlgoConfig acfg;
    acfg.T = 30;
    acfg.drain_extra = 2;
    if (algo == Algo::kFcg) acfg.fcg_f = 2;
    if (algo == Algo::kSbrb) acfg.sbrb_eps = 1e-3;

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
                 std::string(algo_name(algo)) + " mode=" +
                 std::string(byz_mode_name(mode)) +
                 " n=" + std::to_string(cfg.n));
    const std::string serial = canonical_jsonl(EngineKind::kStepped, 1);
    ASSERT_FALSE(serial.empty());
    if (mode == ByzMode::kEquivocator) {
      ASSERT_NE(serial.find("\"equivocated\""), std::string::npos);
    }
    if (mode == ByzMode::kCorruptor || mode == ByzMode::kSpammer) {
      ASSERT_NE(serial.find("\"forged\""), std::string::npos);
    }
    ASSERT_EQ(serial, canonical_jsonl(EngineKind::kSharded, 1));
    if (seed % 5 == 0) {
      ASSERT_EQ(serial, canonical_jsonl(EngineKind::kSharded, 2));
      ASSERT_EQ(serial, canonical_jsonl(EngineKind::kSharded, 8));
    } else {
      ASSERT_EQ(serial, canonical_jsonl(EngineKind::kSharded,
                                        seed % 2 == 0 ? 3 : 2));
    }
  }
}

// A silent adversary never emits a kSend: the suppression happens at the
// sender, before tracing and routing.
TEST(ByzantineParity, SilentNodeSendsNothing) {
  RunConfig cfg;
  cfg.n = 48;
  cfg.logp = LogP::unit();
  cfg.seed = 4;
  cfg.byzantine.nodes.push_back({3, ByzMode::kSilent});
  VectorTrace trace;
  cfg.trace = &trace;
  AlgoConfig acfg;
  acfg.T = 30;
  const RunMetrics m = run_once(Algo::kCcg, acfg, cfg, {EngineKind::kStepped, 1});
  EXPECT_GT(m.msgs_suppressed, 0);
  for (const auto& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::kSend) {
      EXPECT_NE(ev.node, 3);
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign integration + forensics
// ---------------------------------------------------------------------------

TEST(ByzantineCampaign, EffectiveGuaranteeLayering) {
  FaultScenario sc;
  sc.byz_count = 3;
  // An adversary voids claims that assume honest forwarding...
  EXPECT_EQ(campaign_effective_guarantee(Guarantee::kAllReached, sc),
            Guarantee::kNone);
  EXPECT_EQ(campaign_effective_guarantee(Guarantee::kAllOrNothing, sc),
            Guarantee::kNone);
  // ...but consistency is exactly the claim made UNDER the adversary, and
  // crashes cannot split payloads, so it survives both.
  EXPECT_EQ(campaign_effective_guarantee(Guarantee::kConsistent, sc),
            Guarantee::kConsistent);
  sc.byz_count = 0;
  sc.online_failures = 2;
  EXPECT_EQ(campaign_effective_guarantee(Guarantee::kConsistent, sc),
            Guarantee::kConsistent);
}

// Small end-to-end Byzantine grid: SBRB passes every consistency cell,
// CCG fails the equivocation cells AND dumps a replayable artifact whose
// ring parses back event-by-event.
TEST(ByzantineCampaign, GridFindsCcgViolationsAndSbrbHolds) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "cg_byz_campaign_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  CampaignConfig cfg;
  cfg.n = 48;
  cfg.logp = LogP::unit();
  cfg.seed = 5;
  cfg.trials = 12;
  cfg.threads = 2;
  cfg.artifacts_dir = dir.string();
  cfg.rerun_prefix = "./fault_campaign --byz-grid";

  const double eps = 1e-3;
  const TunedAlgo ccg = tune_for(Algo::kCcg, cfg.n, cfg.n, cfg.logp, eps, 1);
  const TunedAlgo fcg = tune_for(Algo::kFcg, cfg.n, cfg.n, cfg.logp, eps, 1);
  const TunedAlgo sbrb = tune_for(Algo::kSbrb, cfg.n, cfg.n, cfg.logp, eps, 1);
  const auto entries = byzantine_entries(ccg.acfg, fcg.acfg, sbrb.acfg);
  const auto scenarios = byzantine_fault_scenarios(cfg.n);
  ASSERT_GE(scenarios.size(), 3u);  // clean + >=2 adversarial cells

  const CampaignResult result = run_campaign(cfg, scenarios, entries);

  bool ccg_failed_adversarial = false;
  for (const auto& cell : result.cells) {
    SCOPED_TRACE(cell.scenario + "/" + cell.entry);
    if (cell.entry.find("SBRB") != std::string::npos) {
      EXPECT_TRUE(cell.pass);
      EXPECT_EQ(cell.agg.consistency_violations, 0);
    }
    if (cell.entry.find("CCG") != std::string::npos &&
        cell.scenario != "byz-clean" && !cell.pass)
      ccg_failed_adversarial = true;
  }
  EXPECT_TRUE(ccg_failed_adversarial);

  // At least one violation artifact, pointing at a CCG or FCG cell, whose
  // header carries the replay command and whose ring round-trips.
  ASSERT_FALSE(result.artifacts.empty());
  const FailureArtifact& art = result.artifacts.front();
  EXPECT_TRUE(std::filesystem::exists(art.path));
  std::ifstream in(art.path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  EXPECT_NE(line.find("\"rerun\""), std::string::npos);
  EXPECT_NE(line.find("--replay=" + art.scenario + "/" + art.entry + "/" +
                      std::to_string(art.trial)),
            std::string::npos);
  int events = 0;
  while (std::getline(in, line)) {
    TraceEvent ev;
    ASSERT_TRUE(obs::from_jsonl(line, ev)) << line;
    ++events;
  }
  EXPECT_GT(events, 0);

  // --replay contract: the campaign's own spec for that cell reproduces
  // the violation under the same effective guarantee.
  const FaultScenario* sc = nullptr;
  for (const auto& s : scenarios)
    if (s.name == art.scenario) sc = &s;
  const CampaignEntry* en = nullptr;
  for (const auto& e : entries)
    if (e.label == art.entry) en = &e;
  ASSERT_NE(sc, nullptr);
  ASSERT_NE(en, nullptr);
  const TrialSpec spec = campaign_trial_spec(cfg, *sc, *en);
  RunConfig rcfg = trial_run_config(spec, art.trial);
  const RunMetrics m = run_once(spec.algo, spec.acfg, rcfg);
  EXPECT_TRUE(
      trial_violates(campaign_effective_guarantee(en->guarantee, *sc), m));

  std::filesystem::remove_all(dir);
}

// Byzantine draws happen LAST in the per-trial fault sampling, so enabling
// them never perturbs the crash/restart schedule of an existing spec.
TEST(ByzantineCampaign, ByzDrawsDoNotPerturbCrashSchedule) {
  TrialSpec spec = attack_spec(Algo::kCcg, 1);
  spec.online_failures = 2;
  spec.restarts = 1;
  const RunConfig before = trial_run_config(spec, 7);
  spec.byz_count = 3;
  const RunConfig after = trial_run_config(spec, 7);
  ASSERT_EQ(before.failures.online.size(), after.failures.online.size());
  for (std::size_t i = 0; i < before.failures.online.size(); ++i)
    EXPECT_EQ(before.failures.online[i].node, after.failures.online[i].node);
  ASSERT_EQ(before.failures.restarts.size(), after.failures.restarts.size());
  EXPECT_EQ(after.byzantine.nodes.size(), 3u);
  EXPECT_EQ(config_error(after), "");
}

}  // namespace
}  // namespace cg
