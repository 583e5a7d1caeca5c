#include "harness/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "harness/scenarios.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace cg {

const char* guarantee_name(Guarantee g) {
  switch (g) {
    case Guarantee::kNone: return "none";
    case Guarantee::kAllReached: return "all-reached";
    case Guarantee::kAllOrNothing: return "all-or-nothing";
    case Guarantee::kSosConsistent: return "sos-consistent";
    case Guarantee::kConsistent: return "consistent";
  }
  return "?";
}

bool guarantee_holds(Guarantee g, const TrialAggregate& agg) {
  switch (g) {
    case Guarantee::kNone:
      return true;
    case Guarantee::kAllReached:
      return agg.all_colored_trials == agg.trials;
    case Guarantee::kAllOrNothing:
      return agg.all_or_nothing_violations == 0;
    case Guarantee::kSosConsistent:
      return agg.all_or_nothing_violations == 0 &&
             agg.sos_incomplete_trials == 0;
    case Guarantee::kConsistent:
      return agg.consistency_violations == 0;
  }
  return false;
}

bool trial_violates(Guarantee g, const RunMetrics& m) {
  if (m.hit_max_steps) return true;  // truncated: always forensic-worthy
  switch (g) {
    case Guarantee::kNone:
      return false;
    case Guarantee::kAllReached:
      return !m.all_active_colored;
    case Guarantee::kAllOrNothing:
      return !m.all_or_nothing_delivery();
    case Guarantee::kSosConsistent:
      return !m.all_or_nothing_delivery() ||
             (m.sos_triggered && !m.all_active_delivered);
    case Guarantee::kConsistent:
      return !m.consistent_delivery;
  }
  return false;
}

/// What an entry may still claim in a given environment.  Crash faults void
/// claims the algorithms never made: CCG's consistency assumes no failure
/// during correction, and a restarted node rejoins uncolored (nobody owes
/// it a resend once the sweep has passed), so reach/all-or-nothing
/// predicates degrade to observation-only cells there.
Guarantee campaign_effective_guarantee(Guarantee g, const FaultScenario& sc) {
  // Byzantine senders void every crash-model claim (reach and
  // all-or-nothing assume honest forwarding); only kConsistent - the claim
  // the Byzantine tier exists to test - stays asserted.  It is also immune
  // to the crash rules below: crashes can only suppress deliveries, never
  // split the delivered payload.
  if (sc.byz_count > 0 && g != Guarantee::kConsistent &&
      g != Guarantee::kNone)
    return Guarantee::kNone;
  if (g == Guarantee::kConsistent) return g;
  const bool crashes = sc.online_failures > 0 || sc.restarts > 0;
  if (!crashes || g == Guarantee::kNone) return g;
  if (g == Guarantee::kAllReached) return Guarantee::kNone;
  if (sc.restarts > 0) return Guarantee::kNone;
  return g;  // FCG-style claims survive plain crashes (f is sized below)
}

namespace {

/// Collects flight-recorder dumps across workers.  Dumps are rare
/// (violating trials only) and capped per cell, so a single mutex around
/// the whole dump path costs nothing in the steady state.
class ArtifactSink {
 public:
  ArtifactSink(const CampaignConfig& cfg, const std::vector<CampaignCell>& cells)
      : cfg_(cfg), cells_(cells), dumped_(cells.size(), 0) {}

  /// Called after a violating trial: dump `fr` and remember the artifact.
  void dump(int cell, int trial, std::uint64_t seed,
            const obs::FlightRecorder& fr, const RunMetrics& m) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto c = static_cast<std::size_t>(cell);
    if (dumped_[c] >= cfg_.max_artifacts_per_cell) return;
    FailureArtifact art;
    art.scenario = cells_[c].scenario;
    art.entry = cells_[c].entry;
    art.trial = trial;
    art.seed = seed;
    art.truncated_run = m.hit_max_steps;
    art.path = cfg_.artifacts_dir + "/" + art.scenario + "__" + art.entry +
               "__t" + std::to_string(trial) + ".jsonl";
    obs::FlightRecorder::DumpInfo info;
    std::string rerun = cfg_.rerun_prefix;
    if (!rerun.empty()) rerun += ' ';
    rerun += "--replay=" + art.scenario + "/" + art.entry + "/" +
             std::to_string(trial);
    info.rerun = rerun;
    info.scenario = art.scenario;
    info.entry = art.entry;
    info.trial = trial;
    info.seed = seed;
    info.truncated_run = m.hit_max_steps;
    if (!fr.dump_jsonl(art.path, info)) return;
    ++dumped_[c];
    recs_.push_back({cell, std::move(art)});
  }

  /// Artifacts in deterministic (cell, trial) order.
  std::vector<FailureArtifact> take_sorted() {
    std::sort(recs_.begin(), recs_.end(), [](const Rec& a, const Rec& b) {
      return a.cell != b.cell ? a.cell < b.cell : a.art.trial < b.art.trial;
    });
    std::vector<FailureArtifact> out;
    out.reserve(recs_.size());
    for (auto& r : recs_) out.push_back(std::move(r.art));
    recs_.clear();
    return out;
  }

 private:
  struct Rec {
    int cell;
    FailureArtifact art;
  };
  const CampaignConfig& cfg_;
  const std::vector<CampaignCell>& cells_;
  std::mutex mu_;
  std::vector<int> dumped_;
  std::vector<Rec> recs_;
};

}  // namespace

TrialSpec campaign_trial_spec(const CampaignConfig& cfg,
                              const FaultScenario& scenario,
                              const CampaignEntry& entry) {
  TrialSpec spec;
  spec.algo = entry.algo;
  spec.acfg = entry.acfg;
  spec.n = cfg.n;
  spec.root = cfg.root;
  spec.logp = cfg.logp;
  spec.rx = cfg.rx;
  spec.seed = cfg.seed;
  spec.trials = cfg.trials;
  spec.threads = cfg.threads;
  spec.max_steps = cfg.max_steps;
  spec.exec = cfg.exec;

  spec.drop_prob = scenario.drop_prob;
  spec.burst_loss = scenario.burst_loss;
  spec.burst_mean = scenario.burst_mean;
  spec.jitter_max = scenario.jitter_max;
  spec.pre_failures = scenario.pre_failures;
  spec.online_failures = scenario.online_failures;
  spec.restarts = scenario.restarts;
  spec.stragglers = scenario.stragglers;
  spec.straggler_factor = scenario.straggler_factor;
  spec.partition_nodes = scenario.partition_nodes;
  spec.byz_count = scenario.byz_count;
  spec.byz_mode = scenario.byz_mode;
  spec.byz_include_root = scenario.byz_include_root;

  // FCG is configured for the crash level it is asked to survive.
  if (entry.algo == Algo::kFcg)
    spec.acfg.fcg_f = std::max(spec.acfg.fcg_f, scenario.online_failures);
  return spec;
}

CampaignResult run_campaign(const CampaignConfig& cfg,
                            const std::vector<FaultScenario>& scenarios,
                            const std::vector<CampaignEntry>& entries) {
  CG_CHECK(cfg.trials >= 1);
  CampaignResult result;
  const std::size_t n_cells = scenarios.size() * entries.size();
  result.cells.reserve(n_cells);
  std::vector<TrialSpec> specs;
  specs.reserve(n_cells);
  for (const auto& sc : scenarios) {
    for (const auto& e : entries) {
      CampaignCell cell;
      cell.scenario = sc.name;
      cell.entry = e.label;
      cell.guarantee = campaign_effective_guarantee(e.guarantee, sc);
      result.cells.push_back(std::move(cell));
      specs.push_back(campaign_trial_spec(cfg, sc, e));
    }
  }

  // Flatten the grid into (cell, trial) units so parallelism spans cells,
  // not just trials within one: a campaign of many small cells would
  // otherwise leave most workers idle at every cell boundary.  Units
  // never straddle cells (each worker's cached engine switches workload
  // at most once per unit), and each unit covers several trials so the
  // engine reuse amortizes.
  const std::int64_t total =
      static_cast<std::int64_t>(n_cells) * cfg.trials;
  const int threads = static_cast<int>(std::min<std::int64_t>(
      resolve_threads(cfg.threads), std::max<std::int64_t>(total, 1)));
  struct Unit {
    int cell;
    int t0;
    int t1;
  };
  std::vector<Unit> units;
  if (threads > 1 && total > 0) {
    const int unit = static_cast<int>(std::clamp<std::int64_t>(
        total / (8 * threads), 1, cfg.trials));
    for (std::size_t c = 0; c < n_cells; ++c)
      for (int t0 = 0; t0 < cfg.trials; t0 += unit)
        units.push_back({static_cast<int>(c), t0,
                         std::min(t0 + unit, cfg.trials)});
  }

  // Forensics: one flight recorder per worker, cleared between trials and
  // dumped (under ArtifactSink's cap) whenever the cell's per-trial
  // predicate fires.  The sinks observe only, so attaching them cannot
  // perturb the metrics - the campaign stays byte-identical with and
  // without an artifacts_dir.
  const bool forensics = !cfg.artifacts_dir.empty();
  const std::size_t flight_cap =
      cfg.flight_capacity > 0 ? static_cast<std::size_t>(cfg.flight_capacity)
                              : obs::FlightRecorder::kDefaultCapacity;
  ArtifactSink artifacts(cfg, result.cells);
  std::atomic<std::int64_t> done{0};
  std::atomic<std::int64_t> violations{0};
  const auto run_trial = [&](TrialWorkspace& w, obs::FlightRecorder* fr,
                             int cell, int t) {
    if (fr != nullptr) fr->clear();
    const RunMetrics m = w.run(specs[static_cast<std::size_t>(cell)], t, fr);
    if (trial_violates(result.cells[static_cast<std::size_t>(cell)].guarantee,
                       m)) {
      violations.fetch_add(1, std::memory_order_relaxed);
      if (fr != nullptr)
        artifacts.dump(cell, t,
                       derive_seed(cfg.seed,
                                   static_cast<std::uint64_t>(t) * 2 + 1),
                       *fr, m);
    }
    if (cfg.heartbeat != nullptr)
      cfg.heartbeat->beat(done.fetch_add(1, std::memory_order_relaxed) + 1,
                          total, violations.load(std::memory_order_relaxed));
    return m;
  };

  if (units.empty()) {  // serial path: one workspace, cells in order
    TrialWorkspace ws;
    obs::FlightRecorder fr(flight_cap);
    for (std::size_t c = 0; c < n_cells; ++c) {
      auto& cell = result.cells[c];
      for (int t = 0; t < cfg.trials; ++t)
        cell.agg.absorb(run_trial(ws, forensics ? &fr : nullptr,
                                  static_cast<int>(c), t));
    }
  } else {
    // Per-(cell, trial) result slots, reduced in (cell, trial) order
    // below - same determinism contract as run_trials.
    std::vector<RunMetrics> results(static_cast<std::size_t>(total));
    std::vector<TrialWorkspace> ws(static_cast<std::size_t>(threads));
    std::vector<obs::FlightRecorder> frs;
    if (forensics) {
      frs.reserve(static_cast<std::size_t>(threads));
      for (int i = 0; i < threads; ++i) frs.emplace_back(flight_cap);
    }
    ThreadPool::global(threads).parallel_for(
        static_cast<std::int64_t>(units.size()), 1, threads,
        [&](std::int64_t begin, std::int64_t end, int slot) {
          auto& w = ws[static_cast<std::size_t>(slot)];
          obs::FlightRecorder* fr =
              forensics ? &frs[static_cast<std::size_t>(slot)] : nullptr;
          for (std::int64_t u = begin; u < end; ++u) {
            const Unit& un = units[static_cast<std::size_t>(u)];
            const auto base =
                static_cast<std::int64_t>(un.cell) * cfg.trials;
            for (int t = un.t0; t < un.t1; ++t)
              results[static_cast<std::size_t>(base + t)] =
                  run_trial(w, fr, un.cell, t);
          }
        });
    for (std::size_t c = 0; c < n_cells; ++c) {
      auto& cell = result.cells[c];
      const auto base = static_cast<std::int64_t>(c) * cfg.trials;
      for (int t = 0; t < cfg.trials; ++t)
        cell.agg.absorb(results[static_cast<std::size_t>(base + t)]);
    }
  }
  result.artifacts = artifacts.take_sorted();
  if (cfg.heartbeat != nullptr)
    cfg.heartbeat->force(done.load(std::memory_order_relaxed), total,
                         violations.load(std::memory_order_relaxed));

  for (auto& cell : result.cells) {
    cell.pass = guarantee_holds(cell.guarantee, cell.agg);
    if (!cell.pass) ++result.failed_cells;
  }
  return result;
}

std::vector<FaultScenario> default_fault_scenarios() {
  std::vector<FaultScenario> v;
  {
    FaultScenario s;
    s.name = "clean";
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "iid-loss-2pct";
    s.drop_prob = 0.02;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "burst-loss";  // mean burst 4 steps, 3% overall loss
    s.burst_loss = 0.03;
    s.burst_mean = 4;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "jittery-burst";
    s.burst_loss = 0.02;
    s.burst_mean = 3;
    s.jitter_max = 2;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "crash";
    s.pre_failures = 1;
    s.online_failures = 1;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "crash-restart";
    s.restarts = 2;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "stragglers";
    s.stragglers = 3;
    s.straggler_factor = 4;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "partition";
    s.partition_nodes = 4;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "kitchen-sink";
    s.burst_loss = 0.02;
    s.burst_mean = 3;
    s.jitter_max = 1;
    s.online_failures = 1;
    s.stragglers = 2;
    v.push_back(s);
  }
  return v;
}

std::vector<CampaignEntry> default_entries(Algo algo, const AlgoConfig& base) {
  const AlgoSpec& spec = algo_spec(algo);
  // The plain entry only observes: loss voids CCG's and FCG's claims
  // unhardened, and the stock grid asserts nothing for the others.
  CampaignEntry plain{spec.name, algo, base, Guarantee::kNone};
  plain.acfg.reliable.enabled = false;
  std::vector<CampaignEntry> v{plain};
  // The sublayer only covers correction/SOS tags: only the algorithms that
  // carry them get a hardened variant, claiming their guarantee.
  if (spec.reliable) {
    CampaignEntry hard{std::string(spec.name) + "+rel", algo, base,
                       spec.guarantee};
    hard.acfg.reliable.enabled = true;
    v.push_back(hard);
  }
  return v;
}

std::vector<FaultScenario> byzantine_fault_scenarios(NodeId n) {
  std::vector<FaultScenario> v;
  {
    FaultScenario s;
    s.name = "byz-clean";  // baseline: same entries, no adversary
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "byz-5pct";
    s.byz_count = std::max<int>(1, static_cast<int>(n / 20));
    s.byz_mode = ByzMode::kEquivocator;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "byz-10pct";
    s.byz_count = std::max<int>(1, static_cast<int>(n / 10));
    s.byz_mode = ByzMode::kEquivocator;
    v.push_back(s);
  }
  {
    FaultScenario s;
    s.name = "byz-root-equiv";  // the canonical consistency attack
    s.byz_count = 1;
    s.byz_mode = ByzMode::kEquivocator;
    s.byz_include_root = true;
    v.push_back(s);
  }
  return v;
}

std::vector<CampaignEntry> byzantine_entries(const AlgoConfig& ccg,
                                             const AlgoConfig& fcg,
                                             const AlgoConfig& sbrb) {
  const auto entry = [](Algo a, const AlgoConfig& acfg) {
    return CampaignEntry{algo_name(a), a, acfg, Guarantee::kConsistent};
  };
  return {entry(Algo::kCcg, ccg), entry(Algo::kFcg, fcg),
          entry(Algo::kSbrb, sbrb)};
}

}  // namespace cg
