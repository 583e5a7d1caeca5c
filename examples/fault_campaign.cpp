// Fault-injection campaign: run CCG and FCG (plain and loss-hardened)
// through the stock grid of hostile channels - i.i.d. loss, Gilbert-
// Elliott burst loss, crashes, crash-restarts, stragglers, transient
// partitions - and check each variant's guarantee as a hard predicate
// over every trial.  Writes the machine-readable reliability report that
// docs/FAULTS.md describes.
//
//   ./fault_campaign [--n=128] [--trials=100] [--seed=21] [--threads=0]
//                    [--report-json=campaign.json] [--strict]
//                    [--artifacts-dir=<dir>] [--heartbeat=SECONDS]
//                    [--byz-grid] [--byz=K] [--byz-mode=MODE] [--byz-root]
//                    [--replay=scenario/entry/trial] [--replay-out=<file>]
//
// --strict makes a failed guarantee cell a non-zero exit (CI gate).
//
// Byzantine tier (docs/FAULTS.md): --byz-grid swaps in the adversarial
// grid - {clean, 5% equivocators, 10% equivocators, root equivocation} x
// {CCG, FCG, SBRB}, every cell claiming payload consistency.  CCG/FCG are
// expected to FAIL it (their violation artifacts replay like any other);
// SBRB must hold.  Alternatively --byz=K --byz-mode=MODE overlays K
// adversaries of one mode onto every stock scenario.  --replay evaluates
// the same effective guarantee either way.
//
// Failure forensics (docs/OBSERVABILITY.md "Failure forensics"):
// --artifacts-dir attaches a flight recorder to every trial; each
// guarantee-violating or truncated trial dumps its recent-event ring to
// `<dir>/<scenario>__<entry>__t<trial>.jsonl` whose header carries the
// exact --replay command.  --replay re-executes that one trial on the
// stepped engine (same seed and fault schedule) and, with --replay-out,
// writes its full JSONL trace - the artifact ring is the exact suffix.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/campaign.hpp"
#include "harness/scenarios.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sinks.hpp"

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

/// Re-run one campaign trial (named "scenario/entry/trial") on the stepped
/// engine with an optional full JSONL trace attached.
int replay_trial(const cg::CampaignConfig& cfg,
                 const std::vector<cg::FaultScenario>& scenarios,
                 const std::vector<cg::CampaignEntry>& entries,
                 const std::string& what, const std::string& trace_out) {
  using namespace cg;
  const auto first = what.find('/');
  const auto last = what.rfind('/');
  if (first == std::string::npos || last == first) {
    std::fprintf(stderr,
                 "fault_campaign: --replay wants scenario/entry/trial\n");
    return 2;
  }
  const std::string sc_name = what.substr(0, first);
  const std::string en_label = what.substr(first + 1, last - first - 1);
  const int trial = std::atoi(what.c_str() + last + 1);

  const FaultScenario* sc = nullptr;
  for (const auto& s : scenarios)
    if (s.name == sc_name) sc = &s;
  const CampaignEntry* en = nullptr;
  for (const auto& e : entries)
    if (e.label == en_label) en = &e;
  if (sc == nullptr || en == nullptr || trial < 0 || trial >= cfg.trials) {
    std::fprintf(stderr, "fault_campaign: unknown cell or trial \"%s\"\n",
                 what.c_str());
    return 2;
  }

  const TrialSpec spec = campaign_trial_spec(cfg, *sc, *en);
  RunConfig rcfg = trial_run_config(spec, trial);
  std::unique_ptr<obs::JsonlTraceSink> sink;
  if (!trace_out.empty()) {
    sink = std::make_unique<obs::JsonlTraceSink>(trace_out);
    if (!sink->ok()) {
      std::fprintf(stderr, "fault_campaign: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    rcfg.trace = sink.get();
  }
  const RunMetrics m = run_once(spec.algo, spec.acfg, rcfg);
  const Guarantee g = campaign_effective_guarantee(en->guarantee, *sc);
  std::printf(
      "replay %s: colored %d/%d, delivered %d, msgs %lld (%lld retrans), "
      "sos=%s, truncated=%s\n",
      what.c_str(), m.n_colored, m.n_active, m.n_delivered,
      static_cast<long long>(m.msgs_total),
      static_cast<long long>(m.msgs_retrans), m.sos_triggered ? "yes" : "no",
      m.hit_max_steps ? "yes" : "no");
  if (m.n_byzantine > 0)
    std::printf(
        "adversary: %d byzantine, delivered payloads true=%d forged=%d "
        "distinct=%d, consistent=%s\n",
        m.n_byzantine, m.n_delivered_true, m.n_delivered_forged,
        m.distinct_delivered_payloads, m.consistent_delivery ? "yes" : "NO");
  std::printf("guarantee %s: %s\n", guarantee_name(g),
              trial_violates(g, m) ? "VIOLATED" : "holds");
  if (sink) std::printf("trace: %s\n", trace_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);

  CampaignConfig cfg;
  cfg.n = flags.get_count("n", 128);
  cfg.logp = LogP::piz_daint();
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 21));
  cfg.trials = flags.get_count("trials", 100);
  cfg.threads =
      static_cast<int>(flags.get_int_in("threads", 0, 0, kMaxThreads));

  // Adversaries are distinct nodes: past n - 1 the sampler would give up
  // silently and place fewer (cgsim reads --byz the same way).
  int byz_count = static_cast<int>(flags.get_int_in("byz", 0, 0, cfg.n - 1));
  const bool byz_root = flags.get_bool("byz-root", false);
  if (byz_root && byz_count == 0) byz_count = 1;
  ByzMode byz_mode = ByzMode::kEquivocator;
  const std::string byz_mode_s = flags.get_string("byz-mode", "equivocator");
  if (!byz_mode_from_name(byz_mode_s, byz_mode)) {
    std::fprintf(stderr, "unknown --byz-mode=%s (%s)\n", byz_mode_s.c_str(),
                 byz_mode_names_list());
    return 2;
  }
  const bool byz_grid = flags.get_bool("byz-grid", false);

  const double eps = 1e-4;
  std::vector<CampaignEntry> entries;
  std::vector<FaultScenario> scenarios;
  if (byz_grid) {
    const TunedAlgo ccg = tune_for(Algo::kCcg, cfg.n, cfg.n, cfg.logp, eps, 1);
    const TunedAlgo fcg = tune_for(Algo::kFcg, cfg.n, cfg.n, cfg.logp, eps, 1);
    const TunedAlgo sbrb =
        tune_for(Algo::kSbrb, cfg.n, cfg.n, cfg.logp, eps, 1);
    entries = byzantine_entries(ccg.acfg, fcg.acfg, sbrb.acfg);
    scenarios = byzantine_fault_scenarios(cfg.n);
  } else {
    for (const Algo a : {Algo::kCcg, Algo::kFcg}) {
      const TunedAlgo tuned =
          tune_for(a, cfg.n, cfg.n, cfg.logp, eps, /*f=*/1);
      for (auto& e : default_entries(a, tuned.acfg)) entries.push_back(e);
    }
    scenarios = default_fault_scenarios();
    if (byz_count > 0) {
      for (auto& s : scenarios) {
        s.byz_count = byz_count;
        s.byz_mode = byz_mode;
        s.byz_include_root = byz_root;
      }
    }
  }

  const std::string replay = flags.get_string("replay", "");
  if (!replay.empty())
    return replay_trial(cfg, scenarios, entries, replay,
                        flags.get_string("replay-out", ""));

  cfg.artifacts_dir = flags.get_string("artifacts-dir", "");
  if (!cfg.artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.artifacts_dir, ec);
    if (ec) {
      std::fprintf(stderr, "fault_campaign: cannot create %s: %s\n",
                   cfg.artifacts_dir.c_str(), ec.message().c_str());
      return 1;
    }
    char prefix[192];
    std::snprintf(prefix, sizeof prefix,
                  "./fault_campaign --n=%d --seed=%llu --trials=%d", cfg.n,
                  static_cast<unsigned long long>(cfg.seed), cfg.trials);
    cfg.rerun_prefix = prefix;
    // The replay command must rebuild the same scenario/entry grid.
    if (byz_grid) {
      cfg.rerun_prefix += " --byz-grid";
    } else if (byz_count > 0) {
      std::snprintf(prefix, sizeof prefix, " --byz=%d --byz-mode=%s%s",
                    byz_count, byz_mode_name(byz_mode),
                    byz_root ? " --byz-root" : "");
      cfg.rerun_prefix += prefix;
    }
  }
  std::unique_ptr<Heartbeat> heartbeat;
  if (flags.has("heartbeat"))
    heartbeat = std::make_unique<Heartbeat>(
        stderr, flags.get_double("heartbeat", 5.0), "campaign");
  cfg.heartbeat = heartbeat.get();

  std::printf("fault campaign: N=%d, %d trials per cell, %zu scenarios x "
              "%zu entries\n\n",
              cfg.n, cfg.trials, scenarios.size(), entries.size());

  const CampaignResult result = run_campaign(cfg, scenarios, entries);

  Table table({"scenario", "entry", "guarantee", "pass", "reached",
               "aon viol", "consist viol", "SOS", "retrans", "truncated"});
  for (const auto& cell : result.cells) {
    table.add_row(
        {cell.scenario, cell.entry, guarantee_name(cell.guarantee),
         cell.guarantee == Guarantee::kNone ? "-" : (cell.pass ? "yes" : "NO"),
         Table::cell("%lld/%lld",
                     static_cast<long long>(cell.agg.all_colored_trials),
                     static_cast<long long>(cell.agg.trials)),
         Table::cell("%lld",
                     static_cast<long long>(cell.agg.all_or_nothing_violations)),
         Table::cell("%lld",
                     static_cast<long long>(cell.agg.consistency_violations)),
         Table::cell("%lld", static_cast<long long>(cell.agg.sos_trials)),
         Table::cell("%.1f", cell.agg.work_retrans.mean()),
         Table::cell("%lld",
                     static_cast<long long>(cell.agg.hit_max_steps_trials))});
  }
  table.print();
  std::printf("\n%d/%zu guarantee cells failed\n", result.failed_cells,
              result.cells.size());

  if (!result.artifacts.empty()) {
    std::printf("\nfailure artifacts (%zu, <=%d per cell):\n",
                result.artifacts.size(), cfg.max_artifacts_per_cell);
    for (const auto& a : result.artifacts)
      std::printf("  %s / %s trial %d%s -> %s\n", a.scenario.c_str(),
                  a.entry.c_str(), a.trial,
                  a.truncated_run ? " (truncated)" : "", a.path.c_str());
    std::printf("each artifact's header line holds the exact --replay "
                "command for that trial\n");
  }

  const std::string report_out = flags.get_string("report-json", "");
  if (!report_out.empty()) {
    if (write_file(report_out, obs::to_json(result) + "\n")) {
      std::printf("report: %s\n", report_out.c_str());
    } else {
      std::fprintf(stderr, "fault_campaign: cannot write %s\n",
                   report_out.c_str());
      return 1;
    }
  }

  if (flags.get_bool("strict", false) && !result.all_pass()) return 3;
  return 0;
}
