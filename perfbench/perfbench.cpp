// End-to-end benchmark program for the corrected-gossip simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Runs one workload as a closed loop - the next round (one broadcast, or
// one fault-campaign pass) starts only when the previous one finished -
// and prints one JSON result line: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.  Exits 1 when a guarantee or a
// determinism check fails and 2 on bad arguments.  run.py builds this
// program and is the entry point; README.md describes the workloads,
// metrics and layers.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_logic.hpp"
#include "common/rng.hpp"
#include "harness/campaign.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/scenarios.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sinks.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace cg;
using perfbench::median;
using perfbench::Metric;
using perfbench::ratio;
using perfbench::Scope;
using perfbench::SpanLog;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Rounds every run makes, however long they take: the fixed inputs.  The
/// metrics that must repeat exactly for a seed come from these rounds only,
/// and the traced run replays just these with profiling, so its per-layer
/// counts repeat too.  In run_seconds (18 s), sbrb-byz-64k (5-9 s a
/// broadcast) makes 3 or 4 rounds and the other workloads make more.
constexpr int kFixedRounds = 3;

enum class Id { kScale, kCampaign, kSbrb };

struct Workload {
  Id id;
  const char* name;
  NodeId n;
  EngineKind engine;
  int participants;  ///< shards (sharded engine) or campaign pool threads
  int trials;        ///< trials per cell per round
};

// Sizes and the reasons for them are in README.md ("Workloads").
constexpr Workload kWorkloads[] = {
    {Id::kScale, "scale-ccg-1m", 1 << 20, EngineKind::kSharded, 1, 1},
    {Id::kCampaign, "campaign-faults-4k", 4096, EngineKind::kStepped, 1, 2},
    {Id::kSbrb, "sbrb-byz-64k", 65536, EngineKind::kSharded, 2, 1},
};

bool is_campaign(const Workload& w) { return w.id == Id::kCampaign; }

/// A workload after tuning: a scenarios x entries grid and the shared
/// CampaignConfig.  The broadcast workloads are one-cell grids.
struct Grid {
  CampaignConfig cfg;
  std::vector<FaultScenario> scenarios;
  std::vector<CampaignEntry> entries;
  struct Cell {
    std::string label;  ///< "<scenario>/<entry>"
    std::string entry;
    std::string scenario;
    Algo algo = Algo::kCcg;
    Guarantee guarantee = Guarantee::kNone;  ///< effective, as asserted
  };
  std::vector<Cell> cells;  ///< scenario-major, as run_campaign orders them

  /// Round `r`'s inputs: each round draws its trials from its own seed, so
  /// one run covers several inputs of the workload.
  CampaignConfig pass(int r, int trials) const {
    CampaignConfig c = cfg;
    c.seed = derive_seed(cfg.seed, static_cast<std::uint64_t>(r));
    c.trials = trials;
    return c;
  }
  TrialSpec spec(const CampaignConfig& pass, std::size_t cell) const {
    return campaign_trial_spec(pass, scenarios[cell / entries.size()],
                               entries[cell % entries.size()]);
  }
};

FaultScenario scenario_named(const std::vector<FaultScenario>& v,
                             const std::string& name) {
  for (const auto& s : v)
    if (s.name == name) return s;
  std::fprintf(stderr, "perfbench: no scenario named %s\n", name.c_str());
  std::exit(2);
}

Grid tune_grid(const Workload& w, std::uint64_t seed, SpanLog& log,
               double& tune_s, int& tune_calls) {
  Grid g;
  g.cfg.n = w.n;
  g.cfg.logp = LogP::piz_daint();
  g.cfg.seed = seed;
  g.cfg.threads = w.participants;
  g.cfg.exec = ExecConfig{w.engine, w.participants};
  const auto tune = [&](Algo a, double eps) {
    Scope s(log, "analysis.tune_for", -1, algo_name(a));
    const AlgoConfig acfg = tune_for(a, w.n, w.n, g.cfg.logp, eps, 1).acfg;
    tune_s += s.close();
    ++tune_calls;
    return acfg;
  };
  switch (w.id) {
    case Id::kScale:  // fig7a_scaling's setting: the paper's eps, clean
      g.scenarios = {scenario_named(default_fault_scenarios(), "clean")};
      g.entries = {{"CCG", Algo::kCcg, tune(Algo::kCcg, paper_eps()),
                    Guarantee::kAllReached}};
      break;
    case Id::kCampaign:  // fault_campaign's default grid
      g.scenarios = default_fault_scenarios();
      for (const Algo a : {Algo::kCcg, Algo::kFcg})
        for (auto& e : default_entries(a, tune(a, 1e-4)))
          g.entries.push_back(std::move(e));
      break;
    case Id::kSbrb:  // 5% equivocators, honest root
      g.scenarios = {scenario_named(byzantine_fault_scenarios(w.n), "byz-5pct")};
      g.entries = {{"SBRB", Algo::kSbrb, tune(Algo::kSbrb, 1e-4),
                    Guarantee::kConsistent}};
      break;
  }
  for (const auto& sc : g.scenarios)
    for (const auto& e : g.entries)
      g.cells.push_back({sc.name + "/" + e.label, e.label, sc.name, e.algo,
                         campaign_effective_guarantee(e.guarantee, sc)});
  return g;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// One unit of closed-loop work: `trials` trials of every cell - one
/// broadcast for the broadcast workloads, one run_campaign pass for the
/// campaign.
struct Round {
  double wall_s = 0;
  double cpu_s = 0;
  perfbench::GuaranteeTally tally;
  int failed_cells = 0;
  std::vector<TrialAggregate> aggs;  ///< per cell
  std::vector<RunMetrics> runs;      ///< broadcast workloads, (cell, trial) order
  std::vector<double> cell_s;        ///< campaign cells' wall, traced rounds
};

[[noreturn]] void die(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(1);
}

/// One run_campaign call over the whole grid.  On an enabled log (the
/// traced round) the heartbeat writes a line per trial; with 1 participant
/// the trials run in cell order, so those stamps time every cell inside the
/// one call, and each cell becomes a child span.
void campaign_round(const Grid& g, const CampaignConfig& pass, int index,
                    SpanLog& log, Round& r) {
  CampaignConfig cfg = pass;
  Scope s(log, "harness.run_campaign", index, "grid");
  perfbench::CapturedHeartbeat hb(log.enabled() ? 0.0 : 1e9);
  const double hb_t0 = log.now();
  cfg.heartbeat = hb.get();
  const CampaignResult res = run_campaign(cfg, g.scenarios, g.entries);
  s.close();
  for (const auto& c : res.cells) r.aggs.push_back(c.agg);
  r.failed_cells = res.failed_cells;
  const std::int64_t failures = hb.failures();
  if (failures < 0) die("campaign heartbeat not captured");
  r.tally.add(static_cast<std::int64_t>(res.cells.size()) * pass.trials,
              failures);
  if (!log.enabled()) return;
  const auto cells = perfbench::cell_spans(
      perfbench::heartbeat_stamps(hb.text()), pass.trials);
  if (cells.size() != g.cells.size()) die("campaign trial stamps incomplete");
  // Copies: log.add below may move the spans.
  const double p0 = log.spans()[static_cast<std::size_t>(s.index())].t0;
  const double p1 = log.spans()[static_cast<std::size_t>(s.index())].t1;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const double a = std::max(p0, hb_t0 + cells[c].first);
    const double b = std::min(p1, hb_t0 + cells[c].second);
    log.add({"harness.cell", g.cells[c].label, a, b, s.index(), index});
    r.cell_s.push_back(cells[c].second - cells[c].first);
  }
}

/// Run round `index`: `trials` trials of every cell.  An enabled log adds
/// spans around each call into a layer; the results are the same either
/// way, which the traced run asserts.
Round run_round(const Workload& w, const Grid& g, int index, int trials,
                SpanLog& log) {
  Round r;
  const CampaignConfig pass = g.pass(index, trials);
  const double c0 = cpu_seconds();
  const double t0 = log.now();
  if (is_campaign(w)) {
    campaign_round(g, pass, index, log, r);
  } else {
    for (std::size_t c = 0; c < g.cells.size(); ++c) {
      const Grid::Cell& cell = g.cells[c];
      const TrialSpec spec = g.spec(pass, c);
      TrialAggregate agg;
      for (int t = 0; t < trials; ++t) {
        RunConfig rcfg;
        {
          Scope s(log, "fault.sample", index);
          rcfg = trial_run_config(spec, t);
        }
        RunMetrics m;
        {
          Scope s(log, "harness.run_once", index, cell.label);
          m = run_once(spec.algo, spec.acfg, rcfg, spec.exec);
        }
        r.tally.add(cell.guarantee, m);
        agg.absorb(m);
        r.runs.push_back(std::move(m));
      }
      if (!guarantee_holds(cell.guarantee, agg)) ++r.failed_cells;
      r.aggs.push_back(std::move(agg));
    }
  }
  r.wall_s = log.now() - t0;
  r.cpu_s = cpu_seconds() - c0;
  return r;
}

/// Append an error for every cell whose results differ between two rounds
/// that ran the same inputs (byte comparison of obs::to_json).
void expect_same(const Grid& g, const Round& a, const Round& b,
                 const char* what, std::vector<std::string>& errors) {
  const std::size_t per_cell = a.runs.size() / g.cells.size();
  for (std::size_t c = 0; c < g.cells.size(); ++c) {
    bool same = obs::to_json(a.aggs[c]) == obs::to_json(b.aggs[c]);
    for (std::size_t i = c * per_cell; same && i < (c + 1) * per_cell; ++i)
      same = obs::to_json(a.runs[i]) == obs::to_json(b.runs[i]);
    if (!same)
      errors.push_back(std::string(what) + ": results differ in cell " +
                       g.cells[c].label);
  }
}

void expect_guarantees(const Round& r, const char* what,
                       std::vector<std::string>& errors) {
  if (r.failed_cells > 0)
    errors.push_back(std::string(what) + ": " +
                     std::to_string(r.failed_cells) +
                     " cell(s) failed their asserted guarantee");
}

/// Replay every trial of round `index` with EngineProfile and a
/// CountingTraceSink attached, through campaign_trial_spec +
/// trial_run_config + run_once.  The replays must reproduce the untraced
/// round: each broadcast's RunMetrics, and each cell's aggregate.
perfbench::ReplayTotals replay(const Grid& g, int index, const Round& untraced,
                               SpanLog& log, std::vector<std::string>& errors) {
  perfbench::ReplayTotals tot;
  const int trials = static_cast<int>(untraced.aggs[0].trials);
  const CampaignConfig pass = g.pass(index, trials);
  for (std::size_t c = 0; c < g.cells.size(); ++c) {
    const TrialSpec spec = g.spec(pass, c);
    TrialAggregate agg;
    for (int t = 0; t < trials; ++t) {
      RunConfig rcfg;
      double sample_s = 0;
      {
        Scope s(log, "fault.sample", index);
        rcfg = trial_run_config(spec, t);
        sample_s = s.close();
      }
      EngineProfile prof;
      obs::CountingTraceSink counts;
      rcfg.profile = &prof;
      rcfg.trace = &counts;
      RunMetrics m;
      double run_s = 0;
      {
        Scope s(log, "sim.replay", index, g.cells[c].label);
        m = run_once(spec.algo, spec.acfg, rcfg, spec.exec);
        run_s = s.close();
      }
      tot.add(m, prof, counts, run_s, sample_s);
      const std::size_t i = c * static_cast<std::size_t>(trials) +
                            static_cast<std::size_t>(t);
      if (i < untraced.runs.size() &&
          obs::to_json(m) != obs::to_json(untraced.runs[i]))
        errors.push_back("profiled replay differs from the untraced run in " +
                         g.cells[c].label);
      agg.absorb(m);
    }
    if (obs::to_json(agg) != obs::to_json(untraced.aggs[c]))
      errors.push_back("profiled replays differ from the untraced round in " +
                       g.cells[c].label);
  }
  return tot;
}

/// Telemetry's cost on round 0's broadcasts: runs with and without a
/// Telemetry attached in A-B-B-A order, so that the heap state earlier runs
/// leave favours neither side.  Returns median(with) / median(without) - 1.
double telemetry_overhead(const Grid& g, const Round& round0, SpanLog& log,
                          std::vector<std::string>& errors) {
  const CampaignConfig pass = g.pass(0, 1);
  std::vector<double> with, without;
  for (const bool on : {false, true, true, false}) {
    Scope s(log, on ? "obs.telemetry" : "obs.plain");
    for (std::size_t c = 0; c < g.cells.size(); ++c) {
      const TrialSpec spec = g.spec(pass, c);
      RunConfig rcfg = trial_run_config(spec, 0);
      Telemetry tel;
      if (on) rcfg.telemetry = &tel;
      const RunMetrics m = run_once(spec.algo, spec.acfg, rcfg, spec.exec);
      if (obs::to_json(m) != obs::to_json(round0.runs[c]))
        errors.push_back("telemetry run differs from the untraced run in " +
                         g.cells[c].label);
    }
    (on ? with : without).push_back(s.close());
  }
  return median(with) / median(without) - 1;
}

struct Args {
  const Workload* workload = nullptr;
  bool seeded = false;  ///< --seed given: run.py holds the default
  std::uint64_t seed = 0;
  double seconds = 0;  ///< run.py passes BENCHMARK.json's run_seconds
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, val) == 0) a.workload = &w;
      if (a.workload == nullptr) return false;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      a.seeded = true;
      if (*val == '\0' || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*val == '\0' || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        return false;
      a.trace = val[0] == '1';
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return a.workload != nullptr && a.seeded && a.seconds > 0;
}

void print_result(bool correct, const perfbench::GuaranteeTally& tally,
                  const std::map<std::string, Metric>& metrics) {
  std::string out = std::string("{\"correct\":") + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(tally.attempted) +
                    ",\"failed\":" + std::to_string(tally.failed) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ',';
    first = false;
    out += perfbench::json_string(name) +
           ":{\"value\":" + perfbench::fmt_double(m.value) +
           ",\"unit\":" + perfbench::json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
}

/// Per-span-name totals on stderr: where the traced run's time went.
void print_span_summary(const SpanLog& log) {
  struct Sum {
    int count = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Sum> by_name;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    Sum& s = by_name[log.spans()[i].name];
    ++s.count;
    s.total += log.spans()[i].seconds();
    s.self += log.self_seconds(static_cast<int>(i));
  }
  std::fprintf(stderr, "%-22s %7s %12s %12s\n", "span", "count", "total_s",
               "self_s");
  for (const auto& [name, s] : by_name)
    std::fprintf(stderr, "%-22s %7d %12.4f %12.4f\n", name.c_str(), s.count,
                 s.total, s.self);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <scale-ccg-1m|campaign-faults-4k|"
                 "sbrb-byz-64k> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  const Workload& w = *args.workload;
  SpanLog log(args.trace);
  SpanLog quiet(false);  // the traced run's untraced rounds
  std::vector<std::string> errors;

  // Set-up, repeated: tuning, pool start, and a warm-up: trial 0 of every
  // cell of round 0 (one broadcast, or one trial per campaign cell).
  Grid grid;
  Round warm;
  std::vector<double> setup_s, tune_s, warmup_s;
  double pool_start_s = 0;
  int tune_calls = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Scope setup(log, "setup", rep);
    double tune = 0;
    tune_calls = 0;
    grid = tune_grid(w, args.seed, log, tune, tune_calls);
    tune_s.push_back(tune);
    {
      Scope s(log, "runtime.pool_start", rep);
      ThreadPool::global(w.participants);
      if (rep == 0) pool_start_s = s.close();  // later calls find it running
    }
    Scope s(log, "harness.warmup", rep);
    Round r = run_round(w, grid, 0, 1, log);
    warmup_s.push_back(s.close());
    expect_guarantees(r, "warm-up", errors);
    if (rep > 0) expect_same(grid, warm, r, "repeated warm-up", errors);
    warm = std::move(r);
    setup_s.push_back(setup.close());
  }

  // Timed phase.  The traced run pairs each untraced round with a traced
  // one over the same inputs - alternating which goes first, so the heap
  // state one leaves favours neither - and replays its first kFixedRounds
  // rounds with profiling attached.
  std::vector<Round> rounds, traced;
  std::vector<std::map<std::string, Metric>> replays;
  const auto untraced_round = [&] {
    const int i = static_cast<int>(rounds.size());
    Scope s(log, "e2e.round", i);
    rounds.push_back(run_round(w, grid, i, w.trials, quiet));
    expect_guarantees(rounds.back(), "timed round", errors);
    std::fprintf(stderr, "perfbench: round %d wall %.4f s cpu %.4f s\n", i,
                 rounds.back().wall_s, rounds.back().cpu_s);
  };
  const auto traced_round = [&] {
    const int i = static_cast<int>(traced.size());
    Scope s(log, "traced.round", i);
    traced.push_back(run_round(w, grid, i, w.trials, log));
  };
  const double timed_t0 = log.now();
  while (static_cast<int>(rounds.size()) < kFixedRounds ||
         log.now() - timed_t0 < args.seconds) {
    const bool traced_first = args.trace && rounds.size() % 2 == 1;
    if (traced_first) traced_round();
    untraced_round();
    if (!args.trace) continue;
    if (!traced_first) traced_round();
    const int i = static_cast<int>(rounds.size()) - 1;
    expect_same(grid, rounds.back(), traced.back(), "traced round", errors);
    if (i >= kFixedRounds) continue;
    Scope s(log, "replay", i);
    replays.push_back(
        perfbench::replay_metrics(replay(grid, i, rounds.back(), log, errors)));
  }

  // Every round counts toward `attempted` and `failed`, and every round's
  // guarantees are gated above.  The reported metrics that must repeat
  // exactly for a seed come from the first kFixedRounds rounds only: a faster
  // program fits more rounds into the run, but their inputs are the same.
  perfbench::GuaranteeTally tally, ref_tally;
  std::vector<double> wall, cpu_per_trial, core_util;
  std::vector<TrialAggregate> ref(grid.cells.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    tally.add(r.tally.attempted, r.tally.failed);
    wall.push_back(r.wall_s);
    cpu_per_trial.push_back(r.cpu_s / static_cast<double>(r.tally.attempted));
    core_util.push_back(ratio(r.cpu_s, w.participants * r.wall_s));
    if (static_cast<int>(i) >= kFixedRounds) continue;
    ref_tally.add(r.tally.attempted, r.tally.failed);
    for (std::size_t c = 0; c < grid.cells.size(); ++c) ref[c].merge(r.aggs[c]);
  }
  const auto trials_per_round = static_cast<double>(rounds[0].tally.attempted);
  const auto ref_trials = static_cast<double>(ref_tally.attempted);

  std::map<std::string, Metric> out;
  if (!args.trace) {
    // Latency and work average the cells that assert a guarantee.  The
    // observation-only campaign cells mix normal runs with 6,000-16,000
    // step stalls (unhardened correction under loss), so their means move
    // by a third between seeds.
    double lat_us = 0, msgs = 0;
    int asserted = 0;
    for (std::size_t c = 0; c < grid.cells.size(); ++c) {
      if (grid.cells[c].guarantee == Guarantee::kNone) continue;
      ++asserted;
      lat_us += perfbench::sim_latency_us(grid.cells[c].algo, ref[c],
                                          grid.cfg.logp);
      msgs += ref[c].work.mean() / static_cast<double>(w.n);
    }
    out = {
        {"broadcasts_per_s", {trials_per_round / median(wall), "1/s"}},
        {"cpu_s_per_broadcast", {median(cpu_per_trial), "s"}},
        {"setup_s", {median(setup_s), "s"}},
        {"peak_rss_mb",
         {static_cast<double>(current_peak_rss_bytes()) / 1e6, "MB"}},
        {"guarantee_met_frac", {ref_tally.met_frac(), "ratio"}},
        {"sim_latency_us", {lat_us / asserted, "us"}},
        {"msgs_per_node", {msgs / asserted, "count"}},
    };
  } else {
    std::vector<double> traced_wall;
    for (const Round& r : traced) traced_wall.push_back(r.wall_s);
    const double telemetry_frac =
        is_campaign(w) ? 0.0 : telemetry_overhead(grid, rounds[0], log, errors);

    // Values measured once per traced round, reported as medians.
    std::map<std::string, std::pair<const char*, std::vector<double>>> series;
    const auto put = [&](const std::string& name, const char* unit, double v) {
      series[name].first = unit;
      series[name].second.push_back(v);
    };
    for (const auto& m : replays)
      for (const auto& [name, x] : m) put(name, x.unit, x.value);
    const auto cell_s = [&](const Round& r, const std::string& label) {
      for (std::size_t c = 0; c < grid.cells.size(); ++c)
        if (grid.cells[c].label == label) return r.cell_s[c];
      return 0.0;
    };
    for (const Round& r : traced) {
      // The campaign breakdowns stay zero on the broadcast workloads,
      // which never call run_campaign.
      std::map<std::string, double> sums;
      for (const auto& sc : default_fault_scenarios())
        sums["harness.scenario_s." + sc.name] = 0;
      for (const Algo a : {Algo::kCcg, Algo::kFcg})
        for (const auto& e : default_entries(a, AlgoConfig{}))
          sums["harness.entry_s." + perfbench::metric_key(e.label)] = 0;
      double clean_rel_ms = 0;
      if (is_campaign(w)) {
        for (std::size_t c = 0; c < grid.cells.size(); ++c) {
          sums["harness.scenario_s." + grid.cells[c].scenario] += r.cell_s[c];
          sums["harness.entry_s." + perfbench::metric_key(grid.cells[c].entry)] +=
              r.cell_s[c];
        }
        clean_rel_ms = 1e3 * (cell_s(r, "clean/CCG+rel") - cell_s(r, "clean/CCG")) /
                       w.trials;
      }
      for (const auto& [name, v] : sums) put(name, "s", v);
      put("reliable.clean_overhead_ms", "ms", clean_rel_ms);
    }
    for (const auto& [name, s] : series) out[name] = {median(s.second), s.first};

    std::int64_t truncated = 0, sos = 0;
    for (const TrialAggregate& a : ref) {
      truncated += a.hit_max_steps_trials;
      sos += a.sos_trials;
    }
    out["analysis.tune_s"] = {median(tune_s), "s"};
    out["analysis.tune_calls"] = {static_cast<double>(tune_calls), "count"};
    out["harness.warmup_s"] = {median(warmup_s), "s"};
    out["harness.trials"] = {trials_per_round, "count"};
    out["harness.truncated_frac"] = {truncated / ref_trials, "ratio"};
    out["runtime.pool_start_s"] = {pool_start_s, "s"};
    out["runtime.core_util"] = {median(core_util), "ratio"};
    out["gossip.sos_frac"] = {sos / ref_trials, "ratio"};
    out["obs.trace_overhead_frac"] = {median(traced_wall) / median(wall) - 1,
                                      "ratio"};
    out["obs.telemetry_overhead_frac"] = {telemetry_frac, "ratio"};
    out["obs.span_coverage_frac"] = {log.top_level_coverage(0, log.now()),
                                     "ratio"};
    print_span_summary(log);
    if (!args.trace_out.empty()) {
      std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
      const std::string json = log.chrome_json();
      if (f == nullptr || std::fwrite(json.data(), 1, json.size(), f) != json.size())
        errors.push_back("cannot write " + args.trace_out);
      if (f != nullptr) std::fclose(f);
    }
  }

  for (const std::string& e : errors) std::fprintf(stderr, "perfbench: FAIL %s\n", e.c_str());
  print_result(errors.empty(), tally, out);
  return errors.empty() ? 0 : 1;
}
