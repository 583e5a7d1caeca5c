// Fault-injection campaign runner: a named grid of fault scenarios crossed
// with algorithm variants, each cell a Monte-Carlo batch whose aggregate is
// checked against the guarantee the variant claims.  This turns the paper's
// consistency claims into machine-checkable predicates under hostile
// channels (docs/FAULTS.md):
//   * all-reached        - every trial colored every active node;
//   * all-or-nothing     - no trial delivered to some-but-not-all;
//   * SOS-consistent     - all-or-nothing AND no trial where the SOS
//                          fallback fired yet failed to reach everyone.
// The result serializes to a JSON reliability report via obs::to_json()
// (src/obs/report.*) and drives examples/fault_campaign.cpp.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace cg {

/// One named fault environment; fields mirror the TrialSpec fault knobs
/// they are copied onto (per-trial sampling included).
struct FaultScenario {
  std::string name;
  double drop_prob = 0;       ///< i.i.d. loss
  double burst_loss = 0;      ///< Gilbert-Elliott overall loss (0 = off)
  Step burst_mean = 4;        ///< mean burst length in steps
  Step jitter_max = 0;
  int pre_failures = 0;
  int online_failures = 0;
  int restarts = 0;           ///< crash-and-rejoin nodes
  int stragglers = 0;
  Step straggler_factor = 4;
  int partition_nodes = 0;    ///< transient bidirectional partition size
  // Byzantine adversaries (sim/fault/byzantine.hpp); sampled per trial,
  // disjoint from the crash/restart sets.
  int byz_count = 0;
  ByzMode byz_mode = ByzMode::kEquivocator;
  bool byz_include_root = false;  ///< root equivocation: the strongest attack
};

/// Guarantee, the predicate a cell asserts, is declared in runner.hpp.
const char* guarantee_name(Guarantee g);

/// An algorithm variant under test, with the guarantee it claims.
struct CampaignEntry {
  std::string label;  ///< e.g. "CCG+rel"
  Algo algo = Algo::kCcg;
  AlgoConfig acfg{};
  Guarantee guarantee = Guarantee::kNone;
};

/// Shared dimensions of every cell (scenario and entry fill in the rest).
struct CampaignConfig {
  NodeId n = 64;
  NodeId root = 0;
  LogP logp{};
  RxPolicy rx = RxPolicy::kDrainAll;
  std::uint64_t seed = 1;
  int trials = 100;
  /// Pool participants; <= 0 = auto (hardware_concurrency).  The campaign
  /// parallelizes across cells x trials, not just within a cell, and its
  /// result is byte-identical for every thread count (see run_campaign).
  int threads = 0;
  Step max_steps = 0;  ///< 0 = engine auto limit
  /// Engine carrying every cell's trials (identical results either way).
  ExecConfig exec{};

  // --- Failure forensics (src/obs/flight_recorder.hpp) -------------------
  /// When non-empty, every trial runs with a flight recorder attached and
  /// each guarantee-violating or truncated trial dumps its ring to
  /// `<artifacts_dir>/<scenario>__<entry>__t<trial>.jsonl`.  The directory
  /// must already exist (examples/fault_campaign.cpp creates it).
  std::string artifacts_dir;
  /// Command prefix baked into each artifact's `rerun` field (e.g.
  /// "./fault_campaign --n=64 --seed=1 --trials=100"); the runner appends
  /// " --replay=<scenario>/<entry>/<trial>".
  std::string rerun_prefix;
  /// Flight-recorder ring capacity per worker; 0 = default (2048 events).
  int flight_capacity = 0;
  /// A systematically failing cell dumps at most this many artifacts -
  /// forensics needs a few exemplars, not thousands of files.
  int max_artifacts_per_cell = 4;
  /// Optional progress channel; beaten once per finished trial with
  /// failures = guarantee-violating or truncated trials so far.
  Heartbeat* heartbeat = nullptr;
};

struct CampaignCell {
  std::string scenario;
  std::string entry;
  Guarantee guarantee = Guarantee::kNone;
  bool pass = true;
  TrialAggregate agg;
};

/// One dumped flight-recorder ring (see CampaignConfig::artifacts_dir).
struct FailureArtifact {
  std::string scenario;
  std::string entry;
  int trial = 0;
  std::uint64_t seed = 0;      ///< the trial's RunConfig seed
  std::string path;            ///< artifact JSONL on disk
  bool truncated_run = false;  ///< trial hit max_steps
};

struct CampaignResult {
  std::vector<CampaignCell> cells;
  /// Flight-recorder dumps, sorted in (cell, trial) order - deterministic
  /// for every thread count, like the cells themselves.
  std::vector<FailureArtifact> artifacts;
  int failed_cells = 0;
  bool all_pass() const { return failed_cells == 0; }
};

/// Evaluate `guarantee` over an aggregate (exposed for tests).
bool guarantee_holds(Guarantee g, const TrialAggregate& agg);

/// Per-trial forensics predicate: should this trial's flight-recorder
/// ring be dumped?  True when the single-trial analogue of `g` is
/// violated, and always when the trial truncated (hit max_steps).
bool trial_violates(Guarantee g, const RunMetrics& m);

/// The guarantee a cell actually asserts: crash faults void claims the
/// algorithms never made (see the rationale in campaign.cpp).  Exposed so
/// fault_campaign --replay evaluates the same predicate as the campaign.
Guarantee campaign_effective_guarantee(Guarantee g, const FaultScenario& sc);

/// The TrialSpec a given cell runs - exposed so a failing cell can be
/// replayed with instrumentation attached.
TrialSpec campaign_trial_spec(const CampaignConfig& cfg,
                              const FaultScenario& scenario,
                              const CampaignEntry& entry);

/// Run the full scenarios x entries grid.  Work is flattened across
/// cells x trials onto the process-wide ThreadPool, so small per-cell
/// trial counts still use every worker; per-trial results are reduced in
/// (cell, trial) order, making the whole CampaignResult byte-identical
/// for any cfg.threads (tests/test_trial_farm.cpp).
CampaignResult run_campaign(const CampaignConfig& cfg,
                            const std::vector<FaultScenario>& scenarios,
                            const std::vector<CampaignEntry>& entries);

/// The stock scenario grid used by examples/fault_campaign.cpp and the
/// failure drill: clean channel, i.i.d. loss, burst loss, crash/restart
/// mixes, stragglers, a transient partition, and a kitchen-sink combo.
std::vector<FaultScenario> default_fault_scenarios();

/// Stock entries for `algo` (= the variant with and, where meaningful,
/// without the reliable sublayer), claiming the guarantees the paper +
/// hardening give it under message loss.
std::vector<CampaignEntry> default_entries(Algo algo, const AlgoConfig& base);

/// The Byzantine scenario grid (opt-in; fault_campaign --byz-grid): clean
/// baseline, 5% and 10% equivocators, and single-root equivocation -
/// crossed with byzantine_entries this demonstrates CCG/FCG violating
/// kConsistent while SBRB holds it.  Counts are derived from `n`.
std::vector<FaultScenario> byzantine_fault_scenarios(NodeId n);

/// Entries for the Byzantine grid: CCG, FCG and SBRB, all claiming
/// kConsistent.  The crash-model protocols are EXPECTED to fail it under
/// equivocation (their violation artifacts are the point); SBRB must hold.
std::vector<CampaignEntry> byzantine_entries(const AlgoConfig& ccg,
                                             const AlgoConfig& fcg,
                                             const AlgoConfig& sbrb);

}  // namespace cg
