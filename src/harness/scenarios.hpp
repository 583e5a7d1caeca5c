// Paper scenarios: the tuning pipeline and canned experiment setups behind
// Table 7 and Figures 1, 3, 5, 7 and 9 (see DESIGN.md Section 5).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/flags.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"

namespace cg {

/// The drivers' --l and --o flags (microseconds; defaults L = 2, O = 1) as
/// a LogP.  Exits 2 naming the flags unless O >= 1, L >= 0 and O divides
/// L: the model counts L/O whole steps, and silently truncating it (or
/// dividing by zero) would run a different network than the one asked for.
LogP logp_from_flags(const Flags& flags);

/// The paper's headline failure budget: eps = 1-(1-0.5)^(1/1e6) = 6.93e-7
/// (50% chance that all 10^6 trials succeed).
double paper_eps();

/// An algorithm with its model-tuned parameters.
struct TunedAlgo {
  Algo algo = Algo::kGos;
  AlgoConfig acfg{};
  Step predicted_latency_steps = 0;  ///< per the respective Eq. (3/4/5)
};

/// One row per algorithm: every per-algorithm fact the harness and the
/// drivers read.  The only other per-algorithm code is the node-type
/// dispatch (harness/algo_dispatch.hpp), so an algorithm is added with one
/// row here (scenarios.cpp) and one dispatch arm there.
struct AlgoSpec {
  Algo algo;
  const char* name;  ///< display name (algo_name), printed by the drivers
  const char* flag;  ///< the drivers' --algo spelling
  /// tune_for's pipeline: set the knobs from the analytic models and
  /// return the predicted latency in steps.
  Step (*tune)(AlgoConfig& acfg, NodeId N, NodeId n_active, const LogP& logp,
               double eps, int f);
  /// The per-trial latency sample the paper reports (see
  /// reported_latency_sample).
  Samples TrialAggregate::*latency;
  /// What the algorithm promises; default_entries' "+rel" entry claims it.
  Guarantee guarantee = Guarantee::kNone;
  bool reliable = false;  ///< honours AlgoConfig::reliable (CCG and FCG)
  bool gossip = false;    ///< the analytic c(t) models its gossip phase
};

/// Every row, in Algo enum order.
std::span<const AlgoSpec> algo_specs();
const AlgoSpec& algo_spec(Algo a);

/// Parse an --algo spelling into `out`.  Returns false (leaving `out`
/// untouched) on an unknown name.
bool algo_from_flag(std::string_view flag, Algo& out);

/// The accepted --algo spellings in enum order, '|'-separated
/// ("gos|ocg|...|sbrb"), for usage/error text.
std::string algo_flags_list();

/// Reproduce the paper's tuning pipeline: pick T (and OCG's C) from the
/// analytic models, including the recommended +O margins.  `f` is FCG's
/// resilience parameter.
TunedAlgo tune_for(Algo algo, NodeId N, NodeId n_active, const LogP& logp,
                   double eps, int f = 1);

/// The per-trial latency sample the paper reports for this algorithm, in
/// steps: completion for the gossip family, last coloring for SBRB/BIG/
/// opt, ack-to-root for BFB (AlgoSpec::latency).  Its mean and its
/// percentiles describe the same quantity.
const Samples& reported_latency_sample(Algo algo, const TrialAggregate& agg);

/// Simulated latency the paper reports for this algorithm, in
/// microseconds: the MEAN over trials of completion for the gossip family,
/// last coloring for SBRB/BIG/opt, ack-to-root for BFB.  nullopt when no
/// trial produced that measure (e.g. every trial hit max steps); printed
/// rows show it as n/a (Table::cell_or_na).
std::optional<double> reported_latency_us(Algo algo, const TrialAggregate& agg,
                                          const LogP& logp);

/// The same mean in steps, with 0 for "no trial produced it".  Kept for
/// perfbench/'s sim_latency_us, whose workloads always complete; anything
/// that prints a latency uses reported_latency_us.
double reported_latency_steps(Algo algo, const TrialAggregate& agg);

struct ScenarioResult {
  TunedAlgo tuned;
  TrialAggregate agg;
  std::optional<double> lat_us;  ///< simulated (mean); see reported_latency_us
  double predicted_us = 0;  ///< model prediction
  double work = 0;          ///< mean messages per trial
  double incon = 0;         ///< mean share of active nodes not reached
};

/// Tune and simulate one algorithm at one scale with `pre_failures`
/// initially-failed nodes (the Table 7 / Figure 7 setup).  threads <= 0 =
/// auto (hardware_concurrency); results are thread-count-independent, and
/// engine-independent too (`exec` picks the engine that carries the
/// trials; useful to push the figure sweeps to large N).
ScenarioResult run_scenario(Algo algo, NodeId N, int pre_failures,
                            const LogP& logp, int trials, std::uint64_t seed,
                            double eps, int f = 1, int threads = 0,
                            const ExecConfig& exec = {});

/// Analytic rows for the baselines (exactly the paper's models).
struct ModelRow {
  double lat_us = 0;
  std::int64_t work = 0;
  double incon = 0;
};
ModelRow big_model_row(NodeId N, const LogP& logp);
ModelRow bfb_model_row(NodeId N, int f_hat, const LogP& logp);

}  // namespace cg
