#include "harness/scenarios.hpp"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "analysis/baseline_models.hpp"
#include "analysis/coloring.hpp"
#include "analysis/fcg_bound.hpp"
#include "analysis/tuning.hpp"
#include "baselines/opt_tree.hpp"
#include "common/check.hpp"
#include "gossip/ocg_chain.hpp"
#include "gossip/sbrb.hpp"

namespace cg {

double paper_eps() { return eps_for_runs(0.5, 1e6); }

LogP logp_from_flags(const Flags& flags) {
  const std::int64_t o = flags.get_int("o", 1);
  flags.require(o >= 1, "o", "an integer >= 1 (O in microseconds)");
  const std::int64_t l = flags.get_int("l", 2);
  flags.require(l >= 0, "l", "an integer >= 0 (L in microseconds)");
  if (l % o != 0) {
    std::fprintf(stderr,
                 "--l=%lld --o=%lld: expected L to be a multiple of O (the "
                 "model counts L/O whole steps)\n",
                 static_cast<long long>(l), static_cast<long long>(o));
    std::exit(2);
  }
  const LogP logp{.l_over_o = l / o, .o_us = static_cast<double>(o)};
  logp.validate();  // holds by the checks above
  return logp;
}

namespace {

// One row per Algo, in enum order (checked below).  Each tuner is the
// paper's pipeline for that algorithm: T (and OCG's C) from the analytic
// models with the recommended +O margins; it returns the latency the
// respective Eq. (3/4/5) predicts.
constexpr AlgoSpec kAlgoSpecs[] = {
    {.algo = Algo::kGos, .name = "GOS", .flag = "gos",
     .tune = [](AlgoConfig& acfg, NodeId N, NodeId n_active, const LogP& logp,
                double eps, int) -> Step {
       // Gossip alone must color everyone: pick T with expected miss < eps
       // (Section III-A), no correction to fall back on.
       acfg.T = gossip_time_for_target(N, n_active, eps, logp);
       return acfg.T + logp.delivery_delay();
     },
     .latency = &TrialAggregate::t_complete, .gossip = true},
    {.algo = Algo::kOcg, .name = "OCG", .flag = "ocg",
     .tune = [](AlgoConfig& acfg, NodeId N, NodeId n_active, const LogP& logp,
                double eps, int) -> Step {
       const Tuning t = tune_ocg(N, n_active, logp, eps);
       acfg.T = t.T_opt + 1;  // the paper's "+O to T" margin
       const int k = k_bar_for(N, n_active, acfg.T, logp, eps);
       acfg.ocg_corr_sends = k + 1;  // Claim 2's "+O to C" margin
       return ocg_predicted_latency(N, n_active, acfg.T, logp, eps);
     },
     .latency = &TrialAggregate::t_complete, .gossip = true},
    {.algo = Algo::kCcg, .name = "CCG", .flag = "ccg",
     .tune = [](AlgoConfig& acfg, NodeId N, NodeId n_active, const LogP& logp,
                double eps, int) -> Step {
       const Tuning t = tune_ccg(N, n_active, logp, eps);
       acfg.T = t.T_opt + 1;
       return ccg_predicted_latency(N, n_active, acfg.T, logp, eps);
     },
     .latency = &TrialAggregate::t_complete,
     .guarantee = Guarantee::kAllReached, .reliable = true, .gossip = true},
    {.algo = Algo::kFcg, .name = "FCG", .flag = "fcg",
     .tune = [](AlgoConfig& acfg, NodeId N, NodeId n_active, const LogP& logp,
                double eps, int f) -> Step {
       const FcgTuning t = tune_fcg(N, n_active, logp, eps, f);
       acfg.T = t.T_opt + 1;
       acfg.fcg_f = f;
       return fcg_predicted_upper(N, n_active, acfg.T, logp, eps, f);
     },
     .latency = &TrialAggregate::t_complete,
     .guarantee = Guarantee::kSosConsistent, .reliable = true, .gossip = true},
    {.algo = Algo::kOcgChain, .name = "OCG-CHAIN", .flag = "chain",
     .tune = [](AlgoConfig& acfg, NodeId N, NodeId n_active, const LogP& logp,
                double eps, int) -> Step {
       // Same gossip optimum as OCG; the horizon is sized from K_bar.
       const Tuning t = tune_ocg(N, n_active, logp, eps);
       acfg.T = t.T_opt + 1;
       acfg.ocg_corr_sends = k_bar_for(N, n_active, acfg.T, logp, eps) + 1;
       return OcgChainNode::chain_horizon(
           acfg.T, static_cast<int>(acfg.ocg_corr_sends), logp);
     },
     .latency = &TrialAggregate::t_complete, .gossip = true},
    {.algo = Algo::kBig, .name = "BIG", .flag = "big",
     .tune = [](AlgoConfig&, NodeId N, NodeId, const LogP& logp, double,
                int) -> Step {
       return static_cast<Step>(big_latency_us(N, logp) / logp.o_us);
     },
     .latency = &TrialAggregate::t_last_colored},
    {.algo = Algo::kBfb, .name = "BFB", .flag = "bfb",
     .tune = [](AlgoConfig&, NodeId N, NodeId, const LogP& logp, double,
                int) -> Step {
       return static_cast<Step>(bfb_latency_us(N, 0, logp) / logp.o_us);
     },
     .latency = &TrialAggregate::t_root_complete},  // ack to the root
    {.algo = Algo::kOpt, .name = "opt", .flag = "opt",
     .tune = [](AlgoConfig&, NodeId N, NodeId, const LogP& logp, double,
                int) -> Step { return opt_latency_steps(N, logp); },
     .latency = &TrialAggregate::t_last_colored},
    {.algo = Algo::kSbrb, .name = "SBRB", .flag = "sbrb",
     .tune = [](AlgoConfig& acfg, NodeId N, NodeId, const LogP& logp,
                double eps, int) -> Step {
       // Sample sizes come from eps directly; latency is bounded by the
       // protocol's own completion deadline (algo_dispatch.hpp derives the
       // same SbrbSamples from acfg, so prediction and run agree).
       acfg.sbrb_eps = eps;
       return sbrb_deadline(sbrb_samples(N, eps, kSbrbByzFrac), logp);
     },
     // Delivery, not the (fixed-deadline) completion.
     .latency = &TrialAggregate::t_last_colored,
     .guarantee = Guarantee::kConsistent},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kAlgoSpecs); ++i)
    if (static_cast<std::size_t>(kAlgoSpecs[i].algo) != i) return false;
  return std::size(kAlgoSpecs) == static_cast<std::size_t>(Algo::kSbrb) + 1;
}
static_assert(rows_in_enum_order(), "one AlgoSpec row per Algo, in order");

}  // namespace

std::span<const AlgoSpec> algo_specs() { return kAlgoSpecs; }

const AlgoSpec& algo_spec(Algo a) {
  const auto i = static_cast<std::size_t>(a);
  CG_CHECK_MSG(i < std::size(kAlgoSpecs), "unknown algorithm");
  return kAlgoSpecs[i];
}

const char* algo_name(Algo a) { return algo_spec(a).name; }

bool algo_from_flag(std::string_view flag, Algo& out) {
  for (const AlgoSpec& spec : kAlgoSpecs) {
    if (flag == spec.flag) {
      out = spec.algo;
      return true;
    }
  }
  return false;
}

std::string algo_flags_list() {
  std::string list;
  for (const AlgoSpec& spec : kAlgoSpecs) {
    if (!list.empty()) list += '|';
    list += spec.flag;
  }
  return list;
}

TunedAlgo tune_for(Algo algo, NodeId N, NodeId n_active, const LogP& logp,
                   double eps, int f) {
  TunedAlgo out;
  out.algo = algo;
  out.predicted_latency_steps =
      algo_spec(algo).tune(out.acfg, N, n_active, logp, eps, f);
  return out;
}

const Samples& reported_latency_sample(Algo algo, const TrialAggregate& agg) {
  return agg.*algo_spec(algo).latency;
}

std::optional<double> reported_latency_us(Algo algo, const TrialAggregate& agg,
                                          const LogP& logp) {
  const Samples& s = reported_latency_sample(algo, agg);
  if (s.empty()) return std::nullopt;
  return logp.us(1) * s.mean();
}

double reported_latency_steps(Algo algo, const TrialAggregate& agg) {
  const Samples& s = reported_latency_sample(algo, agg);
  return s.empty() ? 0.0 : s.mean();
}

ScenarioResult run_scenario(Algo algo, NodeId N, int pre_failures,
                            const LogP& logp, int trials, std::uint64_t seed,
                            double eps, int f, int threads,
                            const ExecConfig& exec) {
  CG_CHECK(pre_failures >= 0 && pre_failures < N);
  ScenarioResult res;
  res.tuned = tune_for(algo, N, N - pre_failures, logp, eps, f);

  TrialSpec spec;
  spec.algo = algo;
  spec.acfg = res.tuned.acfg;
  spec.n = N;
  spec.logp = logp;
  spec.seed = seed;
  spec.trials = trials;
  spec.threads = threads;
  spec.exec = exec;
  spec.pre_failures = pre_failures;
  res.agg = run_trials(spec);

  res.lat_us = reported_latency_us(algo, res.agg, logp);
  res.predicted_us = logp.us(res.tuned.predicted_latency_steps);
  res.work = res.agg.work.mean();
  res.incon = res.agg.inconsistency.mean();
  return res;
}

ModelRow big_model_row(NodeId N, const LogP& logp) {
  return {big_latency_us(N, logp), big_work(N), 0.0};
}

ModelRow bfb_model_row(NodeId N, int f_hat, const LogP& logp) {
  const int online = bfb_online_failures(f_hat);
  return {bfb_latency_us(N, online, logp), bfb_work(N, online), 0.0};
}

}  // namespace cg
