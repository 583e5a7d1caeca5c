#include "harness/scenarios.hpp"

#include <cstdio>
#include <cstdlib>

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

TunedAlgo tune_for(Algo algo, NodeId N, NodeId n_active, const LogP& logp,
                   double eps, int f) {
  TunedAlgo out;
  out.algo = algo;
  switch (algo) {
    case Algo::kGos: {
      // Gossip alone must color everyone: pick T with expected miss < eps
      // (Section III-A), no correction to fall back on.
      out.acfg.T = gossip_time_for_target(N, n_active, eps, logp);
      out.predicted_latency_steps = out.acfg.T + logp.delivery_delay();
      break;
    }
    case Algo::kOcg: {
      const Tuning t = tune_ocg(N, n_active, logp, eps);
      out.acfg.T = t.T_opt + 1;  // the paper's "+O to T" margin
      const int k = k_bar_for(N, n_active, out.acfg.T, logp, eps);
      out.acfg.ocg_corr_sends = k + 1;  // Claim 2's "+O to C" margin
      out.predicted_latency_steps =
          ocg_predicted_latency(N, n_active, out.acfg.T, logp, eps);
      break;
    }
    case Algo::kCcg: {
      const Tuning t = tune_ccg(N, n_active, logp, eps);
      out.acfg.T = t.T_opt + 1;
      out.predicted_latency_steps =
          ccg_predicted_latency(N, n_active, out.acfg.T, logp, eps);
      break;
    }
    case Algo::kOcgChain: {
      // Same gossip optimum as OCG; the horizon is sized from K_bar.
      const Tuning t = tune_ocg(N, n_active, logp, eps);
      out.acfg.T = t.T_opt + 1;
      out.acfg.ocg_corr_sends =
          k_bar_for(N, n_active, out.acfg.T, logp, eps) + 1;
      out.predicted_latency_steps = OcgChainNode::chain_horizon(
          out.acfg.T, static_cast<int>(out.acfg.ocg_corr_sends), logp);
      break;
    }
    case Algo::kFcg: {
      const FcgTuning t = tune_fcg(N, n_active, logp, eps, f);
      out.acfg.T = t.T_opt + 1;
      out.acfg.fcg_f = f;
      out.predicted_latency_steps =
          fcg_predicted_upper(N, n_active, out.acfg.T, logp, eps, f);
      break;
    }
    case Algo::kBig: {
      out.predicted_latency_steps = static_cast<Step>(
          big_latency_us(N, logp) / logp.o_us);
      break;
    }
    case Algo::kBfb: {
      out.predicted_latency_steps = static_cast<Step>(
          bfb_latency_us(N, 0, logp) / logp.o_us);
      break;
    }
    case Algo::kOpt: {
      out.predicted_latency_steps = opt_latency_steps(N, logp);
      break;
    }
    case Algo::kSbrb: {
      // Sample sizes come from eps directly; latency is bounded by the
      // protocol's own completion deadline (runner.cpp derives the same
      // SbrbSamples from acfg, so prediction and run agree).
      out.acfg.sbrb_eps = eps;
      out.predicted_latency_steps =
          sbrb_deadline(sbrb_samples(N, eps, out.acfg.sbrb_byz_frac), logp);
      break;
    }
  }
  return out;
}

const Samples& reported_latency_sample(Algo algo, const TrialAggregate& agg) {
  switch (algo) {
    case Algo::kGos:
    case Algo::kOcg:
    case Algo::kCcg:
    case Algo::kFcg:
    case Algo::kOcgChain:
      return agg.t_complete;
    case Algo::kSbrb:  // delivery, not the (fixed-deadline) completion
    case Algo::kBig:
    case Algo::kOpt:
      return agg.t_last_colored;
    case Algo::kBfb:
      return agg.t_root_complete;
  }
  return agg.t_complete;
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
