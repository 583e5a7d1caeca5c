// Failure drill: crash nodes at the worst moments - and optionally break
// the channel under them - and watch each consistency level respond.
// Demonstrates concretely why CCG's guarantee needs a failure-free, loss-
// free correction phase, how FCG's all-or-nothing semantics hold up
// (including the SOS backstop), and what the ack/retransmit sublayer
// (--reliable) buys back once messages can be lost (docs/FAULTS.md).
//
//   ./failure_drill [--n=512] [--threads=0] [--trials=300] [--seed=7]
//                   [--drop-prob=0] [--burst-loss=0] [--burst-mean=4]
//                   [--restart=0] [--stragglers=0] [--reliable]
//                   [--byz=K] [--byz-mode=silent|equivocator|corruptor|spammer]
//                   [--byz-root]
//                   [--engine=stepped|sharded] [--shards=K]
//                   [--heartbeat=SECONDS]
//
// With --byz=K the drill adds an SBRB row and a "consistent" column: the
// crash-model protocols keep their liveness numbers but lose payload
// consistency under equivocation, while SBRB's sampled echo/ready quorums
// hold it (docs/FAULTS.md, Byzantine tier).
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "harness/scenarios.hpp"
#include "obs/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 512);
  const int trials = flags.get_count("trials", 300);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  // Every cell crashes up to kMaxCrashes non-root nodes; restarts need
  // further distinct ones (sim/failure.cpp CG_CHECKs both bounds).
  constexpr int kMaxCrashes = 3;
  if (n <= kMaxCrashes) {
    std::fprintf(stderr, "--n=%d: expected an integer >= %d (the drill "
                 "crashes up to %d nodes besides the root)\n",
                 n, kMaxCrashes + 1, kMaxCrashes);
    return 2;
  }
  const double drop_prob = flags.get_double("drop-prob", 0.0);
  flags.require(drop_prob >= 0.0 && drop_prob <= 1.0, "drop-prob",
                "a number in [0, 1]");
  const double burst_loss = flags.get_double("burst-loss", 0.0);
  flags.require(burst_loss >= 0.0 && burst_loss < 1.0, "burst-loss",
                "a number in [0, 1)");
  const Step burst_mean = flags.get_int_in(
      "burst-mean", 4, 1, std::numeric_limits<std::int64_t>::max());
  const int restarts = static_cast<int>(
      flags.get_int_in("restart", 0, 0, n - 1 - kMaxCrashes));
  const int stragglers =
      static_cast<int>(flags.get_int_in("stragglers", 0, 0, n - 1));
  const bool reliable = flags.get_bool("reliable", false);
  int byz_count = static_cast<int>(flags.get_int_in("byz", 0, 0, n - 1));
  const bool byz_root = flags.get_bool("byz-root", false);
  if (byz_root && byz_count == 0) byz_count = 1;
  ByzMode byz_mode = ByzMode::kEquivocator;
  const std::string byz_mode_s = flags.get_string("byz-mode", "equivocator");
  if (!byz_mode_from_name(byz_mode_s, byz_mode)) {
    std::fprintf(stderr, "unknown --byz-mode=%s (%s)\n", byz_mode_s.c_str(),
                 byz_mode_names_list());
    return 2;
  }
  ExecConfig exec;
  const std::string engine_s = flags.get_string("engine", "stepped");
  if (!engine_from_name(engine_s, exec.engine)) {
    std::fprintf(stderr, "unknown --engine=%s (%s)\n", engine_s.c_str(),
                 engine_names_list());
    return 2;
  }
  exec.threads =
      static_cast<int>(flags.get_int_in("shards", 1, 1, kMaxThreads));
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-4;
  std::unique_ptr<Heartbeat> heartbeat;
  if (flags.has("heartbeat"))
    heartbeat = std::make_unique<Heartbeat>(
        stderr, flags.get_double("heartbeat", 5.0), "drill");

  std::printf("failure drill: N=%d, random crashes while the broadcast "
              "runs, %d trials per cell\n", n, trials);
  if (drop_prob > 0 || burst_loss > 0 || restarts > 0 || stragglers > 0)
    std::printf("faults: drop=%.3g burst=%.3g(mean %lld) restarts=%d "
                "stragglers=%d reliable=%s\n",
                drop_prob, burst_loss, static_cast<long long>(burst_mean),
                restarts, stragglers, reliable ? "on" : "off");
  if (byz_count > 0)
    std::printf("adversary: %d byzantine (%s)%s\n", byz_count,
                byz_mode_name(byz_mode), byz_root ? " incl. root" : "");
  std::printf("\n");

  std::vector<Algo> algos = {Algo::kCcg, Algo::kFcg};
  if (byz_count > 0) algos.push_back(Algo::kSbrb);
  Table table({"algo", "online crashes", "all reached", "all-or-nothing",
               "consistent", "SOS runs", "retrans", "truncated",
               "mean lat[us]"});
  for (const Algo a : algos) {
    for (const int crashes : {0, 1, kMaxCrashes}) {
      const TunedAlgo tuned = tune_for(a, n, n, logp, eps, /*f=*/1);
      TrialSpec spec;
      spec.threads =
          static_cast<int>(flags.get_int_in("threads", 0, 0, kMaxThreads));
      spec.heartbeat = heartbeat.get();
      spec.exec = exec;
      spec.algo = a;
      spec.acfg = tuned.acfg;
      spec.acfg.reliable.enabled = reliable;
      spec.n = n;
      spec.logp = logp;
      spec.seed = derive_seed(seed, static_cast<std::uint64_t>(crashes) * 4 +
                                        static_cast<std::uint64_t>(a));
      spec.trials = trials;
      spec.online_failures = crashes;
      spec.online_horizon = tuned.predicted_latency_steps + 8;
      spec.drop_prob = drop_prob;
      spec.burst_loss = burst_loss;
      spec.burst_mean = burst_mean;
      spec.restarts = restarts;
      spec.stragglers = stragglers;
      spec.byz_count = byz_count;
      spec.byz_mode = byz_mode;
      spec.byz_include_root = byz_root;
      const TrialAggregate agg = run_trials(spec);
      table.add_row(
          {algo_name(a), Table::cell("%d", crashes),
           Table::cell("%lld/%lld",
                       static_cast<long long>(agg.all_colored_trials),
                       static_cast<long long>(agg.trials)),
           a == Algo::kFcg
               ? Table::cell("%lld/%lld",
                             static_cast<long long>(
                                 agg.trials - agg.all_or_nothing_violations),
                             static_cast<long long>(agg.trials))
               : std::string("n/a"),
           byz_count > 0
               ? Table::cell("%lld/%lld",
                             static_cast<long long>(
                                 agg.trials - agg.consistency_violations),
                             static_cast<long long>(agg.trials))
               : std::string("n/a"),
           Table::cell("%lld", static_cast<long long>(agg.sos_trials)),
           Table::cell("%.1f", agg.work_retrans.mean()),
           Table::cell("%lld",
                       static_cast<long long>(agg.hit_max_steps_trials)),
           Table::cell_or_na("%.1f", reported_latency_us(a, agg, logp))});
    }
  }
  table.print();

  std::printf(
      "\nreading the table:\n"
      "  * CCG with 0 crashes reaches everyone, always (Claim 3) - on a\n"
      "    RELIABLE channel.  Re-run with --burst-loss=0.03 to watch the\n"
      "    claim die, and add --reliable to watch retransmission (the\n"
      "    retrans column is its price) buy it back.\n"
      "  * CCG under crashes degrades badly: a g-node that never hears its\n"
      "    neighbor (it died) sweeps on, up to a full O(N) lap - watch the\n"
      "    latency column - and if EVERY g-node covering a gap dies, nodes\n"
      "    stay unreached while others delivered (the inconsistency the\n"
      "    paper motivates FCG with in Section III-D).\n"
      "  * FCG keeps all-or-nothing delivery in every run (Claim 4) at\n"
      "    nearly flat latency; SOS fires only in pathological cases and\n"
      "    still delivers.\n"
      "  * 'truncated' counts trials stopped by the max-step safety rail\n"
      "    (RunConfig::effective_max_steps) - a run that long signals a\n"
      "    livelock, not a slow finish.\n");
  return 0;
}
