// BSP-style iterative computation with consistent termination detection
// (the paper's Section II names Bulk Synchronous Parallel programs as the
// case where weakly consistent broadcast is unacceptable: nodes in
// different supersteps break the model).
//
// Each node runs a local fixed-point iteration whose residual decays at a
// node-specific random rate.  After every superstep the nodes agree on
// the GLOBAL maximum residual with a corrected-gossip all-reduce and stop
// when it drops below the tolerance - every node in the same superstep,
// every time.
//
//   ./bsp_convergence [--n=256] [--tol=1000] [--seed=5]
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

#include "analysis/tuning.hpp"
#include "collectives/allreduce.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"

int main(int argc, char** argv) {
  using namespace cg;
  const Flags flags(argc, argv);
  const auto n = flags.get_count("n", 256);
  // A node stops once its residual is below tol; residuals never go
  // negative, so tol <= 0 could never converge.
  const std::int64_t tol = flags.get_int_in(
      "tol", 1000, 1, std::numeric_limits<std::int64_t>::max());
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
  const LogP logp = LogP::piz_daint();
  const double eps = 1e-5;

  // Local state: residuals in fixed-point (integers for the idempotent
  // max-reduction); each node's residual decays by a private factor.
  std::vector<std::int64_t> residual(static_cast<std::size_t>(n));
  std::vector<double> decay(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    residual[static_cast<std::size_t>(i)] =
        1'000'000 + static_cast<std::int64_t>(rng.bounded(1'000'000));
    decay[static_cast<std::size_t>(i)] = 0.35 + 0.4 * rng.uniform01();
  }

  const Tuning t = tune_ocg(n, n, logp, eps);
  AllreduceNode::Params ar;
  ar.T = t.T_opt + 1;
  ar.corr_sends = allreduce_sweeps(n, ar.T, logp, eps);
  ar.op = ReduceOp::kMax;

  std::printf("BSP fixed-point on %d nodes, tol=%" PRId64
              "; per-superstep corrected-gossip all-reduce "
              "(T=%lld, C=%lld)\n\n", n, tol,
              static_cast<long long>(ar.T),
              static_cast<long long>(ar.corr_sends));

  double total_comm_us = 0;
  std::int64_t total_msgs = 0;
  for (int superstep = 1;; ++superstep) {
    // Local compute phase.
    for (NodeId i = 0; i < n; ++i) {
      auto& r = residual[static_cast<std::size_t>(i)];
      r = static_cast<std::int64_t>(static_cast<double>(r) *
                                    decay[static_cast<std::size_t>(i)]);
    }

    // Communication phase: agree on the global maximum residual.
    AllreduceNode::Params params = ar;
    params.contribution = [&](NodeId i) {
      return residual[static_cast<std::size_t>(i)];
    };
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = logp;
    cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(superstep));
    const AllreduceResult res = run_allreduce(params, cfg);
    total_comm_us += logp.us(res.t_complete);
    total_msgs += res.messages;

    // Every node applies the same decision on ITS OWN aggregate: the BSP
    // invariant is that these decisions agree.
    int stopping = 0;
    for (NodeId i = 0; i < n; ++i)
      if (res.values[static_cast<std::size_t>(i)] < tol) ++stopping;

    std::printf("superstep %2d: global max residual %10" PRId64
                "  (exact at %s nodes)  stop votes %d/%d\n",
                superstep, res.expected, res.all_correct ? "all" : "NOT all",
                stopping, n);

    if (stopping == n) {
      std::printf("\nconverged: all %d nodes stop in superstep %d "
                  "TOGETHER (BSP invariant held)\n", n, superstep);
      break;
    }
    if (stopping != 0) {
      std::printf("\nBSP INVARIANT VIOLATED: %d of %d nodes would stop "
                  "early!\n", stopping, n);
      return 1;
    }
    if (superstep > 60) {
      std::printf("no convergence after 60 supersteps?!\n");
      return 1;
    }
  }

  std::printf("communication total: %.0f us over %" PRId64 " messages\n",
              total_comm_us, total_msgs);
  return 0;
}
