// Model-driven selection of the gossip time T (Eqs. 3-5 of the paper).
//
// For a failure budget eps the correction sweep must cover the 1-eps
// quantile of the longest uncolored chain, K_bar(T); longer gossip shrinks
// K_bar but costs time, so T_opt minimizes the end-to-end latency.
#pragma once

#include "analysis/chain.hpp"
#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/logp.hpp"

namespace cg {

/// eps such that m runs all succeed with probability >= 1 - psi:
/// eps = 1 - (1 - psi)^(1/m)  (paper Section III-B).
double eps_for_runs(double psi, double m);

/// K_bar(N, n, T, L, eps): 1-eps quantile of the longest uncolored chain
/// after a gossip phase of length T (uses Eq. 1 then Eq. 2).
int k_bar_for(NodeId N, NodeId n_active, Step T, const LogP& logp, double eps);

struct Tuning {
  Step T_opt = 0;                  ///< recommended gossip time (argmin)
  int k_bar = 0;                   ///< K_bar at T_opt
  Step predicted_latency = 0;      ///< predicted total latency in steps
};

/// OCG (Eq. 3): latency(T) = T + 2L + (2 + K_bar(T)) O.
Tuning tune_ocg(NodeId N, NodeId n_active, const LogP& logp, double eps,
                Step t_lo = 1, Step t_hi = 0);

/// CCG (Eq. 4): latency(T) = T + 2L + (2 + 2 K_bar(T)) O.
Tuning tune_ccg(NodeId N, NodeId n_active, const LogP& logp, double eps,
                Step t_lo = 1, Step t_hi = 0);

/// Predicted latency in steps for a GIVEN T (useful for Figures 3 and 5).
Step ocg_predicted_latency(NodeId N, NodeId n_active, Step T,
                           const LogP& logp, double eps);
Step ccg_predicted_latency(NodeId N, NodeId n_active, Step T,
                           const LogP& logp, double eps);

/// OCG/CCG latency (Eqs. 3-4) in steps for gossip time T and K_bar = k:
/// T + 2L/O + 2 + w*k, with w = 1 for OCG and 2 for CCG.
Step latency_steps(Step T, int k, const LogP& logp, int w);

/// One candidate of a gossip-time scan: T, its chain statistic (K_bar, or
/// G_V for FCG) and the predicted latency in steps.
struct ScanPoint {
  Step T = 0;
  int chain = 0;
  Step latency = 0;
};

/// Default upper end of a T scan: the optimum sits near 1.6..2.5 log2 N,
/// so 4 ceil(log2 N) + pad scans generously past it.
Step default_t_hi(NodeId N, Step pad);

/// The T scan behind every tuner.  Evaluates eval(T) -> ScanPoint for
/// T = t_lo, t_lo+1, ... up to t_hi (t_hi <= 0: default_t_hi(N, pad)) and
/// returns the first minimum: ties go to the smallest T, which costs the
/// least gossip work (the tuned "+O" margin restores eps headroom; the
/// paper's own T=24 in Fig. 3 and T=32 in Table 7 sit at the small end of
/// the plateau).  `floor` is latency - T at the smallest chain statistic
/// the model allows, so latency(T) >= T + floor and the scan stops once
/// T + floor reaches the best latency: no larger T can beat it.
template <class Eval>
ScanPoint scan_gossip_time(NodeId N, Step t_lo, Step t_hi, Step pad,
                           Step floor, Eval&& eval) {
  if (t_hi <= 0) t_hi = default_t_hi(N, pad);
  CG_CHECK(t_lo >= 1 && t_lo <= t_hi);
  ScanPoint best;
  Step best_lat = kNever;
  for (Step T = t_lo; T <= t_hi && T + floor < best_lat; ++T) {
    const ScanPoint p = eval(T);
    if (p.latency < best_lat) {
      best_lat = p.latency;
      best = p;
    }
  }
  return best;
}

}  // namespace cg
