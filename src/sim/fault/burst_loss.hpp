// Gilbert-Elliott correlated (bursty) message loss.
//
// Real interconnects do not lose messages i.i.d.: congestion, link flaps
// and switch resets kill several consecutive messages from the same
// sender.  The classic two-state Gilbert-Elliott model captures that: each
// sender owns a Markov chain over {good, bad}; the chain makes one
// transition per simulated STEP (not per message), and each message drawn
// while the chain is bad is lost with probability loss_bad (loss_good in
// the good state, usually 0).
//
// Determinism/parity contract: the chain and the loss draws consume one
// DEDICATED per-sender RNG stream (kBurstStream in NetworkModel).  State
// is advanced lazily - route(from, ...) catches the chain up to `now`
// with exactly (now - last_advanced) transition draws - so the draw
// sequence depends only on the sender's send times, which are identical
// across the stepped and sharded engines.  Advancing per
// step rather than per message also means a retransmit backoff actually
// escapes a burst: waiting longer really does give the channel time to
// recover.
#pragma once

#include "common/check.hpp"
#include "common/types.hpp"

namespace cg {

struct BurstLoss {
  double p_good_bad = 0.0;  ///< per-step P(good -> bad); 0 disables the model
  double p_bad_good = 0.0;  ///< per-step P(bad -> good)
  double loss_good = 0.0;   ///< per-message loss probability in `good`
  double loss_bad = 1.0;    ///< per-message loss probability in `bad`

  bool enabled() const { return p_good_bad > 0.0; }

  /// Build a channel with a target mean burst length (steps spent in `bad`
  /// per visit, >= 1) and overall long-run loss rate (stationary fraction
  /// of time in `bad`, since loss_bad = 1 and loss_good = 0).
  static BurstLoss from_rate(double overall_loss, double mean_burst_steps) {
    CG_CHECK(overall_loss > 0.0 && overall_loss < 1.0);
    CG_CHECK(mean_burst_steps >= 1.0);
    BurstLoss b;
    b.p_bad_good = 1.0 / mean_burst_steps;
    // Stationary P(bad) = p_gb / (p_gb + p_bg) = overall_loss.
    b.p_good_bad = overall_loss * b.p_bad_good / (1.0 - overall_loss);
    b.loss_good = 0.0;
    b.loss_bad = 1.0;
    return b;
  }

  /// Long-run fraction of steps spent in the bad state.
  double stationary_bad() const {
    return enabled() ? p_good_bad / (p_good_bad + p_bad_good) : 0.0;
  }
};

}  // namespace cg
