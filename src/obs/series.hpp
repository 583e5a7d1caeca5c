// Per-step time-series metrics recorded from the engine trace stream, and
// the analytic-drift check that compares an observed coloring trajectory to
// the paper's c(t) recurrence (Lemma 1 / Eq. 1).
//
// StepSeries is a TraceSink, so it plugs into RunConfig::trace on either
// engine (the sharded engine flushes events window by window, so a
// window's steps arrive interleaved across shards; the series buckets by
// each event's step, so the result matches the stepped engine's).  It
// turns the event stream into per-step vectors:
//   * colored(t)        - cumulative colored-node count at end of step t;
//   * sends by phase    - gossip / correction / SOS / tree emissions;
//   * delivers(t)       - messages processed at step t;
//   * in_flight(t)      - sends so far minus deliveries so far.  A final
//                         residue counts sends that were never processed:
//                         messages lost on the wire (drop_prob > 0) and
//                         messages that reached crashed or already-completed
//                         nodes, which the engines drop silently;
//   * lost(t)           - messages lost on the wire at step t (i.i.d. loss,
//                         burst loss or a partition - the fault timeline);
//   * ring_watermark(t) - distinct nodes that have emitted a ring-
//                         correction message by step t (progress of the
//                         correction wave around the ring).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_sinks.hpp"
#include "sim/logp.hpp"

namespace cg::obs {

class StepSeries final : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override;
  /// Drop recorded data; keeps the stride / track-ring configuration.
  void clear();

  /// Decimation for big runs: fold every `k` consecutive steps into one
  /// bucket (the CSV/JSON `step` column becomes the bucket's first step).
  /// Totals and cumulative curves are invariant under any stride; only the
  /// time resolution drops.  compare_to_model() requires stride 1.  Must
  /// be called before recording.
  void set_stride(Step k);
  Step stride() const { return stride_; }

  /// The ring-watermark series is the sink's only O(n)-memory part (one
  /// byte per node).  Disable it for aggregate-only million-node series;
  /// ring_watermark() then reads all zeros.
  void set_track_ring(bool on) { track_ring_ = on; }
  bool track_ring() const { return track_ring_; }

  /// Number of recorded buckets (highest event step / stride + 1).
  Step steps() const { return static_cast<Step>(newly_colored_.size()); }

  // Cumulative / per-step series, each of size steps().
  std::vector<std::int64_t> colored_cumulative() const;
  std::vector<std::int64_t> in_flight() const;
  std::vector<std::int64_t> ring_watermark() const;
  const std::vector<std::int64_t>& newly_colored() const {
    return newly_colored_;
  }
  const std::vector<std::int64_t>& delivers() const { return delivers_; }
  const std::vector<std::int64_t>& lost() const { return lost_; }
  const std::vector<std::int64_t>& sends_total() const { return sends_total_; }
  const std::vector<std::int64_t>& sends(Phase p) const {
    return sends_by_phase_[static_cast<int>(p)];
  }

  /// CSV dump: one row per step, header included.
  std::string to_csv() const;
  /// JSON dump: {"steps": K, "colored": [...], ...}.
  std::string to_json() const;

 private:
  void ensure_step(Step s);

  std::vector<std::int64_t> newly_colored_;
  std::vector<std::int64_t> sends_total_;
  std::vector<std::int64_t> sends_by_phase_[kPhaseCount];
  std::vector<std::int64_t> delivers_;
  std::vector<std::int64_t> lost_;
  std::vector<std::int64_t> new_ring_senders_;
  std::vector<std::uint8_t> ring_seen_;  // indexed by node id
  Step stride_ = 1;
  bool track_ring_ = true;
};

/// Result of overlaying an observed coloring curve on the analytic c(t).
struct DriftReport {
  Step compared_steps = 0;  ///< prefix length both curves cover
  double max_abs = 0;       ///< max |observed - model| over that prefix
  Step max_abs_at = 0;      ///< step where the max occurs
  double max_frac = 0;      ///< max_abs / n_active
  double mean_abs = 0;      ///< mean |observed - model|
};

/// Compare the observed colored(t) trajectory against the analytic
/// recurrence c(t) from src/analysis/coloring.* for the same N / n_active /
/// gossip time T / LogP.  Makes model-vs-simulation divergence a testable
/// signal: a correct GOS simulation stays within sampling noise of c(t).
DriftReport compare_to_model(const StepSeries& series, NodeId N,
                             NodeId n_active, Step T, const LogP& logp);

/// Same check against an externally supplied model curve.
DriftReport compare_to_model(const std::vector<std::int64_t>& observed,
                             const std::vector<double>& model,
                             NodeId n_active);

std::string to_json(const DriftReport& drift);

}  // namespace cg::obs
