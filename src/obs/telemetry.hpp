// Scale-ready telemetry: per-shard counter/histogram cells that stay O(1)
// per event, allocation-free in steady state, and deterministic across
// engines and shard/thread counts.
//
// Layering note: this header is engine-facing and therefore HEADER-ONLY in
// namespace cg - the engines (cg_sim / cg_runtime headers) and the harness
// (cg_harness) cannot link cg_obs (cg_obs links cg_harness), but every
// target shares the src/ include root.  Only the JSON/report surface lives
// in telemetry.cpp (cg_obs, namespace cg::obs).
//
// Determinism contract (tested in test_telemetry.cpp): the coloring-latency
// and inbox-depth histograms, the counters, and the retransmit histogram
// depend only on the per-step event MULTISET, which the engine parity suite
// already guarantees identical across the stepped / async / parallel /
// sharded engines at any shard or thread count.  Merging per-shard cells is
// commutative bucket-count addition, so the partition into cells is
// invisible in the merged result.  The per-window boundary-traffic
// histogram is the deliberate exception: boundary traffic is a property of
// the shard layout itself, so it is excluded from invariant_fingerprint().
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/huge_pages.hpp"
#include "common/types.hpp"
#include "sim/core/profile.hpp"
#include "sim/metrics.hpp"

namespace cg {

/// Fixed-bucket log-scale histogram (HDR-style) for non-negative integer
/// values.  Values 0..31 get exact linear buckets; from 32 up, each octave
/// [2^m, 2^(m+1)) is split into 4 sub-buckets, bounding the relative
/// quantile error at 25%.  Octaves cover m = 5..40 (values < 2^41); larger
/// values land in one overflow bucket.  Everything is plain int64 counts,
/// so merge() is commutative addition and the result is independent of how
/// recording was partitioned across shards or interleaved in time.
class LogHistogram {
 public:
  static constexpr int kLinear = 32;     ///< exact buckets for 0..31
  static constexpr int kSub = 4;         ///< sub-buckets per octave
  static constexpr int kFirstOctave = 5; ///< first binary octave (2^5 = 32)
  static constexpr int kOctaves = 36;    ///< octaves 5..40
  static constexpr int kBuckets = kLinear + kOctaves * kSub + 1;  // 177

  static constexpr int bucket_of(std::int64_t v) {
    if (v < 0) v = 0;
    if (v < kLinear) return static_cast<int>(v);
    const int msb =
        63 - std::countl_zero(static_cast<std::uint64_t>(v));
    if (msb >= kFirstOctave + kOctaves) return kBuckets - 1;  // overflow
    const int sub = static_cast<int>((v >> (msb - 2)) & 3);
    return kLinear + (msb - kFirstOctave) * kSub + sub;
  }

  /// Inclusive lower bound of bucket b's value range.
  static constexpr std::int64_t bucket_lo(int b) {
    if (b < kLinear) return b;
    if (b >= kBuckets - 1)
      return std::int64_t{1} << (kFirstOctave + kOctaves);
    const int oct = (b - kLinear) / kSub;
    const int sub = (b - kLinear) % kSub;
    const int msb = kFirstOctave + oct;
    return (std::int64_t{1} << msb) +
           (static_cast<std::int64_t>(sub) << (msb - 2));
  }

  /// Exclusive upper bound of bucket b's value range.
  static constexpr std::int64_t bucket_hi(int b) {
    return b + 1 < kBuckets ? bucket_lo(b + 1)
                            : std::numeric_limits<std::int64_t>::max();
  }

  void record(std::int64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
    sum_ += v < 0 ? 0 : v;
  }

  void merge(const LogHistogram& o) {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  void clear() {
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
  }

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / count_ : 0.0;
  }
  std::int64_t bucket_count(int b) const { return counts_[b]; }

  /// Lower bound of the bucket holding the q-quantile (q in [0,1]);
  /// deterministic because it is computed from counts alone.  0 when empty.
  std::int64_t quantile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    const std::int64_t rank =
        static_cast<std::int64_t>(q * static_cast<double>(count_ - 1));
    std::int64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > rank) return bucket_lo(b);
    }
    return bucket_lo(kBuckets - 1);
  }

  /// Lower bound of the highest non-empty bucket; 0 when empty.
  std::int64_t max_bound() const {
    for (int b = kBuckets - 1; b >= 0; --b)
      if (counts_[b] > 0) return bucket_lo(b);
    return 0;
  }

  friend bool operator==(const LogHistogram& a, const LogHistogram& b) {
    return a.count_ == b.count_ && a.sum_ == b.sum_ &&
           a.counts_ == b.counts_;
  }

 private:
  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
};

/// One per worker/shard.  Plain (non-atomic) fields: each engine hands
/// every cell to exactly one worker, and cells are merged single-threaded
/// at run end.  64-aligned so adjacent cells never share a cache line.
struct alignas(64) TelemetryCell {
  LogHistogram coloring_latency;  ///< step at which each node got colored
  LogHistogram inbox_depth;       ///< deliveries per (node, step) pair
  LogHistogram window_boundary;   ///< boundary msgs per (shard, window);
                                  ///< sharded engine only, layout-dependent
  /// Derived, not hot-path-maintained: colorings = coloring_latency.count()
  /// and deliveries = inbox_depth.sum() (each histogram sample is one
  /// (node, step) group of that many deliveries).  Telemetry::finish_run()
  /// fills them in so the hot path writes histograms only.
  std::int64_t colorings = 0;
  std::int64_t deliveries = 0;

  void clear() {
    coloring_latency.clear();
    inbox_depth.clear();
    window_boundary.clear();
    colorings = 0;
    deliveries = 0;
  }

  void merge_into(TelemetryCell& dst) const {
    dst.coloring_latency.merge(coloring_latency);
    dst.inbox_depth.merge(inbox_depth);
    dst.window_boundary.merge(window_boundary);
    dst.colorings += colorings;
    dst.deliveries += deliveries;
  }
};

/// Attach via RunConfig::telemetry.  The engine calls attach() at run
/// start, the per-event hooks from its workers (cell index = worker/shard;
/// node ownership keeps the stamp/pend arrays race-free), and finish_run()
/// single-threaded after metrics are final.  Results accumulate across
/// runs in merged(); capacity is kept across runs so steady-state trials
/// allocate nothing (tested by the counting-allocator guard).
class Telemetry {
 public:
  /// Size per-run state.  Grows capacity only when needed; never shrinks.
  void attach(NodeId n, int cells) {
    CG_CHECK_MSG(cells >= 1, "telemetry needs at least one cell");
    if (static_cast<int>(cells_.size()) < cells) cells_.resize(cells);
    const auto nn = static_cast<std::size_t>(n);
    if (marks_.size() < nn) marks_.resize(nn, Mark{-1, 0});
    live_cells_ = cells;
  }

  // --- hot path (engines call these behind `if (cfg.telemetry)`) ---

  void record_colored(int cell, Step step) {
    cells_[static_cast<std::size_t>(cell)].coloring_latency.record(step);
  }

  /// Per-node inbox depth: consecutive deliveries to `node` at the same
  /// step accumulate; a delivery at a later step flushes the previous
  /// (node, step) count as one histogram sample.  Engines deliver to each
  /// node at non-decreasing steps, so grouping is exact.  The (stamp,
  /// count) pair is packed into one 8-byte mark so the hot path touches a
  /// single extra cache line per delivery - at 1M nodes the marks array is
  /// the only randomly-indexed telemetry state, and this packing is what
  /// keeps the telemetry-on overhead inside the <=5% contract.
  void record_delivery(int cell, NodeId node, Step step) {
    Mark& mk = marks_[static_cast<std::size_t>(node)];
    // Steps fit in 31 bits: effective_max_steps() is linear in n and
    // NodeId is 32-bit, so truncation never aliases in practice.
    const auto s32 = static_cast<std::int32_t>(step);
    if (mk.stamp == s32) {  // common case: only the mark's line is touched
      ++mk.pend;
      return;
    }
    if (mk.stamp >= 0)
      cells_[static_cast<std::size_t>(cell)].inbox_depth.record(mk.pend);
    mk.stamp = s32;
    mk.pend = 1;
  }

  void record_window_boundary(int cell, std::int64_t msgs) {
    cells_[static_cast<std::size_t>(cell)].window_boundary.record(msgs);
  }

  // --- run end (single-threaded) ---

  /// Flush pending inbox-depth samples, fold per-cell state into the
  /// accumulated totals, and record run-level values from the metrics.
  void finish_run(const RunMetrics& m) {
    for (auto& mk : marks_) {
      if (mk.stamp >= 0) {
        cells_[0].inbox_depth.record(mk.pend);
        mk.stamp = -1;
      }
    }
    for (int c = 0; c < live_cells_; ++c) {
      TelemetryCell& cell = cells_[static_cast<std::size_t>(c)];
      cell.colorings = cell.coloring_latency.count();
      cell.deliveries = cell.inbox_depth.sum();
      cell.merge_into(total_);
      cell.clear();
    }
    retransmits_.record(m.msgs_retrans);
    ++runs_;
  }

  // --- results ---

  /// Totals accumulated over every finished run.
  const TelemetryCell& merged() const { return total_; }
  /// One sample per finished run: that run's retransmitted-message count.
  const LogHistogram& retransmits() const { return retransmits_; }
  std::int64_t runs() const { return runs_; }

  /// Drop accumulated results; keeps capacity.
  void reset() {
    total_.clear();
    retransmits_.clear();
    runs_ = 0;
    for (auto& c : cells_) c.clear();
    for (auto& mk : marks_) mk.stamp = -1;
  }

  /// Byte-stable digest of the engine-invariant slice (counters plus the
  /// coloring-latency / inbox-depth / retransmit histograms; the
  /// window-boundary histogram is layout-dependent and excluded).  Equal
  /// strings <=> equal invariant telemetry; used by the determinism tests.
  std::string invariant_fingerprint() const {
    std::string out;
    char buf[64];
    auto put = [&](const char* name, std::int64_t v) {
      std::snprintf(buf, sizeof buf, "%s=%lld;", name,
                    static_cast<long long>(v));
      out += buf;
    };
    put("runs", runs_);
    put("colorings", total_.colorings);
    put("deliveries", total_.deliveries);
    auto put_hist = [&](const char* name, const LogHistogram& h) {
      put(name, h.count());
      for (int b = 0; b < LogHistogram::kBuckets; ++b) {
        if (h.bucket_count(b) == 0) continue;
        std::snprintf(buf, sizeof buf, "%d:%lld,", b,
                      static_cast<long long>(h.bucket_count(b)));
        out += buf;
      }
      out += ';';
    };
    put_hist("coloring_latency", total_.coloring_latency);
    put_hist("inbox_depth", total_.inbox_depth);
    put_hist("retransmits", retransmits_);
    return out;
  }

 private:
  /// Per-node inbox-grouping state, packed to one 8-byte slot.
  struct Mark {
    std::int32_t stamp;  ///< last delivery step (-1 = none pending)
    std::int32_t pend;   ///< deliveries seen at that step
  };

  std::vector<TelemetryCell> cells_;
  NodeArray<Mark> marks_;
  TelemetryCell total_;
  LogHistogram retransmits_;
  std::int64_t runs_ = 0;
  int live_cells_ = 0;
};

/// Progress/heartbeat channel: single-line JSON on a configurable
/// interval, so multi-minute 1M-node runs and 500-trial campaigns are not
/// silent.  Thread-safe; beat() is one relaxed atomic load plus a clock
/// read when not due, so it is safe to call once per trial or once per
/// simulated step.  Attach via RunConfig::heartbeat (engines report
/// steps/max_steps) or TrialSpec/CampaignConfig::heartbeat (farm and
/// campaign report trials done / failures).
class Heartbeat {
 public:
  /// `out` is not owned (typically stderr); interval_s <= 0 emits every
  /// beat.  `label` names the channel in the JSON ("trials", "campaign",
  /// "engine", ...).
  Heartbeat(std::FILE* out, double interval_s, const char* label)
      : out_(out), interval_(interval_s), label_(label),
        start_(std::chrono::steady_clock::now()) {}

  /// Emit at most once per interval.  `done`/`total` are progress units
  /// (trials, steps); total <= 0 means unknown (eta omitted as 0).
  void beat(std::int64_t done, std::int64_t total, std::int64_t failures) {
    if (out_ == nullptr) return;
    const double t = elapsed_s();
    if (t < next_due_s_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (t < next_due_s_.load(std::memory_order_relaxed)) return;
    emit(done, total, failures, t);
    // With no interval the due time stays 0: a concurrent beat whose t
    // was read before this one's must still emit.
    if (interval_ > 0)
      next_due_s_.store(t + interval_, std::memory_order_relaxed);
  }

  /// Unconditional emit (final summary line).
  void force(std::int64_t done, std::int64_t total, std::int64_t failures) {
    if (out_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    emit(done, total, failures, elapsed_s());
  }

  std::int64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

 private:
  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void emit(std::int64_t done, std::int64_t total, std::int64_t failures,
            double t) {
    const double eta =
        (total > 0 && done > 0 && done < total)
            ? t / static_cast<double>(done) *
                  static_cast<double>(total - done)
            : 0.0;
    std::fprintf(
        out_,
        "{\"heartbeat\":\"%s\",\"done\":%lld,\"total\":%lld,"
        "\"failures\":%lld,\"elapsed_s\":%.3f,\"eta_s\":%.3f,"
        "\"rss_mb\":%.1f,\"peak_rss_mb\":%.1f}\n",
        label_, static_cast<long long>(done), static_cast<long long>(total),
        static_cast<long long>(failures), t, eta,
        static_cast<double>(current_rss_bytes()) / (1024.0 * 1024.0),
        static_cast<double>(current_peak_rss_bytes()) / (1024.0 * 1024.0));
    std::fflush(out_);
    emitted_.fetch_add(1, std::memory_order_relaxed);
  }

  std::FILE* out_;
  double interval_;
  const char* label_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<double> next_due_s_{0.0};
  std::atomic<std::int64_t> emitted_{0};
  std::mutex mu_;
};

}  // namespace cg
