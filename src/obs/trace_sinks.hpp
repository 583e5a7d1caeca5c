// Structured trace sinks: the observability layer's export side of the
// engines' TraceSink hook (RunConfig::trace).
//
// All sinks here work with both execution engines: the stepped engine
// calls on_event() inline, and the sharded engine flushes per-shard
// buffers at the window barrier (single-threaded), so no sink needs
// locking.
//
//   JsonlTraceSink    - one JSON object per line; lossless (from_jsonl()
//                       parses back the exact event), greppable, streamable.
//   ChromeTraceSink   - Chrome trace-event JSON ("chrome://tracing" /
//                       https://ui.perfetto.dev): one track per node,
//                       phase-colored slices for gossip / correction / SOS.
//   CountingTraceSink - O(1)-memory per-kind and per-tag counters for
//                       always-on accounting.
//   TeeTraceSink      - fan one engine trace out to several sinks.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "proto/message.hpp"
#include "sim/trace.hpp"

namespace cg::obs {

/// Message phase a Tag belongs to (the paper's work taxonomy, matching
/// MessageCounts): gossip, ring correction, SOS flood, baseline tree.
enum class Phase : std::uint8_t { kGossip = 0, kCorrection, kSos, kTree };
inline constexpr int kPhaseCount = 4;

constexpr Phase phase_of(Tag t) {
  switch (t) {
    case Tag::kGossip:
    case Tag::kPullReq:
    case Tag::kSbrbSubEcho:
    case Tag::kSbrbSubReady: return Phase::kGossip;
    case Tag::kOcgCorr:
    case Tag::kFwd:
    case Tag::kBwd:
    case Tag::kSbrbEcho:
    case Tag::kSbrbReady: return Phase::kCorrection;
    case Tag::kSos: return Phase::kSos;
    case Tag::kTree:
    case Tag::kNack:
    case Tag::kAck: return Phase::kTree;
  }
  return Phase::kGossip;
}

constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kGossip: return "gossip";
    case Phase::kCorrection: return "correction";
    case Phase::kSos: return "sos";
    case Phase::kTree: return "tree";
  }
  return "?";
}

/// Serialize one event as a single JSONL line (no trailing newline).
std::string to_jsonl(const TraceEvent& ev);

/// Serialize a whole trace, one event per line, trailing newline per line.
std::string to_jsonl(const std::vector<TraceEvent>& events);

/// Parse a line produced by to_jsonl(); returns false on malformed input.
bool from_jsonl(std::string_view line, TraceEvent& out);

/// Canonical event order: by step, then kind, node, peer, tag.  Engines
/// agree on the event MULTISET per step but not on intra-step emission
/// order (worker interleaving, heap order), so byte-stable trace comparison
/// and deterministic file output sort with this first.
void canonical_sort(std::vector<TraceEvent>& events);

/// Writes one JSONL line per event to a file, streaming (nothing retained).
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;
  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  bool ok() const { return f_ != nullptr; }
  void on_event(const TraceEvent& ev) override;
  /// Flush and close early (also done by the destructor).
  void close();

 private:
  std::FILE* f_ = nullptr;
};

/// Streams Chrome trace-event JSON ("chrome://tracing" / Perfetto) with
/// bounded memory: events buffer up to `flush_threshold`, are sorted
/// canonically chunk-locally (both viewers re-sort by ts on load, so
/// chunk-local order only serves byte-stable output for equal event
/// multisets), and stream to disk.  A big run therefore never holds more
/// than one chunk in memory - the old buffer-everything design ran out of
/// memory on n >= 65536 full traces.
///
/// Layout: one thread ("track") per node under a single process; sends and
/// deliveries are duration slices of one step (the LogP overhead O) colored
/// by phase; colorings / deliveries / completions / crashes are instant
/// events.  `us_per_step` scales simulated steps to trace microseconds
/// (pass LogP::o_us to get real simulated time).
///
/// `max_events > 0` hard-caps the file: further events are counted, not
/// written, and close() appends a `trace_truncated` instant event carrying
/// the dropped count.  Per-node track metadata is emitted only for traces
/// whose max node id stays below 65536 (at 1M nodes the labels alone would
/// dwarf the trace; viewers fall back to numeric tids).
class ChromeTraceSink final : public TraceSink {
 public:
  static constexpr std::size_t kDefaultFlushThreshold = 65536;

  explicit ChromeTraceSink(const std::string& path, double us_per_step = 1.0,
                           std::size_t flush_threshold = kDefaultFlushThreshold,
                           std::int64_t max_events = 0);
  ~ChromeTraceSink() override;
  ChromeTraceSink(const ChromeTraceSink&) = delete;
  ChromeTraceSink& operator=(const ChromeTraceSink&) = delete;

  void on_event(const TraceEvent& ev) override {
    if (max_events_ > 0 &&
        emitted_ + static_cast<std::int64_t>(buf_.size()) >= max_events_) {
      ++dropped_;
      return;
    }
    buf_.push_back(ev);
    if (buf_.size() >= flush_threshold_) flush_chunk();
  }

  /// Flush the tail, append track metadata + truncation marker, close the
  /// file.  Returns false if any write failed.  Idempotent.
  bool close();

  std::int64_t emitted() const { return emitted_; }
  /// Events beyond max_events (recorded in the truncation marker).
  std::int64_t dropped() const { return dropped_; }

 private:
  void flush_chunk();          ///< sort + stream the buffer, lazily opening
  void write(std::string_view s);

  std::string path_;
  double us_per_step_;
  std::size_t flush_threshold_;
  std::int64_t max_events_;
  std::vector<TraceEvent> buf_;
  std::FILE* f_ = nullptr;
  bool opened_ = false;
  bool first_event_ = true;    ///< comma bookkeeping inside traceEvents[]
  bool ok_ = true;
  bool closed_ = false;
  NodeId max_node_ = -1;
  std::int64_t emitted_ = 0;
  std::int64_t dropped_ = 0;
};

/// O(1)-memory counters: events by kind, sends by tag and by phase.
class CountingTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override {
    ++total_;
    ++by_kind_[static_cast<int>(ev.kind)];
    if (ev.kind == TraceEvent::Kind::kSend) {
      ++sends_by_tag_[static_cast<int>(ev.tag)];
      ++sends_by_phase_[static_cast<int>(phase_of(ev.tag))];
    }
  }

  std::int64_t total() const { return total_; }
  std::int64_t count(TraceEvent::Kind k) const {
    return by_kind_[static_cast<int>(k)];
  }
  std::int64_t sends(Tag t) const {
    return sends_by_tag_[static_cast<int>(t)];
  }
  std::int64_t sends(Phase p) const {
    return sends_by_phase_[static_cast<int>(p)];
  }

  void clear() { *this = CountingTraceSink{}; }

 private:
  std::int64_t total_ = 0;
  std::int64_t by_kind_[kTraceKindCount] = {};
  std::int64_t sends_by_tag_[kTagCount] = {};
  std::int64_t sends_by_phase_[kPhaseCount] = {};
};

/// Forwards every event to each registered sink (none owned).
class TeeTraceSink final : public TraceSink {
 public:
  void add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void on_event(const TraceEvent& ev) override {
    for (TraceSink* s : sinks_) s->on_event(ev);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace cg::obs
