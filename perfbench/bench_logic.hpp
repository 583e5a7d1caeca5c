// Bookkeeping for the end-to-end benchmark (perfbench.cpp): medians, span
// recording, guarantee accounting and the derived per-layer ratios.  Kept
// apart from the program so test_bench_logic.cpp can check the arithmetic
// on hand-built inputs.
#pragma once

#include <stdio.h>  // open_memstream

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/core/profile.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// Median with the two middle values averaged.  (cg::Samples uses the
/// nearest rank, which jumps between rounds when a run has 2-6 of them.)
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Length of the part of [lo, hi] covered by the union of `iv`.
inline double covered_seconds(std::vector<std::pair<double, double>> iv,
                              double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  double reach = lo;  // everything left of `reach` is already counted
  for (auto [a, b] : iv) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

// ------------------------------------------------------------------ spans

/// One timed call into a layer.  Times are seconds since the log's origin.
struct Span {
  std::string name;
  std::string detail;    ///< free-form label, e.g. "clean/CCG+rel"
  double t0 = 0;
  double t1 = 0;
  int parent = -1;       ///< index of the enclosing span; -1 = top level
  std::int64_t id = -1;  ///< round / repetition / cell id; -1 = none
  double seconds() const { return t1 - t0; }
};

/// In-memory span log.  A span opened while another is open becomes its
/// child.  Nothing is written until chrome_json() is called at exit.  A
/// disabled log records nothing, so the untraced run pays only the clock
/// reads its own timing needs.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled() const { return enabled_; }

  /// Start a span at `t0`; returns its index, or -1 when disabled.
  int open(std::string name, std::int64_t id, std::string detail, double t0) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), std::move(detail), t0, t0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// End span `idx` (and any child left open inside it) at `t1`.
  void close(int idx, double t1) {
    if (idx < 0) return;
    while (!stack_.empty()) {
      const int top = stack_.back();
      stack_.pop_back();
      spans_[static_cast<std::size_t>(top)].t1 = t1;
      if (top == idx) break;
    }
  }

  /// Append a finished span as given (tests build logs by hand).
  int add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part of it its direct children cover.
  double self_seconds(int idx) const {
    const Span& s = spans_[static_cast<std::size_t>(idx)];
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_)
      if (c.parent == idx) kids.emplace_back(c.t0, c.t1);
    return s.seconds() - covered_seconds(std::move(kids), s.t0, s.t1);
  }

  /// Share of [from, to] covered by the union of the top-level spans.
  double top_level_coverage(double from, double to) const {
    std::vector<std::pair<double, double>> top;
    for (const Span& s : spans_)
      if (s.parent < 0) top.emplace_back(s.t0, s.t1);
    return ratio(covered_seconds(std::move(top), from, to), to - from);
  }

  /// Trace-event JSON (complete "X" events in microseconds, one track),
  /// which Perfetto and chrome://tracing open.
  std::string chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call and, when the log is enabled, records it as a span.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t id = -1,
        std::string detail = {})
      : log_(log), t0_(log.now()),
        idx_(log.open(name, id, std::move(detail), t0_)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// End the span now (later calls return the same duration).
  double close() {
    if (t1_ < 0) {
      t1_ = log_.now();
      log_.close(idx_, t1_);
    }
    return t1_ - t0_;
  }

  /// The span's index in the log (-1 when the log is disabled).
  int index() const { return idx_; }

 private:
  SpanLog& log_;
  double t0_;
  int idx_;
  double t1_ = -1;
};

// ------------------------------------------------------- JSON formatting

/// Shortest decimal that round-trips `v` (every digit as measured).
inline std::string fmt_double(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

inline std::string SpanLog::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + json_string(s.name) +
           ",\"cat\":" + json_string(s.name.substr(0, s.name.find('.'))) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           fmt_double(s.t0 * 1e6) + ",\"dur\":" + fmt_double(s.seconds() * 1e6) +
           ",\"args\":{\"span\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"id\":" + std::to_string(s.id) +
           ",\"detail\":" + json_string(s.detail) +
           ",\"self_ms\":" +
           fmt_double(self_seconds(static_cast<int>(i)) * 1e3) + "}}";
  }
  return out + "]}\n";
}

// -------------------------------------------------- guarantee accounting

/// Share of broadcasts that met the guarantee their cell asserts.  A
/// broadcast fails when cg::trial_violates says so, which counts every
/// truncated run (hit max_steps) - even in observation-only kNone cells.
struct GuaranteeTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void add(cg::Guarantee g, const cg::RunMetrics& m) {
    ++attempted;
    if (cg::trial_violates(g, m)) ++failed;
  }
  void add(std::int64_t trials, std::int64_t failures) {
    attempted += trials;
    failed += failures;
  }
  double met_frac() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

/// The `failures` field of the last line a cg::Heartbeat wrote to `text`,
/// or -1 when there is none.  run_campaign counts exactly the trials that
/// violate their cell's guarantee (cg::trial_violates) into it.
inline std::int64_t last_heartbeat_failures(std::string_view text) {
  constexpr std::string_view key = "\"failures\":";
  const std::size_t at = text.rfind(key);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(std::string(text.substr(at + key.size(), 24)).c_str(),
                      nullptr, 10);
}

/// Trial completion times from the lines of a cg::Heartbeat that emits
/// every beat: element k is the `elapsed_s` of the line with `done` = k+1,
/// in seconds since the heartbeat was made.  Repeated counts (the final
/// summary line) are skipped.
inline std::vector<double> heartbeat_stamps(std::string_view text) {
  constexpr std::string_view done_key = "\"done\":";
  constexpr std::string_view time_key = "\"elapsed_s\":";
  std::vector<double> stamps;
  while (!text.empty()) {
    const std::size_t eol = std::min(text.find('\n'), text.size());
    const std::string line(text.substr(0, eol));
    text.remove_prefix(std::min(eol + 1, text.size()));
    const std::size_t d = line.find(done_key);
    const std::size_t e = line.find(time_key);
    if (d == std::string::npos || e == std::string::npos) continue;
    const long long done =
        std::strtoll(line.c_str() + d + done_key.size(), nullptr, 10);
    if (done == static_cast<long long>(stamps.size()) + 1)
      stamps.push_back(
          std::strtod(line.c_str() + e + time_key.size(), nullptr));
  }
  return stamps;
}

/// [start, end] of each cell of a serial campaign, from its trial stamps:
/// cell c ran trials [c * trials, (c + 1) * trials), and started when the
/// previous cell ended (the first at 0).  Empty when the stamps do not
/// cover whole cells.
inline std::vector<std::pair<double, double>> cell_spans(
    const std::vector<double>& stamps, int trials) {
  std::vector<std::pair<double, double>> cells;
  if (trials < 1 || stamps.size() % static_cast<std::size_t>(trials) != 0)
    return cells;
  double start = 0;
  const auto step = static_cast<std::size_t>(trials);
  for (std::size_t end = step; end <= stamps.size(); end += step) {
    cells.emplace_back(start, stamps[end - 1]);
    start = stamps[end - 1];
  }
  return cells;
}

/// A cg::Heartbeat writing into memory.  run_campaign reports on its final
/// line how many trials violated their cell's guarantee (truncations
/// included) - the exact per-trial count its aggregates cannot give.  With
/// `interval_s` = 0 it also writes a line per trial, which times the cells
/// (heartbeat_stamps).
class CapturedHeartbeat {
 public:
  explicit CapturedHeartbeat(double interval_s = 1e9)
      : file_(open_memstream(&buf_, &len_)),
        hb_(file_, interval_s, "campaign") {}
  ~CapturedHeartbeat() {
    if (file_ != nullptr) std::fclose(file_);
    std::free(buf_);
  }
  CapturedHeartbeat(const CapturedHeartbeat&) = delete;
  CapturedHeartbeat& operator=(const CapturedHeartbeat&) = delete;

  cg::Heartbeat* get() { return &hb_; }
  /// Everything written so far.
  std::string_view text() {
    if (file_ == nullptr) return {};
    std::fflush(file_);
    return {buf_, len_};
  }
  /// Violating trials, or -1 when nothing was captured.
  std::int64_t failures() { return last_heartbeat_failures(text()); }

 private:
  char* buf_ = nullptr;
  std::size_t len_ = 0;
  std::FILE* file_;
  cg::Heartbeat hb_;
};

/// The paper's reported simulated latency of one cell in microseconds:
/// cg::reported_latency_steps (completion for CCG/FCG, last delivery for
/// SBRB) converted with LogP::us.
inline double sim_latency_us(cg::Algo algo, const cg::TrialAggregate& agg,
                             const cg::LogP& logp) {
  return logp.us(1) * cg::reported_latency_steps(algo, agg);
}

// ------------------------------------------------ per-layer derivations

/// Sums over the profiled replays of one traced round (one replay per
/// trial of the round).
struct ReplayTotals {
  std::int64_t runs = 0;
  std::int64_t node_runs = 0;  ///< sum of n: the per-node denominator
  double run_s = 0;            ///< run_once wall as timed by the caller
  double sample_s = 0;         ///< trial_run_config wall
  cg::EngineProfile prof;      ///< field-wise sum of the replays' profiles
  std::int64_t sends = 0, lost = 0, delivers = 0, colored = 0;
  std::int64_t msgs_gossip = 0, msgs_correction = 0, msgs_sos = 0,
               msgs_sbrb = 0, msgs_retrans = 0;
  std::int64_t equivocated = 0, forged = 0, suppressed = 0;

  void add(const cg::RunMetrics& m, const cg::EngineProfile& p,
           const cg::obs::CountingTraceSink& c, double run_wall_s,
           double sample_wall_s) {
    using K = cg::TraceEvent::Kind;
    ++runs;
    node_runs += m.n_total;
    run_s += run_wall_s;
    sample_s += sample_wall_s;
    prof.callbacks_start += p.callbacks_start;
    prof.callbacks_receive += p.callbacks_receive;
    prof.callbacks_tick += p.callbacks_tick;
    prof.events_scheduled += p.events_scheduled;
    prof.steps += p.steps;
    prof.wall_s += p.wall_s;
    prof.deliver_s += p.deliver_s;
    prof.tick_s += p.tick_s;
    prof.route_s += p.route_s;
    prof.bytes_per_node += p.bytes_per_node;
    prof.windows += p.windows;
    prof.window_stalls += p.window_stalls;
    prof.boundary_msgs += p.boundary_msgs;
    sends += c.count(K::kSend);
    lost += c.count(K::kLost);
    delivers += c.count(K::kDeliver);
    colored += c.count(K::kColored);
    msgs_gossip += m.msgs_gossip;
    msgs_correction += m.msgs_correction;
    msgs_sos += m.msgs_sos;
    msgs_sbrb += m.msgs_sbrb;
    msgs_retrans += m.msgs_retrans;
    equivocated += m.msgs_equivocated;
    forged += m.msgs_forged;
    suppressed += m.msgs_suppressed;
  }
};

/// A reported value and its unit.
struct Metric {
  double value = 0;
  const char* unit = "count";
};

/// The sim / fault / adversary / gossip / reliable layer metrics of one
/// round of replays, per replayed broadcast.
inline std::map<std::string, Metric> replay_metrics(const ReplayTotals& t) {
  const auto runs = static_cast<double>(t.runs);
  const auto nodes = static_cast<double>(t.node_runs);
  const auto d = [](std::int64_t x) { return static_cast<double>(x); };
  const auto per_run_s = [&](double x) { return Metric{ratio(x, runs), "s"}; };
  const auto per_run = [&](std::int64_t x) { return Metric{ratio(d(x), runs)}; };
  const auto per_node = [&](std::int64_t x) { return Metric{ratio(d(x), nodes)}; };
  const auto frac = [&](std::int64_t num, std::int64_t den) {
    return Metric{ratio(d(num), d(den)), "ratio"};
  };
  const cg::EngineProfile& p = t.prof;
  return {
      {"sim.construct_s", per_run_s(t.run_s - p.wall_s)},
      {"sim.wall_s", per_run_s(p.wall_s)},
      {"sim.events", per_run(p.events())},
      {"sim.callbacks_receive", per_run(p.callbacks_receive)},
      {"sim.callbacks_tick", per_run(p.callbacks_tick)},
      {"sim.steps", per_run(p.steps)},
      {"sim.msgs_routed", per_run(p.events_scheduled)},
      {"sim.ns_per_event", {ratio(p.wall_s * 1e9, d(p.events())), "ns"}},
      {"sim.phase_s.deliver", per_run_s(p.deliver_s)},
      {"sim.phase_s.tick", per_run_s(p.tick_s)},
      {"sim.phase_s.route", per_run_s(p.route_s)},
      {"sim.bytes_per_node", {ratio(d(p.bytes_per_node), runs), "B"}},
      {"sim.windows", per_run(p.windows)},
      {"sim.window_stalls", per_run(p.window_stalls)},
      {"sim.boundary_msgs", per_run(p.boundary_msgs)},
      {"fault.sample_s", per_run_s(t.sample_s)},
      {"fault.lost_frac", frac(t.lost, t.sends)},
      {"adversary.equivocated_per_node", per_node(t.equivocated)},
      {"adversary.forged_per_node", per_node(t.forged)},
      {"adversary.suppressed_per_node", per_node(t.suppressed)},
      {"gossip.gossip_msgs_per_node", per_node(t.msgs_gossip)},
      {"gossip.correction_msgs_per_node", per_node(t.msgs_correction)},
      {"gossip.sos_msgs_per_node", per_node(t.msgs_sos)},
      {"gossip.sbrb_msgs_per_node", per_node(t.msgs_sbrb)},
      {"gossip.useful_receive_frac", frac(t.colored, t.delivers)},
      {"reliable.retrans_per_node", per_node(t.msgs_retrans)},
      {"reliable.retrans_frac",
       frac(t.msgs_retrans, t.msgs_correction + t.msgs_sos)},
  };
}

/// Metric-name form of a campaign entry label: "CCG+rel" -> "ccg-rel".
inline std::string metric_key(std::string_view label) {
  std::string out;
  for (const char c : label)
    out += c == '+' ? '-' : static_cast<char>(std::tolower(
                                static_cast<unsigned char>(c)));
  return out;
}

}  // namespace perfbench
