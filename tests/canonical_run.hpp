// One run of a protocol on either engine, reduced to what the byte-parity
// checks compare: the canonically sorted JSONL trace and the serialized
// RunMetrics (obs::to_json), plus t_end and msgs_total for reading.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "obs/trace_sinks.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/trace.hpp"

namespace cg {

struct CanonicalRun {
  std::string trace;    ///< canonically sorted JSONL trace
  std::string metrics;  ///< obs::to_json of the RunMetrics
  Step t_end = 0;
  std::int64_t msgs_total = 0;
};

/// Run `Node` on the stepped engine (shards = 0) or on the sharded engine
/// with `shards` shards.
template <class Node>
CanonicalRun run_canonical(RunConfig cfg, const typename Node::Params& p,
                           int shards) {
  VectorTrace trace;
  cfg.trace = &trace;
  const RunMetrics m = shards == 0
                           ? Engine<Node>(cfg, p).run()
                           : ShardedEngine<Node>(cfg, p, shards).run();
  std::vector<TraceEvent> events = trace.events();
  obs::canonical_sort(events);
  return {obs::to_jsonl(events), obs::to_json(m), m.t_end, m.msgs_total};
}

}  // namespace cg
