#include "obs/metrics_registry.hpp"

#include "obs/json.hpp"
#include "sim/core/profile.hpp"
#include "sim/metrics.hpp"

namespace cg::obs {

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g.value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.kv("count", static_cast<std::int64_t>(h.count()));
    if (!h.empty()) {
      w.kv("mean", h.mean());
      w.kv("min", h.min());
      w.kv("max", h.max());
      w.kv("p50", h.p50());
      w.kv("p90", h.p90());
      w.kv("p99", h.p99());
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void fill_registry(MetricsRegistry& reg, const RunMetrics& m,
                   const EngineProfile* prof) {
  reg.counter("nodes.total").add(m.n_total);
  reg.counter("nodes.active").add(m.n_active);
  reg.counter("nodes.colored").add(m.n_colored);
  reg.counter("nodes.delivered").add(m.n_delivered);
  reg.counter("msgs.total").add(m.msgs_total);
  reg.counter("msgs.gossip").add(m.msgs_gossip);
  reg.counter("msgs.correction").add(m.msgs_correction);
  reg.counter("msgs.sos").add(m.msgs_sos);
  reg.counter("msgs.tree").add(m.msgs_tree);
  reg.gauge("run.inconsistency").set(m.inconsistency());
  reg.gauge("run.t_end").set(static_cast<double>(m.t_end));

  // Per-node latency distributions (available with record_node_detail).
  auto& colored = reg.histogram("node.colored_at");
  for (const Step s : m.colored_at)
    if (s != kNever) colored.observe(static_cast<double>(s));
  auto& completed = reg.histogram("node.completed_at");
  for (const Step s : m.completed_at)
    if (s != kNever) completed.observe(static_cast<double>(s));

  if (prof != nullptr) {
    reg.counter("engine.events").add(prof->events());
    reg.counter("engine.callbacks_start").add(prof->callbacks_start);
    reg.counter("engine.callbacks_receive").add(prof->callbacks_receive);
    reg.counter("engine.callbacks_tick").add(prof->callbacks_tick);
    reg.counter("engine.events_scheduled").add(prof->events_scheduled);
    reg.counter("engine.events_fired").add(prof->events_fired);
    reg.gauge("engine.queue_max_bucket").set(
        static_cast<double>(prof->queue_max_bucket));
    reg.counter("engine.steps").add(prof->steps);
    reg.gauge("engine.wall_s").set(prof->wall_s);
    reg.gauge("engine.deliver_s").set(prof->deliver_s);
    reg.gauge("engine.tick_s").set(prof->tick_s);
    reg.gauge("engine.route_s").set(prof->route_s);
    reg.gauge("engine.events_per_sec").set(prof->events_per_sec());
  }
}

}  // namespace cg::obs
