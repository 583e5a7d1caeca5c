#include "harness/runner.hpp"

#include <optional>
#include <string>

#include "common/check.hpp"
#include "harness/algo_dispatch.hpp"
#include "sim/fault/validate.hpp"

namespace cg {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kGos: return "GOS";
    case Algo::kOcg: return "OCG";
    case Algo::kCcg: return "CCG";
    case Algo::kFcg: return "FCG";
    case Algo::kOcgChain: return "OCG-CHAIN";
    case Algo::kBig: return "BIG";
    case Algo::kBfb: return "BFB";
    case Algo::kOpt: return "opt";
    case Algo::kSbrb: return "SBRB";
  }
  return "?";
}

const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::kStepped: return "stepped";
    case EngineKind::kSharded: return "sharded";
  }
  return "?";
}

bool engine_from_name(std::string_view name, EngineKind& out) {
  for (EngineKind k : {EngineKind::kStepped, EngineKind::kSharded}) {
    if (name == engine_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* engine_names_list() { return "stepped, sharded"; }

namespace {

struct SteppedRunner {
  const RunConfig& rcfg;

  template <class Node>
  RunMetrics run(typename Node::Params params) const {
    Engine<Node> eng(rcfg, std::move(params));
    return eng.run();
  }
};

void check_config(const RunConfig& rcfg) {
  const std::string cfg_err = config_error(rcfg);
  CG_CHECK_MSG(cfg_err.empty(), cfg_err.c_str());
}

}  // namespace

RunMetrics run_once(Algo algo, const AlgoConfig& acfg, const RunConfig& rcfg,
                    const ExecConfig& exec) {
  check_config(rcfg);
  switch (exec.engine) {
    case EngineKind::kStepped:
      return detail::dispatch_algo(SteppedRunner{rcfg}, algo, acfg, rcfg);
    case EngineKind::kSharded:
      return detail::run_once_sharded(algo, acfg, rcfg, exec.threads);
  }
  CG_CHECK_MSG(false, "unknown engine");
  return {};
}

RunMetrics run_once(Algo algo, const AlgoConfig& acfg, const RunConfig& rcfg) {
  return run_once(algo, acfg, rcfg, ExecConfig{});
}

// ---------------------------------------------------------------------------
// EngineCache
// ---------------------------------------------------------------------------

namespace {

template <class Node>
struct EngineSlot final : EngineCache::SlotBase {
  // optional: Engine has no default construction; emplaced on first use.
  std::optional<Engine<Node>> eng;
};

struct CachedEngineRunner {
  std::unique_ptr<EngineCache::SlotBase>& slot;
  const RunConfig& rcfg;

  template <class Node>
  RunMetrics run(typename Node::Params params) const {
    auto* s = dynamic_cast<EngineSlot<Node>*>(slot.get());
    if (s == nullptr) {  // first use, or the cached node type changed
      auto fresh = std::make_unique<EngineSlot<Node>>();
      s = fresh.get();
      slot = std::move(fresh);
    }
    if (!s->eng) {
      s->eng.emplace(rcfg, std::move(params));
      return s->eng->run();
    }
    return s->eng->run(rcfg, params);
  }
};

}  // namespace

EngineCache::EngineCache() = default;
EngineCache::~EngineCache() = default;
EngineCache::EngineCache(EngineCache&&) noexcept = default;
EngineCache& EngineCache::operator=(EngineCache&&) noexcept = default;

RunMetrics EngineCache::run_once(Algo algo, const AlgoConfig& acfg,
                                 const RunConfig& rcfg) {
  check_config(rcfg);
  return detail::dispatch_algo(CachedEngineRunner{slot_, rcfg}, algo, acfg,
                               rcfg);
}

}  // namespace cg
