// Uniform entry point: run one simulated broadcast of any algorithm.
#pragma once

#include <memory>
#include <string_view>

#include "common/types.hpp"
#include "gossip/reliable.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace cg {

enum class Algo : std::uint8_t {
  kGos,       ///< plain gossip
  kOcg,       ///< opportunistic corrected-gossip
  kCcg,       ///< checked corrected-gossip
  kFcg,       ///< failure-proof corrected-gossip
  kOcgChain,  ///< OCG with chained correction (paper Sec. III-B discussion)
  kBig,       ///< binomial graph (simulated baseline)
  kBfb,       ///< Buntinas restart tree (simulated baseline)
  kOpt,       ///< optimal pipelined broadcast (simulated lower bound)
  kSbrb,      ///< sample-based Byzantine reliable broadcast (gossip/sbrb.hpp)
};

const char* algo_name(Algo a);

/// Per-algorithm knobs (fields are used only by the relevant algorithm).
struct AlgoConfig {
  Step T = 0;              ///< gossip time (GOS/OCG/CCG/FCG/OCG-CHAIN)
  Step ocg_corr_sends = 0; ///< OCG: correction emissions (K_bar + margin);
                           ///< OCG-CHAIN: the K_bar used to size the horizon
  int fcg_f = 1;           ///< FCG resilience parameter
  Step fcg_sos_timeout = 0;    ///< 0 = auto
  bool fcg_sos_enabled = true;
  Step drain_extra = 0;    ///< pad the gossip drain window (OCG/CCG/FCG)
  /// Ack/retransmit hardening of correction/SOS traffic (CCG/FCG only;
  /// see gossip/reliable.hpp).  Off by default.
  ReliableParams reliable;
  /// SBRB: target per-property failure probability eps (samples scale as
  /// ln(n) + ln(1/eps)) and the Byzantine fraction the thresholds margin
  /// against.  Used only by Algo::kSbrb.
  double sbrb_eps = 1e-3;
  double sbrb_byz_frac = 0.15;
};

/// Run one trial; RunConfig supplies N, root, LogP, seed, and failures.
/// Aborts (CG_CHECK) if cg::config_error(rcfg) reports a problem - callers
/// that take user input should surface config_error() themselves first.
RunMetrics run_once(Algo algo, const AlgoConfig& acfg, const RunConfig& rcfg);

/// Which execution engine carries the run.  Both share the simulation
/// core (src/sim/core/) and produce identical metrics for the same
/// RunConfig; they differ in scheduling strategy and wall-clock profile.
enum class EngineKind : std::uint8_t {
  kStepped,   ///< serial step loop (sim/engine.hpp) - the default
  kSharded,   ///< window-sharded SoA engine (sim/sharded_engine.hpp)
};

const char* engine_name(EngineKind k);

/// Parse an engine name ("stepped", "sharded") into `out`.  Returns false
/// (leaving `out` untouched) on an unknown name - drivers share this so
/// every --engine flag accepts the same spellings and fails the same way.
bool engine_from_name(std::string_view name, EngineKind& out);

/// Comma-separated list of accepted engine names, for usage/error text.
const char* engine_names_list();

struct ExecConfig {
  EngineKind engine = EngineKind::kStepped;
  int threads = 1;  ///< kSharded: shard count (ignored by kStepped)
};

/// Run one trial on an explicitly chosen engine.
RunMetrics run_once(Algo algo, const AlgoConfig& acfg, const RunConfig& rcfg,
                    const ExecConfig& exec);

/// Reusable stepped-engine storage for bulk trials.
///
/// run_once constructs a fresh Engine per call - node slab, RNG streams,
/// calendar slots, inboxes - which dominates the cost of short trials.
/// An EngineCache keeps the last engine alive (one per node type; switching
/// algorithms rebuilds it) and re-enters it through Engine::run(cfg,
/// params), so steady-state trials reuse every allocation.  Produces
/// exactly the metrics run_once would for the same inputs.
///
/// One instance per worker thread; a single instance is not thread-safe.
class EngineCache {
 public:
  EngineCache();
  ~EngineCache();
  EngineCache(EngineCache&&) noexcept;
  EngineCache& operator=(EngineCache&&) noexcept;

  /// Stepped-engine equivalent of the free run_once (same CG_CHECK
  /// config-validation behavior).
  RunMetrics run_once(Algo algo, const AlgoConfig& acfg,
                      const RunConfig& rcfg);

  /// Type-erased holder for the cached Engine<Node> (detail).
  struct SlotBase {
    virtual ~SlotBase() = default;
  };

 private:
  std::unique_ptr<SlotBase> slot_;
};

}  // namespace cg
