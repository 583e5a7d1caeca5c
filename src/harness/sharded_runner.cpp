// run_once on the window-sharded engine, instantiated apart from the
// stepped engine (see harness/algo_dispatch.hpp).
#include <utility>

#include "harness/algo_dispatch.hpp"
#include "sim/sharded_engine.hpp"

namespace cg::detail {
namespace {

struct ShardedRunner {
  const RunConfig& rcfg;
  int shards;

  template <class Node>
  RunMetrics run(typename Node::Params params) const {
    ShardedEngine<Node> eng(rcfg, std::move(params), shards);
    return eng.run();
  }
};

}  // namespace

RunMetrics run_once_sharded(Algo algo, const AlgoConfig& acfg,
                            const RunConfig& rcfg, int shards) {
  return dispatch_algo(ShardedRunner{rcfg, shards}, algo, acfg, rcfg);
}

}  // namespace cg::detail
