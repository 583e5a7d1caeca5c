// google-benchmark microbenchmarks: simulator throughput and the cost of
// the analytic tuning pipeline (the "model-driven tuning is cheap" claim).
#include <benchmark/benchmark.h>

#include "analysis/chain.hpp"
#include "analysis/coloring.hpp"
#include "analysis/fcg_bound.hpp"
#include "analysis/tuning.hpp"
#include "common/rng.hpp"
#include "gossip/ccg.hpp"
#include "gossip/fcg.hpp"
#include "gossip/sbrb.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "obs/telemetry.hpp"
#include "sim/sharded_engine.hpp"

namespace cg {
namespace {

void BM_Rng(benchmark::State& state) {
  Xoshiro256 g(1);
  for (auto _ : state) benchmark::DoNotOptimize(g.other_node(0, 4096));
}
BENCHMARK(BM_Rng);

void BM_GosRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    AlgoConfig acfg;
    acfg.T = 30;
    benchmark::DoNotOptimize(run_once(Algo::kGos, acfg, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GosRun)->Arg(1024)->Arg(4096);

void BM_CcgRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    AlgoConfig acfg;
    acfg.T = 30;
    benchmark::DoNotOptimize(run_once(Algo::kCcg, acfg, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CcgRun)->Arg(1024)->Arg(4096);

void BM_FcgRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    AlgoConfig acfg;
    acfg.T = 30;
    acfg.fcg_f = 1;
    benchmark::DoNotOptimize(run_once(Algo::kFcg, acfg, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FcgRun)->Arg(1024)->Arg(4096);

// Engine-layer throughput probes (BENCH_engine.json): the same CCG workload
// through each execution engine, items/sec = simulated node-steps/sec.
void BM_EngineSerial(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    CcgNode::Params p;
    p.T = 30;
    Engine<CcgNode> eng(cfg, p);
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSerial)->Arg(1024)->Arg(4096);

// SBRB (sample-based Byzantine reliable broadcast) through the serial
// engine, tuned for eps = 1e-4 against a 10% adversary.  Every node runs
// echo/ready/delivery quorums over its samples, so this is far chattier
// than CCG by design - the number tracks the cost of the Byzantine
// defense, not a regression against BM_EngineSerial.
void BM_EngineSbrb(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  SbrbNode::Params p;
  p.s = sbrb_samples(n, 1e-4, 0.1);
  p.deadline = sbrb_deadline(p.s, LogP::piz_daint());
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    Engine<SbrbNode> eng(cfg, p);
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSbrb)->Arg(1024)->Arg(4096);

// SBRB on the window-sharded SoA engine: the staged-send step kernel
// sweeps the pending-sends bitmap instead of ticking every active node,
// which is what makes the 65536-node runs feasible (docs/PERF.md §7).
void BM_EngineSbrbSharded(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto shards = static_cast<int>(state.range(1));
  std::uint64_t seed = 1;
  SbrbNode::Params p;
  p.s = sbrb_samples(n, 1e-4, 0.1);
  p.deadline = sbrb_deadline(p.s, LogP::piz_daint());
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    ShardedEngine<SbrbNode> eng(cfg, p, shards);
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSbrbSharded)->Args({4096, 1})->Args({4096, 8});

// The window-sharded SoA engine, same CCG workload, at bench scale and at
// the scales it exists for ({65536, 1M} nodes x {1, 8} shards).  The big
// arguments run ONE iteration per repetition by design - a 1M-node run is
// seconds, not microseconds; use --benchmark_min_time=1x when eyeballing.
void BM_EngineSharded(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto shards = static_cast<int>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    CcgNode::Params p;
    p.T = 30;
    ShardedEngine<CcgNode> eng(cfg, p, shards);
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSharded)
    ->Args({4096, 1})
    ->Args({4096, 8})
    ->Args({65536, 1})
    ->Args({65536, 8})
    ->Args({1048576, 1})
    ->Args({1048576, 8})
    ->Unit(benchmark::kMillisecond);

// Telemetry overhead probe: BM_EngineSharded with a Telemetry registry
// attached.  The PR 2 observability contract caps the regression vs the
// plain run at 5% (compare_bench.py --overhead gates it in bench-smoke;
// the measured numbers live in BENCH_engine.json).
void BM_EngineShardedTelemetry(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto shards = static_cast<int>(state.range(1));
  std::uint64_t seed = 1;
  Telemetry telemetry;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    cfg.telemetry = &telemetry;
    CcgNode::Params p;
    p.T = 30;
    ShardedEngine<CcgNode> eng(cfg, p, shards);
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineShardedTelemetry)
    ->Args({4096, 1})
    ->Args({1048576, 1})
    ->Unit(benchmark::kMillisecond);

// The 65536-node cross-engine comparison points BENCH_engine.json cites
// (serial/SBRB at the sharded engine's home scale).  Excluded from
// the bench-smoke filter - these are ms-per-run data points, not gates.
BENCHMARK(BM_EngineSerial)->Arg(65536)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineSbrb)->Arg(65536)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineSbrbSharded)
    ->Args({65536, 1})
    ->Args({65536, 8})
    ->Unit(benchmark::kMillisecond);

// Trial-farm throughput: run_trials() end to end (pool scheduling, engine
// reuse, deterministic reduction included), items/sec = trials/sec.  The
// seed advances every iteration so engine reuse cannot cache results, and
// the aggregate mean is consumed so the work is not dead.  NOTE on the
// thread sweep: the caller participates as worker 0, so on a 1-core box
// items/sec stays roughly flat across thread counts instead of showing
// fictitious speedups (see docs/PERF.md §5 for the accounting argument).
void BM_TrialFarm(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  constexpr int kTrials = 512;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    TrialSpec spec;
    spec.algo = Algo::kCcg;
    spec.acfg.T = 22;
    spec.n = 256;
    spec.logp = LogP::piz_daint();
    spec.trials = kTrials;
    spec.threads = threads;
    spec.seed = seed++;
    const TrialAggregate agg = run_trials(spec);
    benchmark::DoNotOptimize(agg.work.mean());
  }
  state.SetItemsProcessed(state.iterations() * kTrials);
}
BENCHMARK(BM_TrialFarm)->Arg(1)->Arg(4)->Arg(8);

// Self-profiling probes: the serial workload with an EngineProfile attached
// (RunConfig::profile).  Reports the engine's own callbacks/sec counter so
// BENCH_engine.json can track event throughput, and lets an A/B against
// BM_EngineSerial measure the cost of profiling itself.
void BM_EngineSerialProfiled(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  std::int64_t events = 0;
  double wall = 0;
  for (auto _ : state) {
    EngineProfile prof;
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::piz_daint();
    cfg.seed = seed++;
    cfg.profile = &prof;
    CcgNode::Params p;
    p.T = 30;
    Engine<CcgNode> eng(cfg, p);
    benchmark::DoNotOptimize(eng.run());
    events += prof.events();
    wall += prof.wall_s;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["engine_events_per_sec"] =
      wall > 0 ? static_cast<double>(events) / wall : 0;
}
BENCHMARK(BM_EngineSerialProfiled)->Arg(4096);

void BM_ExpectedColored(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        expected_colored(4096, 4096, 40, LogP::piz_daint(), 44));
}
BENCHMARK(BM_ExpectedColored);

void BM_ChainDist(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(chain_k_bar(4096, 4050.0, 1e-6));
}
BENCHMARK(BM_ChainDist);

// One full T scan at the paper's eps on Piz Daint; items = nodes tuned.
// The scans cost in proportion to the chain distributions' support, not
// to N (docs/PERF.md, "Tuning cost"), so the 1M-node point runs in well
// under a second.
void BM_TuneOcg(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(tune_ocg(n, n, LogP::piz_daint(), 6.93e-7));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TuneOcg)->Arg(4096)->Arg(65536)->Unit(benchmark::kMillisecond);

void BM_TuneCcg(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(tune_ccg(n, n, LogP::piz_daint(), 6.93e-7));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TuneCcg)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_TuneFcg(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(tune_fcg(n, n, LogP::piz_daint(), 6.93e-7, 1));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TuneFcg)->Arg(4096)->Arg(65536)->Unit(benchmark::kMillisecond);

void BM_KnownGNodesInsert(benchmark::State& state) {
  Xoshiro256 g(3);
  for (auto _ : state) {
    KnownGNodes k(Ring(4096), 0, Dir::kFwd, 4);
    for (int i = 0; i < 32; ++i)
      k.insert(static_cast<NodeId>(g.bounded(4095) + 1));
    benchmark::DoNotOptimize(k.size());
  }
}
BENCHMARK(BM_KnownGNodesInsert);

}  // namespace
}  // namespace cg

BENCHMARK_MAIN();
