// Trial-farm runtime: work-stealing pool semantics, engine-reuse parity,
// the zero-alloc steady-state contract, and the determinism guarantee
// (farm output byte-identical for every thread count / pool shape).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/scenarios.hpp"
#include "obs/report.hpp"
#include "runtime/thread_pool.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter.  Sanitizer builds own operator new themselves
// (interceptors + annotations), so the counting overrides - and the tests
// that depend on them - compile out there; the alloc contract is pinned by
// the plain Release/Debug ctest runs.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CG_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CG_ALLOC_COUNTING 0
#endif
#endif
#ifndef CG_ALLOC_COUNTING
#define CG_ALLOC_COUNTING 1
#endif

#if CG_ALLOC_COUNTING

namespace {
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size),
                          std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size),
                          std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // CG_ALLOC_COUNTING

namespace cg {
namespace {

// --- ThreadPool semantics --------------------------------------------------

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_EQ(resolve_threads(0), resolve_threads(-3));
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(5), 5);
}

TEST(ThreadPool, ManySmallChunksCoverEveryIndexOnce) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> calls{0};
  pool.parallel_for(10000, 1,
                    [&](std::int64_t b, std::int64_t e, int /*slot*/) {
                      for (std::int64_t i = b; i < e; ++i)
                        sum.fetch_add(i, std::memory_order_relaxed);
                      calls.fetch_add(1, std::memory_order_relaxed);
                    });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
  EXPECT_EQ(calls.load(), 10000);
}

TEST(ThreadPool, ChunkBoundariesRespected) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> covered{0};
  pool.parallel_for(1000, 64,
                    [&](std::int64_t b, std::int64_t e, int /*slot*/) {
                      EXPECT_EQ(b % 64, 0);
                      EXPECT_LE(e - b, 64);
                      covered.fetch_add(e - b, std::memory_order_relaxed);
                    });
  EXPECT_EQ(covered.load(), 1000);
}

TEST(ThreadPool, NestedSubmitRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> inner{0};
  std::atomic<std::int64_t> outer{0};
  pool.parallel_for(8, 1, [&](std::int64_t b, std::int64_t e, int /*slot*/) {
    // A nested parallel_for from inside pool work must not deadlock; it
    // runs inline on the calling worker with slot 0.
    pool.parallel_for(16, 4,
                      [&](std::int64_t b2, std::int64_t e2, int slot2) {
                        EXPECT_EQ(slot2, 0);
                        inner.fetch_add(e2 - b2, std::memory_order_relaxed);
                      });
    outer.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8 * 16);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [&](std::int64_t b, std::int64_t, int) {
                          if (b == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  std::atomic<std::int64_t> n{0};
  pool.parallel_for(100, 1, [&](std::int64_t b, std::int64_t e, int) {
    n.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, ParallelismCapLimitsSlots) {
  ThreadPool pool(8);
  std::atomic<int> max_slot{0};
  pool.parallel_for(2000, 1, /*parallelism=*/2,
                    [&](std::int64_t, std::int64_t, int slot) {
                      int cur = max_slot.load(std::memory_order_relaxed);
                      while (slot > cur &&
                             !max_slot.compare_exchange_weak(cur, slot)) {
                      }
                    });
  EXPECT_LT(max_slot.load(), 2);
}

TEST(ThreadPool, TinyCountRunsInlineWithSlotZero) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(3, 8, [&](std::int64_t b, std::int64_t e, int slot) {
    EXPECT_EQ(slot, 0);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 3);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EnsureThreadsGrows) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  pool.ensure_threads(3);
  EXPECT_EQ(pool.threads(), 3);
  pool.ensure_threads(2);  // never shrinks
  EXPECT_EQ(pool.threads(), 3);
  std::atomic<std::int64_t> n{0};
  pool.parallel_for(100, 1, [&](std::int64_t b, std::int64_t e, int) {
    n.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 100);
}

// --- Determinism contract --------------------------------------------------

TrialSpec faulty_spec() {
  TrialSpec spec;
  spec.algo = Algo::kCcg;
  spec.acfg.T = 16;
  spec.n = 96;
  spec.logp = LogP::unit();
  spec.seed = 1234;
  spec.trials = 48;
  spec.jitter_max = 1;
  spec.drop_prob = 0.02;
  spec.pre_failures = 2;
  spec.online_failures = 1;
  spec.restarts = 1;
  spec.stragglers = 1;
  spec.partition_nodes = 4;
  return spec;
}

TEST(TrialFarm, ParityAcrossThreadCounts) {
  TrialSpec spec = faulty_spec();
  spec.threads = 1;
  const TrialAggregate a1 = run_trials(spec);
  spec.threads = 2;
  const TrialAggregate a2 = run_trials(spec);
  spec.threads = 8;
  const TrialAggregate a8 = run_trials(spec);

  // Byte-identical report JSON: the farm absorbs per-trial results in
  // trial order regardless of which worker ran which trial, so even the
  // FP-sensitive Welford summaries and raw sample orderings must match.
  const std::string j1 = obs::to_json(a1);
  EXPECT_EQ(j1, obs::to_json(a2));
  EXPECT_EQ(j1, obs::to_json(a8));
  EXPECT_EQ(a1.t_complete.raw(), a8.t_complete.raw());
  EXPECT_EQ(a1.t_last_colored.raw(), a8.t_last_colored.raw());
  EXPECT_EQ(a1.trials, a8.trials);
}

TEST(TrialFarm, AutoThreadsMatchesExplicit) {
  TrialSpec spec = faulty_spec();
  spec.trials = 24;
  spec.threads = 0;  // auto-detect
  const TrialAggregate aauto = run_trials(spec);
  spec.threads = 1;
  const TrialAggregate a1 = run_trials(spec);
  EXPECT_EQ(obs::to_json(aauto), obs::to_json(a1));
}

TEST(TrialFarm, CampaignParityAcrossThreadCounts) {
  CampaignConfig cfg;
  cfg.n = 48;
  cfg.logp = LogP::unit();
  cfg.seed = 77;
  cfg.trials = 12;
  AlgoConfig base;
  base.T = 14;
  const auto entries = default_entries(Algo::kCcg, base);
  auto scenarios = default_fault_scenarios();
  scenarios.resize(5);  // clean, losses, jitter, crash: enough shapes

  cfg.threads = 1;
  const CampaignResult r1 = run_campaign(cfg, scenarios, entries);
  cfg.threads = 5;
  const CampaignResult r5 = run_campaign(cfg, scenarios, entries);
  ASSERT_EQ(r1.cells.size(), r5.cells.size());
  EXPECT_EQ(obs::to_json(r1), obs::to_json(r5));
  EXPECT_EQ(r1.failed_cells, r5.failed_cells);
}

// --- Engine reuse parity ---------------------------------------------------

/// faulty_spec() on `algo`, with the reliable sublayer on or off.  Its
/// restart revives a node in place mid-run (SoaNodeStore::revive).
TrialSpec faulty_spec(Algo algo, bool reliable) {
  TrialSpec spec = faulty_spec();
  spec.algo = algo;
  if (algo == Algo::kFcg) spec.acfg.fcg_f = 1;
  spec.acfg.reliable.enabled = reliable;
  return spec;
}

TEST(TrialFarm, WorkspaceMatchesFreshEngine) {
  for (const TrialSpec& spec :
       {faulty_spec(), faulty_spec(Algo::kCcg, true),
        faulty_spec(Algo::kFcg, true)}) {
    SCOPED_TRACE(std::string(algo_name(spec.algo)) +
                 (spec.acfg.reliable.enabled ? "+rel" : ""));
    TrialWorkspace ws;
    for (int t = 0; t < 16; ++t) {
      const RunConfig rcfg = trial_run_config(spec, t);
      const RunMetrics fresh = run_once(spec.algo, spec.acfg, rcfg);
      const RunMetrics reused = ws.run(spec, t);
      EXPECT_EQ(obs::to_json(fresh), obs::to_json(reused)) << "trial " << t;
    }
  }
}

/// Runs `seq` through one workspace; each leg must match a fresh engine.
void expect_workspace_legs_match(const std::vector<TrialSpec>& seq) {
  TrialWorkspace ws;
  int t = 0;
  for (const TrialSpec& spec : seq) {
    const RunConfig rcfg = trial_run_config(spec, t);
    const RunMetrics fresh = run_once(spec.algo, spec.acfg, rcfg);
    const RunMetrics reused = ws.run(spec, t);
    EXPECT_EQ(obs::to_json(fresh), obs::to_json(reused)) << "leg " << t;
    ++t;
  }
}

TEST(TrialFarm, WorkspaceSurvivesAlgoSwitch) {
  const TrialSpec ccg = faulty_spec();
  const TrialSpec fcg = faulty_spec(Algo::kFcg, false);
  const TrialSpec ccg_rel = faulty_spec(Algo::kCcg, true);
  const TrialSpec fcg_rel = faulty_spec(Algo::kFcg, true);
  expect_workspace_legs_match({ccg, fcg, ccg, fcg, ccg});
  expect_workspace_legs_match({ccg_rel, fcg_rel, ccg_rel, fcg_rel, ccg_rel});
}

TEST(TrialFarm, WorkspaceAlternatesReliableAndPlain) {
  // The same node type serves both variants: a reused node gains, keeps
  // or drops its sublayer state as the spec asks.
  const TrialSpec ccg = faulty_spec();
  const TrialSpec fcg = faulty_spec(Algo::kFcg, false);
  const TrialSpec ccg_rel = faulty_spec(Algo::kCcg, true);
  const TrialSpec fcg_rel = faulty_spec(Algo::kFcg, true);
  expect_workspace_legs_match(
      {ccg, ccg_rel, ccg_rel, ccg, ccg_rel, fcg_rel, fcg, fcg_rel, fcg});
}

// --- Zero-alloc steady state -----------------------------------------------

#if CG_ALLOC_COUNTING

TrialSpec clean_spec() {
  TrialSpec spec;
  spec.algo = Algo::kCcg;
  spec.acfg.T = 14;
  spec.n = 128;
  spec.logp = LogP::unit();
  spec.seed = 9;
  return spec;
}

/// Heap allocations made while replaying the 32 trials `spec` already ran
/// once in the same workspace.
std::int64_t replayed_trial_allocs(const TrialSpec& spec) {
  TrialWorkspace ws;
  // Warm pass: slabs, calendar slots, and scratch vectors reach their
  // high-water capacities for these exact trials.
  for (int t = 0; t < 32; ++t) ws.run(spec, t);
  // Steady state: replaying the same trials must reuse every buffer.
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int t = 0; t < 32; ++t) ws.run(spec, t);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(TrialFarm, WorkspaceZeroAllocSteadyState) {
  EXPECT_EQ(replayed_trial_allocs(clean_spec()), 0)
      << "per-trial heap allocations regressed";
}

TEST(TrialFarm, ReliableCcgWorkspaceZeroAllocSteadyState) {
  // CcgNode::reset_for_run keeps the sublayer's State and its vectors.
  TrialSpec spec = clean_spec();
  spec.acfg.reliable.enabled = true;
  EXPECT_EQ(replayed_trial_allocs(spec), 0)
      << "per-trial CCG+rel heap allocations regressed";
}

TEST(TrialFarm, FcgWorkspaceZeroAllocSteadyState) {
  // FcgNode::reset_for_run keeps its k-arrays, its c-node list and, with
  // the sublayer on, the sublayer's buffers.
  for (const bool reliable : {false, true}) {
    TrialSpec spec = clean_spec();
    spec.algo = Algo::kFcg;
    spec.acfg.fcg_f = 1;
    spec.acfg.reliable.enabled = reliable;
    EXPECT_EQ(replayed_trial_allocs(spec), 0)
        << "per-trial FCG" << (reliable ? "+rel" : "")
        << " heap allocations regressed";
  }
}

TEST(TrialFarm, ReliableTrialBytesGrowLinearly) {
  // The sublayer holds O(peers) state per node, so a fresh CCG+rel trial
  // allocates about linearly in n: 4x the nodes, under 6x the bytes.  A
  // per-node array sized by n (n^2 entries in all) makes the ratio ~13x.
  const auto trial_bytes = [](NodeId n) {
    RunConfig cfg;
    cfg.n = n;
    cfg.logp = LogP::unit();
    cfg.seed = 17;
    cfg.burst = BurstLoss::from_rate(0.03, 4);
    AlgoConfig acfg = tune_for(Algo::kCcg, n, n, cfg.logp, 1e-4).acfg;
    acfg.reliable.enabled = true;
    const std::int64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
    const RunMetrics m = run_once(Algo::kCcg, acfg, cfg);
    EXPECT_TRUE(m.all_active_colored) << "n " << n;
    return g_alloc_bytes.load(std::memory_order_relaxed) - before;
  };
  const std::int64_t small = trial_bytes(512);
  const std::int64_t large = trial_bytes(2048);
  EXPECT_LT(large, 6 * small) << "n=512: " << small << " B, n=2048: "
                              << large << " B";
}

TEST(TrialFarm, SbrbWorkspaceZeroAllocSteadyState) {
  // SBRB rides the same contract: SbrbNode::reset_for_run() preserves the
  // capacity of its sample array and subscriber list, and its staged
  // sends are cursors over those, so replayed clean-network trials touch
  // no heap (docs/PERF.md §7).
  TrialSpec spec = clean_spec();
  spec.algo = Algo::kSbrb;
  spec.acfg.sbrb_eps = 1e-3;
  EXPECT_EQ(replayed_trial_allocs(spec), 0)
      << "per-trial SBRB heap allocations regressed";
}

TEST(TrialFarm, SbrbFreshRunAllocatesUnder3KbPerNode) {
  // A fresh SBRB run allocates its engine arrays plus, per node, the
  // sample array and the subscriber list: staged sends are cursors over
  // those, with no heap entry per message (about 8 KB per node when each
  // staged message was copied into a queue).
  RunConfig cfg;
  cfg.n = 4096;
  cfg.logp = LogP::piz_daint();
  cfg.seed = 31;
  AlgoConfig acfg;
  acfg.sbrb_eps = 1e-4;
  for (const ExecConfig exec :
       {ExecConfig{EngineKind::kStepped, 1}, ExecConfig{EngineKind::kSharded, 1}}) {
    const std::int64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
    const RunMetrics m = run_once(Algo::kSbrb, acfg, cfg, exec);
    const std::int64_t per_node =
        (g_alloc_bytes.load(std::memory_order_relaxed) - before) / cfg.n;
    EXPECT_TRUE(m.all_active_colored);
    EXPECT_LT(per_node, 3 * 1024) << engine_name(exec.engine);
  }
}

TEST(TrialFarm, FarmAllocationsAmortized) {
  // End-to-end farm: allocations must not scale per-trial beyond the
  // aggregate's own sample storage (geometric growth, a handful of
  // reallocations), no matter how many trials run.
  TrialSpec spec = clean_spec();
  spec.threads = 2;
  spec.trials = 128;
  run_trials(spec);  // warm the shared pool + result buffers
  std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  run_trials(spec);
  const std::int64_t small =
      g_allocs.load(std::memory_order_relaxed) - before;
  spec.trials = 384;
  before = g_allocs.load(std::memory_order_relaxed);
  run_trials(spec);
  const std::int64_t large =
      g_allocs.load(std::memory_order_relaxed) - before;
  // 3x the trials must cost far fewer than 1-alloc-per-extra-trial.
  EXPECT_LT(large - small, 256) << "small=" << small << " large=" << large;
}

#endif  // CG_ALLOC_COUNTING

}  // namespace
}  // namespace cg
