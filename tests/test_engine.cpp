// Engine-mechanics tests using purpose-built probe protocols: delivery
// timing, activation rules, failure handling, rx policies, termination,
// and trace recording; plus the two pieces both engines share, the
// calendar record (a received message is the sent one) and the node
// store's bitmaps, which cross-engine parity cannot check.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>

#include "gossip/ccg.hpp"
#include "gossip/sbrb.hpp"
#include "sim/core/soa_store.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace cg {
namespace {

/// Root sends one gossip message to node `target` on its first tick;
/// every node records when callbacks fire.
struct ProbeNode {
  struct Params {
    NodeId target = 1;
    std::shared_ptr<std::vector<Step>> recv_at;  // per node
    std::shared_ptr<std::vector<Step>> first_tick_at;
  };

  ProbeNode(const Params& p, NodeId self, NodeId) : p_(p), self_(self) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (ctx.is_root()) ctx.mark_colored();
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message&) {
    (*p_.recv_at)[static_cast<std::size_t>(self_)] = ctx.now();
    ctx.mark_colored();
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    auto& first = (*p_.first_tick_at)[static_cast<std::size_t>(self_)];
    if (first == kNever) first = ctx.now();
    if (ctx.is_root() && !sent_) {
      sent_ = true;
      Message m;
      m.tag = Tag::kGossip;
      ctx.send(p_.target, m);
      return;
    }
    ctx.complete();
  }

  Params p_;
  NodeId self_;
  bool sent_ = false;
};

ProbeNode::Params make_probe(NodeId n, NodeId target = 1) {
  ProbeNode::Params p;
  p.target = target;
  p.recv_at = std::make_shared<std::vector<Step>>(n, kNever);
  p.first_tick_at = std::make_shared<std::vector<Step>>(n, kNever);
  return p;
}

RunConfig cfg_n(NodeId n, Step l_over_o = 1) {
  RunConfig cfg;
  cfg.n = n;
  cfg.logp = LogP{.l_over_o = l_over_o, .o_us = 1.0};
  cfg.seed = 3;
  return cfg;
}

TEST(Engine, DeliveryDelayIsLOverOPlusOne) {
  for (const Step lo : {0, 1, 2, 5}) {
    auto params = make_probe(4);
    Engine<ProbeNode> eng(cfg_n(4, lo), params);
    eng.run();
    // Root's first tick is step 1 (activated at 0); message emitted at 1.
    EXPECT_EQ((*params.first_tick_at)[0], 1);
    EXPECT_EQ((*params.recv_at)[1], 1 + lo + 1) << "l_over_o=" << lo;
  }
}

TEST(Engine, ReceiverFirstTickIsAfterReceiveStep) {
  auto params = make_probe(4);
  Engine<ProbeNode> eng(cfg_n(4), params);
  eng.run();
  // Node 1 received at step 3 (L/O=1); its receive occupies that step, so
  // its first tick is step 4.
  EXPECT_EQ((*params.recv_at)[1], 3);
  EXPECT_EQ((*params.first_tick_at)[1], 4);
}

TEST(Engine, IdleNodesNeverTick) {
  auto params = make_probe(4);
  Engine<ProbeNode> eng(cfg_n(4), params);
  eng.run();
  EXPECT_EQ((*params.first_tick_at)[2], kNever);
  EXPECT_EQ((*params.first_tick_at)[3], kNever);
}

TEST(Engine, MessagesToFailedNodesAreDropped) {
  auto params = make_probe(4, 2);
  RunConfig cfg = cfg_n(4);
  cfg.failures.online.push_back({2, 2});  // dies before arrival at step 3
  Engine<ProbeNode> eng(cfg, params);
  const RunMetrics m = eng.run();
  EXPECT_EQ((*params.recv_at)[2], kNever);
  EXPECT_EQ(m.n_active, 3);
  EXPECT_EQ(m.msgs_total, 1);
  EXPECT_FALSE(m.hit_max_steps);
}

TEST(Engine, PreFailedNodesAreInactive) {
  auto params = make_probe(4, 2);
  RunConfig cfg = cfg_n(4);
  cfg.failures.pre_failed = {2, 3};
  Engine<ProbeNode> eng(cfg, params);
  const RunMetrics m = eng.run();
  EXPECT_EQ(m.n_active, 2);
  EXPECT_EQ((*params.recv_at)[2], kNever);
}

TEST(Engine, MetricsCountMessagesByTag) {
  auto params = make_probe(4);
  Engine<ProbeNode> eng(cfg_n(4), params);
  const RunMetrics m = eng.run();
  EXPECT_EQ(m.msgs_total, 1);
  EXPECT_EQ(m.msgs_gossip, 1);
  EXPECT_EQ(m.msgs_correction, 0);
  EXPECT_EQ(m.msgs_sos, 0);
}

TEST(Engine, ColoredAndCompletionTimesRecorded) {
  auto params = make_probe(4);
  RunConfig cfg = cfg_n(4);
  cfg.record_node_detail = true;
  Engine<ProbeNode> eng(cfg, params);
  const RunMetrics m = eng.run();
  ASSERT_EQ(m.colored_at.size(), 4u);
  EXPECT_EQ(m.colored_at[0], 0);  // root at step 0
  EXPECT_EQ(m.colored_at[1], 3);
  EXPECT_EQ(m.colored_at[2], kNever);
  EXPECT_EQ(m.t_last_colored_partial, 3);
  // Not all nodes colored -> strict t_last_colored undefined.
  EXPECT_EQ(m.t_last_colored, kNever);
  EXPECT_FALSE(m.all_active_colored);
}

TEST(Engine, TraceRecordsSendDeliverColor) {
  auto params = make_probe(3);
  VectorTrace trace;
  RunConfig cfg = cfg_n(3);
  cfg.trace = &trace;
  Engine<ProbeNode> eng(cfg, params);
  eng.run();
  bool saw_send = false, saw_deliver = false, saw_colored = false;
  for (const auto& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::kSend && ev.node == 0 && ev.peer == 1 &&
        ev.step == 1)
      saw_send = true;
    if (ev.kind == TraceEvent::Kind::kDeliver && ev.node == 1 && ev.step == 3)
      saw_deliver = true;
    if (ev.kind == TraceEvent::Kind::kColored && ev.node == 1)
      saw_colored = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_colored);
  EXPECT_FALSE(trace.to_string().empty());
}

/// Spams `count` messages from root to node 1, one per tick, to observe the
/// rx policy.
struct SpamNode {
  struct Params {
    int count = 3;
    std::shared_ptr<std::vector<Step>> recv_steps;  // appended at node 1
  };
  SpamNode(const Params& p, NodeId self, NodeId) : p_(p), self_(self) {}
  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (ctx.is_root()) ctx.mark_colored();
  }
  template <class Ctx>
  void on_receive(Ctx& ctx, const Message&) {
    p_.recv_steps->push_back(ctx.now());
    ctx.mark_colored();
    ++received_;
  }
  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if (ctx.is_root()) {
      if (sent_ < p_.count) {
        Message m;
        m.tag = Tag::kGossip;
        ctx.send(1, m);
        ++sent_;
        return;
      }
      ctx.complete();
      return;
    }
    if (received_ >= p_.count) ctx.complete();  // stay alive for the burst
  }
  Params p_;
  NodeId self_;
  int sent_ = 0;
  int received_ = 0;
};

TEST(Engine, DrainAllDeliversBackToBackArrivalsSameStep) {
  SpamNode::Params p;
  p.count = 3;
  p.recv_steps = std::make_shared<std::vector<Step>>();
  RunConfig cfg = cfg_n(2);
  cfg.rx = RxPolicy::kDrainAll;
  Engine<SpamNode> eng(cfg, p);
  eng.run();
  // Emissions at steps 1,2,3 -> arrivals at 3,4,5 (one per step here since
  // the sender is rate-limited; each processed at its arrival step).
  EXPECT_EQ(*p.recv_steps, (std::vector<Step>{3, 4, 5}));
}

/// Two senders target node 2 in the same step (rx-policy probe).
struct TwinSpam {
  struct Params {
    std::shared_ptr<std::vector<Step>> recv_steps;
  };
  TwinSpam(const Params& p, NodeId self, NodeId) : p_(p), self_(self) {}
  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (self_ == 0 || self_ == 1) {
      ctx.activate();
      ctx.mark_colored();
    }
  }
  template <class Ctx>
  void on_receive(Ctx& ctx, const Message&) {
    p_.recv_steps->push_back(ctx.now());
    ctx.mark_colored();
  }
  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if ((self_ == 0 || self_ == 1) && !sent_) {
      sent_ = true;
      Message m;
      m.tag = Tag::kGossip;
      ctx.send(2, m);
      return;
    }
    ctx.complete();
  }
  Params p_;
  NodeId self_;
  bool sent_ = false;
};

TEST(Engine, OnePerStepSerializesBurstArrivals) {
  // kOnePerStep must process the second same-step arrival one step later.
  for (const auto policy : {RxPolicy::kDrainAll, RxPolicy::kOnePerStep}) {
    typename TwinSpam::Params p;
    p.recv_steps = std::make_shared<std::vector<Step>>();
    RunConfig cfg = cfg_n(3);
    cfg.rx = policy;
    Engine<TwinSpam> eng(cfg, p);
    eng.run();
    ASSERT_EQ(p.recv_steps->size(), 2u);
    if (policy == RxPolicy::kDrainAll) {
      EXPECT_EQ((*p.recv_steps)[0], 3);
      EXPECT_EQ((*p.recv_steps)[1], 3);
    } else {
      EXPECT_EQ((*p.recv_steps)[0], 3);
      EXPECT_EQ((*p.recv_steps)[1], 4);  // deferred by receive overhead
    }
  }
}

/// A protocol that never completes (max_steps probe).
struct Forever {
  struct Params {};
  Forever(const Params&, NodeId, NodeId) {}
  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (ctx.is_root()) ctx.mark_colored();
  }
  template <class Ctx>
  void on_receive(Ctx&, const Message&) {}
  template <class Ctx>
  void on_tick(Ctx&) {}  // never completes
};

TEST(Engine, MaxStepsStopsRunawayRuns) {
  RunConfig cfg = cfg_n(2);
  cfg.max_steps = 50;
  Engine<Forever> eng(cfg, {});
  const RunMetrics m = eng.run();
  EXPECT_TRUE(m.hit_max_steps);
  EXPECT_EQ(m.t_end, 50);
}

TEST(Engine, StopsWhenNoActivityRemains) {
  auto params = make_probe(4);
  Engine<ProbeNode> eng(cfg_n(4), params);
  const RunMetrics m = eng.run();
  EXPECT_FALSE(m.hit_max_steps);
  EXPECT_LT(m.t_end, 10);  // promptly, not at max_steps
}

/// The root sends one message per tick, each to its own receiver, with
/// every Message field set; receivers record what arrived.
struct FieldProbe {
  struct Params {
    std::shared_ptr<const std::vector<std::pair<NodeId, Message>>> sends;
    std::shared_ptr<std::vector<Message>> got;  // per node
    std::shared_ptr<std::vector<int>> got_count;
  };

  FieldProbe(const Params& p, NodeId self, NodeId) : p_(p), self_(self) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    if (ctx.is_root()) ctx.mark_colored();
  }

  template <class Ctx>
  void on_receive(Ctx&, const Message& m) {
    // Per-node slots: each is written only by the receiver's own shard.
    (*p_.got)[static_cast<std::size_t>(self_)] = m;
    ++(*p_.got_count)[static_cast<std::size_t>(self_)];
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    if (ctx.is_root() && next_ < p_.sends->size()) {
      const auto& [to, m] = (*p_.sends)[next_++];
      ctx.send(to, m);
      return;
    }
    ctx.complete();
  }

  Params p_;
  NodeId self_;
  std::size_t next_ = 0;
};

/// Every tag crossed with every known_count in 0..kMaxKnownF+1 (13 x 9
/// messages, one receiver each), with retrans, payload and a time past 32
/// bits varying too.  src is left unset: the engine stamps it.
std::vector<std::pair<NodeId, Message>> field_probe_sends() {
  std::vector<std::pair<NodeId, Message>> out;
  const int count = kTagCount * (kMaxKnownF + 2);
  for (int k = 0; k < count; ++k) {
    Message m;
    m.tag = static_cast<Tag>(k % kTagCount);
    m.known_count = static_cast<std::uint8_t>(k % (kMaxKnownF + 2));
    for (int j = 0; j < m.known_count; ++j)
      m.known[static_cast<std::size_t>(j)] = 1000 * k + j + 1;
    m.retrans = static_cast<std::uint8_t>(k % 3);
    m.payload = 0x5000u + static_cast<std::uint32_t>(k);
    m.time = (Step{1} << 40) + 7 * k;
    out.push_back({static_cast<NodeId>(k + 1), m});
  }
  return out;
}

FieldProbe::Params make_field_probe(NodeId n) {
  FieldProbe::Params p;
  p.sends = std::make_shared<const std::vector<std::pair<NodeId, Message>>>(
      field_probe_sends());
  p.got = std::make_shared<std::vector<Message>>(static_cast<std::size_t>(n));
  p.got_count =
      std::make_shared<std::vector<int>>(static_cast<std::size_t>(n), 0);
  return p;
}

void expect_received_as_sent(const FieldProbe::Params& p,
                             const std::string& label) {
  for (const auto& [to, sent] : *p.sends) {
    const auto idx = static_cast<std::size_t>(to);
    ASSERT_EQ((*p.got_count)[idx], 1) << label << " receiver " << to;
    const Message& m = (*p.got)[idx];
    EXPECT_EQ(m.src, 0) << label << " receiver " << to;
    EXPECT_EQ(m.tag, sent.tag) << label << " receiver " << to;
    EXPECT_EQ(m.known_count, sent.known_count) << label << " receiver " << to;
    EXPECT_EQ(m.retrans, sent.retrans) << label << " receiver " << to;
    EXPECT_EQ(m.payload, sent.payload) << label << " receiver " << to;
    EXPECT_EQ(m.time, sent.time) << label << " receiver " << to;
    EXPECT_EQ(m.known, sent.known) << label << " receiver " << to;
  }
}

TEST(Engine, ReceiveSeesTheSentMessage) {
  // 118 nodes: at K = 2 the second shard owns receivers 64..117, so half
  // the messages cross the shard boundary (outbox records, side-array
  // known ids appended into the destination slot).
  const auto n = static_cast<NodeId>(field_probe_sends().size()) + 1;
  for (const RxPolicy rx : {RxPolicy::kDrainAll, RxPolicy::kOnePerStep}) {
    RunConfig cfg = cfg_n(n, 2);
    cfg.rx = rx;
    const std::string policy = rx == RxPolicy::kDrainAll ? "drain" : "one";
    {
      const auto p = make_field_probe(n);
      Engine<FieldProbe> eng(cfg, p);
      EXPECT_FALSE(eng.run().hit_max_steps);
      expect_received_as_sent(p, "stepped rx=" + policy);
    }
    for (const int shards : {1, 2}) {
      const auto p = make_field_probe(n);
      ShardedEngine<FieldProbe> eng(cfg, p, shards);
      EXPECT_FALSE(eng.run().hit_max_steps);
      expect_received_as_sent(
          p, "sharded/" + std::to_string(shards) + " rx=" + policy);
    }
  }
}

struct PlainNode {
  struct Params {};
  PlainNode(const Params&, NodeId, NodeId) {}
};

void expect_bitmaps_mirror(const SoaNodeStore<PlainNode>& store,
                           std::uint64_t seed, int op) {
  NodeId active = 0;
  for (NodeId i = 0; i < store.n(); ++i) {
    const bool is_active = store.state(i) == NodeRunState::kActive;
    ASSERT_EQ(store.active_bits().test(i), is_active)
        << "seed " << seed << " op " << op << " node " << i;
    active += is_active ? 1 : 0;
  }
  EXPECT_EQ(store.active_bits().count_in(0, store.n()), active);
}

TEST(SoaNodeStore, FootprintCountsEveryLifecycleArray) {
  // bytes_per_node must count every per-node array: what is left after the
  // slab, the RNG streams and the bitmaps is exactly the lifecycle store.
  for (const NodeId n : {1, 64, 1000}) {
    SoaNodeStore<PlainNode> store;
    store.reset(n, 7, {});
    const auto sz = static_cast<std::size_t>(n);
    const std::size_t rest = store.footprint_bytes() -
                             sz * (sizeof(PlainNode) + sizeof(Xoshiro256)) -
                             store.active_bits().footprint_bytes() -
                             store.sbrb_pending_bits().footprint_bytes();
    EXPECT_EQ(rest, store.life().footprint_bytes()) << "n " << n;
  }
}

template <class Node>
void expect_line_aligned_slab(NodeId n, const typename Node::Params& p) {
  SoaNodeStore<Node> store;
  store.reset(n, 7, p);
  for (NodeId i = 0; i < n; ++i)
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(&store.node(i)) % 64, 0u)
        << "n " << n << " node " << i;
}

TEST(SoaNodeStore, HotNodesStartOnACacheLine) {
  // Each receive or tick then touches whole lines of its node, on both
  // allocation paths: the std::allocator path (n = 4,096: 256 KiB of
  // CcgNode, 768 KiB of SbrbNode) and the huge-page mapping (n = 65,536).
  SbrbNode::Params sp;
  for (const NodeId n : {4096, 65536}) {
    sp.s = sbrb_samples(n, 1e-4, 0.1);
    expect_line_aligned_slab<CcgNode>(n, {});
    expect_line_aligned_slab<SbrbNode>(n, sp);
  }
}

TEST(SoaNodeStore, BitmapsMirrorLifecycleUnderRandomTransitions) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    std::mt19937_64 rng(seed);
    const auto n = static_cast<NodeId>(1 + rng() % 300);
    std::uniform_int_distribution<NodeId> node(0, n - 1);
    std::uniform_int_distribution<int> kind(0, 4);
    SoaNodeStore<PlainNode> store;
    for (int rerun = 0; rerun < 2; ++rerun) {
      store.reset(n, seed, {});
      expect_bitmaps_mirror(store, seed, -1);
      // Engines pre-fail before the run starts; the rest may interleave.
      for (NodeId i = 0; i < n; ++i)
        if (rng() % 10 == 0) store.pre_fail(i);
      for (int op = 0; op < 3000; ++op) {
        const NodeId i = node(rng);
        switch (kind(rng)) {
          case 0: store.activate(i, op); break;
          case 1: store.complete(i, op); break;
          case 2: store.kill(i); break;
          case 3: store.revive(i, {}); break;
          default: store.mark_colored(i, op); break;
        }
        if (op % 101 == 0) expect_bitmaps_mirror(store, seed, op);
      }
      expect_bitmaps_mirror(store, seed, 3000);
    }
  }
}

}  // namespace
}  // namespace cg
