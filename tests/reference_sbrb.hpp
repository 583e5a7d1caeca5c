// Test-only oracle for the SBRB fast path (gossip/sbrb.hpp): SbrbRefNode,
// the stock Protocol-API implementation of the same wire protocol - linear
// membership scans, heap-allocated full-Message queues, deliberately
// naive.  The only machinery it shares with the production SbrbNode is
// sbrb_fill_sample, so a byte-identical trace is real evidence that the
// fast path's flat samples, dense counters and staged sends change
// nothing.  tests/test_sbrb_fastpath.cpp holds SbrbNode to it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "gossip/sbrb.hpp"
#include "proto/message.hpp"
#include "sim/fault/byzantine.hpp"

namespace cg {

/// Straightforward vector-based implementation, byte-for-byte trace-
/// equivalent to SbrbNode.
class SbrbRefNode {
 public:
  using Params = SbrbNode::Params;

  SbrbRefNode(const Params& p, NodeId self, NodeId n)
      : p_(p), self_(self), n_(n) {}

  template <class Ctx>
  void on_start(Ctx& ctx) {
    ctx.activate();
    draw_samples(ctx.seed());
    for (const NodeId t : echo_sample_)
      queue(bulk_, t, make_msg(Tag::kSbrbSubEcho, 0, 0));
    for (const NodeId t : ready_sample_)
      queue(bulk_, t, make_msg(Tag::kSbrbSubReady, 0, 0));
    for (const NodeId t : delivery_sample_)
      if (!contains(ready_sample_, t))
        queue(bulk_, t, make_msg(Tag::kSbrbSubReady, 0, 0));
    if (ctx.is_root()) {
      candidate_ = kTruePayload;
      ctx.mark_colored();
      ctx.deliver();
      delivered_ = true;
      if (n_ == 1) {
        ctx.complete();
        return;
      }
      queue_gossip(ctx, Step{0});
    }
  }

  template <class Ctx>
  void on_receive(Ctx& ctx, const Message& m) {
    if (m.payload != 0 && !payload_signed(m.payload)) return;
    switch (m.tag) {
      case Tag::kGossip: on_gossip(ctx, m); break;
      case Tag::kSbrbSubEcho: on_sub_echo(ctx, m.src); break;
      case Tag::kSbrbSubReady: on_sub_ready(ctx, m.src); break;
      case Tag::kSbrbEcho: on_echo(ctx, m.src, m.payload); break;
      case Tag::kSbrbReady: on_ready(ctx, m.src, m.payload); break;
      default: break;
    }
  }

  template <class Ctx>
  void on_tick(Ctx& ctx) {
    const Step now = ctx.now();
    if (now >= p_.deadline) {
      ctx.complete();
      return;
    }
    auto& q = !empty(urgent_) ? urgent_ : bulk_;
    if (empty(q)) return;
    auto [to, m] = q.items[q.head++];
    m.time = now;
    ctx.send(to, m);
  }

  bool colored() const { return candidate_ != 0; }
  bool sieve_delivered() const { return sieve_delivered_; }
  bool delivered() const { return delivered_; }
  std::uint32_t candidate() const { return candidate_; }

 private:
  struct Cand {
    std::uint32_t digest = 0;
    std::uint64_t echo_mask = 0;
    std::uint64_t ready_mask = 0;
    std::uint64_t delivery_mask = 0;
    bool ready = false;
  };
  static constexpr int kMaxCandidates = 8;

  struct SendQ {
    std::vector<std::pair<NodeId, Message>> items;
    std::size_t head = 0;
  };
  static bool empty(const SendQ& q) { return q.head >= q.items.size(); }
  static void queue(SendQ& q, NodeId to, const Message& m) {
    q.items.emplace_back(to, m);
  }

  Message make_msg(Tag tag, std::uint32_t payload, Step time) const {
    Message m;
    m.tag = tag;
    m.payload = payload;
    m.time = time;
    return m;
  }

  static bool contains(const std::vector<NodeId>& v, NodeId x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }
  /// Position of x in a sample (samples are <= 64 sorted ids; the linear
  /// scan position equals the fast path's binary-search rank).
  static int index_in(const std::vector<NodeId>& v, NodeId x) {
    const auto it = std::find(v.begin(), v.end(), x);
    return it == v.end() ? -1 : static_cast<int>(it - v.begin());
  }

  void draw_samples(std::uint64_t seed) {
    echo_sample_.resize(static_cast<std::size_t>(p_.s.e));
    sbrb_fill_sample(seed, self_, n_, 0, p_.s.e, echo_sample_.data());
    ready_sample_.resize(static_cast<std::size_t>(p_.s.r));
    sbrb_fill_sample(seed, self_, n_, 1, p_.s.r, ready_sample_.data());
    delivery_sample_.resize(static_cast<std::size_t>(p_.s.d));
    sbrb_fill_sample(seed, self_, n_, 2, p_.s.d, delivery_sample_.data());
  }

  Cand* slot_for(std::uint32_t digest) {
    for (int k = 0; k < n_cands_; ++k)
      if (cands_[k].digest == digest) return &cands_[k];
    if (n_cands_ >= kMaxCandidates) return nullptr;
    cands_[n_cands_].digest = digest;
    return &cands_[n_cands_++];
  }

  template <class Ctx>
  void queue_gossip(Ctx& ctx, Step now) {
    for (int k = 0; k < p_.s.g; ++k)
      queue(urgent_, ctx.rng().other_node(self_, n_),
            make_msg(Tag::kGossip, candidate_, now));
  }

  template <class Ctx>
  void become_colored(Ctx& ctx, std::uint32_t digest) {
    candidate_ = digest;
    ctx.mark_colored();
    queue_gossip(ctx, ctx.now());
    for (const NodeId s : echo_subs_)
      queue(urgent_, s, make_msg(Tag::kSbrbEcho, candidate_, ctx.now()));
  }

  template <class Ctx>
  void on_gossip(Ctx& ctx, const Message& m) {
    if (candidate_ != 0 || m.payload == 0) return;  // first candidate wins
    become_colored(ctx, m.payload);
  }

  template <class Ctx>
  void on_sub_echo(Ctx& ctx, NodeId src) {
    if (contains(echo_subs_, src)) return;
    echo_subs_.push_back(src);
    if (candidate_ != 0)  // late subscriber: replay our echo
      queue(urgent_, src, make_msg(Tag::kSbrbEcho, candidate_, ctx.now()));
  }

  template <class Ctx>
  void on_sub_ready(Ctx& ctx, NodeId src) {
    if (contains(ready_subs_, src)) return;
    ready_subs_.push_back(src);
    for (int k = 0; k < n_cands_; ++k)  // late subscriber: replay Readies
      if (cands_[k].ready)
        queue(urgent_, src,
              make_msg(Tag::kSbrbReady, cands_[k].digest, ctx.now()));
  }

  template <class Ctx>
  void on_echo(Ctx& ctx, NodeId src, std::uint32_t payload) {
    const int idx = index_in(echo_sample_, src);
    if (idx < 0 || payload == 0) return;  // not in our sample: no vote
    Cand* c = slot_for(payload);
    if (c == nullptr) return;
    c->echo_mask |= std::uint64_t{1} << idx;
    if (!sieve_delivered_ && payload == candidate_ &&
        std::popcount(c->echo_mask) >= p_.s.e_thresh) {
      sieve_delivered_ = true;  // Sieve consistency gate passed
      become_ready(ctx, *c);
    }
  }

  template <class Ctx>
  void become_ready(Ctx& ctx, Cand& c) {
    if (c.ready) return;
    c.ready = true;
    for (const NodeId s : ready_subs_)
      queue(urgent_, s, make_msg(Tag::kSbrbReady, c.digest, ctx.now()));
  }

  template <class Ctx>
  void on_ready(Ctx& ctx, NodeId src, std::uint32_t payload) {
    if (payload == 0) return;
    Cand* c = slot_for(payload);
    if (c == nullptr) return;
    const int ri = index_in(ready_sample_, src);
    if (ri >= 0) c->ready_mask |= std::uint64_t{1} << ri;
    const int di = index_in(delivery_sample_, src);
    if (di >= 0) c->delivery_mask |= std::uint64_t{1} << di;
    if (!c->ready && std::popcount(c->ready_mask) >= p_.s.r_thresh)
      become_ready(ctx, *c);
    if (!delivered_ && std::popcount(c->delivery_mask) >= p_.s.d_thresh) {
      delivered_ = true;
      if (candidate_ == 0) become_colored(ctx, payload);
      ctx.adopt_payload(payload);
      ctx.deliver();
    }
  }

  Params p_;
  NodeId self_;
  NodeId n_;
  std::vector<NodeId> echo_sample_;      // whose echoes we count
  std::vector<NodeId> ready_sample_;     // whose Readies feed feedback
  std::vector<NodeId> delivery_sample_;  // whose Readies trigger delivery
  std::vector<NodeId> echo_subs_;        // who counts OUR echoes
  std::vector<NodeId> ready_subs_;       // who counts OUR Readies
  Cand cands_[kMaxCandidates]{};
  int n_cands_ = 0;
  std::uint32_t candidate_ = 0;  // first payload adopted (0 = uncolored)
  bool sieve_delivered_ = false;
  bool delivered_ = false;
  SendQ urgent_;  // gossip forwards, echoes, Readies
  SendQ bulk_;    // sample subscriptions
};

}  // namespace cg
