// Compact delivery-calendar records and canonical slot ordering for the
// window-sharded engine (sim/sharded_engine.hpp).
//
// The record.  A calendar entry is a Message plus its emission step and
// destination.  The Message is 56 bytes, 32 of them the known[] id array
// that only FCG, BFB and opt ever fill, so storing it inline would make
// every entry 72 bytes (a cross-shard boundary entry 80) for every
// protocol.  CalRecord keeps the emission step, the destination and every
// other Message field (tag, known_count, retrans, src, payload, time) in
// 32 bytes.  A message's known ids (known_count > 0) move to a side array
// owned by the same slot or outbox, which the record indexes by
// `known_at`; records move freely (merging permutes them) while the side
// array stays put.  Unpacking rebuilds a Message equal to the sent one in
// every field a receiver can observe: ids past known_count are not
// carried - known_nodes() and rx_order_before() never read them - and
// come back zero.
//
// The emission step is narrowed to its low 32 bits.  A slot only holds
// entries due at one step, all emitted within the previous max_delay
// steps, so serial-number comparison of the low words (int32(a - b) < 0)
// orders them exactly as long as max_delay < 2^31; the engine checks
// that at setup (kMaxRecordDelay).
//
// Slot ordering.  Dispatch order is canonical (sent_at, src), a unique
// key since the SendGate admits one emission per node per step.  A due
// slot is a concatenation of runs that are already in that order: the
// owning shard's own sends in program order (ascending step, node-
// ascending tick sweeps), then each phase-B boundary append - itself a
// subsequence of another shard's program order - and so on for every
// window that sent into the slot.  SlotMerger::order() finds the natural
// runs in one scan and merges them pairwise through a per-shard scratch
// buffer: O(n) for the common two- or three-run slot, O(n log r) for r
// runs.  A run that is itself out of order (e.g. sends issued from
// receive handlers in delivery order) just splits into more natural runs.
// The keys are unique, so the result is THE sorted order, independent of
// how and when entries were inserted: that is what keeps traces
// byte-identical across shard counts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "proto/message.hpp"

namespace cg {

/// One scheduled delivery.  32 bytes; see the file comment.
struct CalRecord {
  std::uint32_t sent;      ///< emission step, low 32 bits
  NodeId to;               ///< destination
  NodeId src;
  std::uint32_t payload;
  Step time;
  std::uint32_t known_at;  ///< first known id in the side array
  Tag tag;
  std::uint8_t known_count;
  std::uint8_t retrans;
};
static_assert(sizeof(CalRecord) == 32);

/// A cross-shard delivery in a shard's outbox: the record plus its
/// absolute delivery step.  `rec.known_at` indexes the outbox's side array.
struct BoundaryRecord {
  Step at;
  CalRecord rec;
};
static_assert(sizeof(BoundaryRecord) == 40);

/// Largest max_delay the 32-bit emission step orders correctly.
inline constexpr Step kMaxRecordDelay =
    std::numeric_limits<std::int32_t>::max();

/// Append `count` known ids to a side array; returns their index.
inline std::uint32_t append_known(std::vector<NodeId>& known,
                                  const NodeId* ids, std::size_t count) {
  CG_CHECK_MSG(known.size() <= std::numeric_limits<std::uint32_t>::max() -
                                   static_cast<std::size_t>(kMaxKnownF + 1),
               "calendar side array exceeds its 32-bit index");
  const auto at = static_cast<std::uint32_t>(known.size());
  known.insert(known.end(), ids, ids + count);
  return at;
}

/// Pack message `m` (emitted at `sent_at`, addressed to `to`), appending
/// its known ids to `known`.
inline CalRecord pack_record(Step sent_at, NodeId to, const Message& m,
                             std::vector<NodeId>& known) {
  CalRecord r;
  r.sent = static_cast<std::uint32_t>(sent_at);
  r.to = to;
  r.src = m.src;
  r.payload = m.payload;
  r.time = m.time;
  r.known_at = 0;
  r.tag = m.tag;
  r.known_count = m.known_count;
  r.retrans = m.retrans;
  if (m.known_count != 0) {
    CG_CHECK(m.known_count <= m.known.size());
    r.known_at = append_known(known, m.known.data(), m.known_count);
  }
  return r;
}

/// Rebuild the Message packed into `r`; `known` is the side array `r`
/// indexes.
inline Message unpack_record(const CalRecord& r, const NodeId* known) {
  Message m;
  m.tag = r.tag;
  m.known_count = r.known_count;
  m.retrans = r.retrans;
  m.src = r.src;
  m.payload = r.payload;
  m.time = r.time;
  for (std::uint8_t i = 0; i < r.known_count; ++i)
    m.known[i] = known[r.known_at + i];
  return m;
}

/// Canonical dispatch order: emission step (serial-number comparison of
/// the low words), then sender.
inline bool canonical_before(const CalRecord& a, const CalRecord& b) {
  const auto d = static_cast<std::int32_t>(a.sent - b.sent);
  return d != 0 ? d < 0 : a.src < b.src;
}

/// One calendar slot: the records due at one step and their known ids.
struct CalendarSlot {
  std::vector<CalRecord> recs;
  std::vector<NodeId> known;

  bool empty() const { return recs.empty(); }

  /// Schedule `m` (its src already stamped).
  void push(Step sent_at, NodeId to, const Message& m) {
    recs.push_back(pack_record(sent_at, to, m, known));
  }

  /// Append a boundary record whose known ids live in `from_known`.
  void append(const CalRecord& r, const NodeId* from_known) {
    CalRecord c = r;
    if (c.known_count != 0)
      c.known_at = append_known(known, from_known + r.known_at, r.known_count);
    recs.push_back(c);
  }

  Message message(const CalRecord& r) const {
    return unpack_record(r, known.data());
  }

  void clear() {
    recs.clear();
    known.clear();
  }

  std::size_t footprint_bytes() const {
    return recs.capacity() * sizeof(CalRecord) +
           known.capacity() * sizeof(NodeId);
  }
};

/// A shard's cross-shard sends for one window parity.
struct BoundaryBox {
  std::vector<BoundaryRecord> recs;
  std::vector<NodeId> known;

  void push(Step at, Step sent_at, NodeId to, const Message& m) {
    recs.push_back({at, pack_record(sent_at, to, m, known)});
  }

  void clear() {
    recs.clear();
    known.clear();
  }

  std::size_t footprint_bytes() const {
    return recs.capacity() * sizeof(BoundaryRecord) +
           known.capacity() * sizeof(NodeId);
  }
};

/// Canonical slot ordering with reusable scratch (one per shard).
class SlotMerger {
 public:
  /// Put `recs` into canonical_before order.  May swap `recs` with the
  /// scratch buffer, so pointers into `recs` are invalidated.
  void order(std::vector<CalRecord>& recs) {
    const std::size_t n = recs.size();
    if (n < 2) return;
    bounds_.clear();
    bounds_.push_back(0);
    for (std::size_t i = 1; i < n; ++i)
      if (canonical_before(recs[i], recs[i - 1])) bounds_.push_back(i);
    if (bounds_.size() == 1) return;
    bounds_.push_back(n);
    buf_.resize(n);
    // Bottom-up pairwise merging, ping-ponging between recs and buf_;
    // bounds_ holds each pass's run starts followed by n.
    std::vector<CalRecord>* from = &recs;
    std::vector<CalRecord>* to = &buf_;
    while (bounds_.size() > 2) {
      const auto src = from->begin();
      const auto dst = to->begin();
      std::size_t kept = 0, j = 0;
      for (; j + 2 < bounds_.size(); j += 2) {
        const auto lo = static_cast<std::ptrdiff_t>(bounds_[j]);
        const auto mid = static_cast<std::ptrdiff_t>(bounds_[j + 1]);
        const auto hi = static_cast<std::ptrdiff_t>(bounds_[j + 2]);
        std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo,
                   canonical_before);
        bounds_[kept++] = bounds_[j];
      }
      if (j + 1 < bounds_.size()) {  // odd run out: carry it over
        const auto lo = static_cast<std::ptrdiff_t>(bounds_[j]);
        const auto hi = static_cast<std::ptrdiff_t>(bounds_[j + 1]);
        std::copy(src + lo, src + hi, dst + lo);
        bounds_[kept++] = bounds_[j];
      }
      bounds_[kept++] = n;
      bounds_.resize(kept);
      std::swap(from, to);
    }
    if (from != &recs) recs.swap(buf_);
  }

  std::size_t footprint_bytes() const {
    return buf_.capacity() * sizeof(CalRecord) +
           bounds_.capacity() * sizeof(std::size_t);
  }

 private:
  std::vector<CalRecord> buf_;
  std::vector<std::size_t> bounds_;
};

}  // namespace cg
